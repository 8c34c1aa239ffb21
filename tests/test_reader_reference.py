"""Differential tests: the file readers against their Fraction references.

The readers resolve each distinct coefficient text once per document and
add a product's entries to its integer cells as they check them.
``tests/fraction_checkers.py`` keeps the readers as they were: every cell
resolved on its own, a product's entries summed over ``Fraction``s before
it is cleared.  On every generated document both must give equal
structures (products, twist maps, parameter bindings), or raise the same
exception type with the same message.

The documents spell one value several ways (``"1"``, ``" 1"``, ``"+1"``,
``"01"``, ``"2/4"``, ``"-0"``), name parameters plainly and negated, bind
them in the file and override them by bindings, repeat entries so that they
cancel, and hold families of up to eight product sections.  Some carry a bad
token, index or shape, often after a good spelling of the same value.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhizalab import files
from rhizalab.algmodel import parse_algebra_obj
from rhizalab.errors import RhizalabError
from tests import fraction_checkers as ref

F = Fraction
GOOD = ["1", " 1", "+1", "01", "1 ", "2/4", "1/2", "-1", "-01", " -1", "-0", "0", "+0", "0/5", "2", "-3/6", "7/3"]
NAMES = ["eta", "-eta", " eta", "eta ", "mu", "-mu", "x_1"]
BAD = ["1.5", "1/0", "1/00", "", " ", "--1", "1 /2", "+-1", "eta-", "zeta", "-zeta", 0.5, True, None, [1], {}]
VALUES = [F(0), F(1), F(-1), F(1, 2), F(-7, 3), F(5)]


def tokens(bad: bool, names: bool):
    """Coefficient tokens: good spellings and JSON integers, parameter names when ``names``, and
    sometimes a bad token when ``bad``."""
    good = st.sampled_from(GOOD + (NAMES if names else [])) | st.integers(-2, 2)
    return st.one_of(good, good, good, st.sampled_from(BAD)) if bad else good


def matrices(rows: int, cols: int, bad: bool, names: bool):
    return st.lists(st.lists(tokens(bad, names), min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def product_section(draw, dim: int, bad: bool):
    """Entries [i, j, k, coefficient], some of them repeated with the negated value so that they cancel."""
    index = st.integers(1, dim)
    if bad:
        index = st.one_of(index, index, index, index, st.sampled_from([0, dim + 1, True, "1", 1.0]))
    entries = draw(st.lists(st.lists(index, min_size=3, max_size=3), max_size=2 * dim * dim))
    section = [[*ijk, draw(tokens(bad, True))] for ijk in entries]
    for e in draw(st.lists(st.integers(0, max(len(section) - 1, 0)), max_size=3)) if section else []:
        co = section[e][3]
        if isinstance(co, str) and co.strip() and co.strip()[0] not in "+-":
            section.append([*section[e][:3], "-" + co.strip()])
    if bad and draw(st.booleans()):
        section.insert(draw(st.integers(0, len(section))), draw(st.sampled_from([[1, 1, 1], "1", [1, 1, 1, "1", 2]])))
    return section


@st.composite
def headers(draw, bad: bool):
    """dim, params, alpha (sometimes of the wrong shape) and bindings of an algebra or family document."""
    dim = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(["eta", "mu", "x_1"]), unique=True, max_size=3))
    params = {n: draw(st.sampled_from(GOOD + ([1.5, "eta"] if bad else []))) for n in names}
    bindings = {n: draw(st.sampled_from(VALUES)) for n in draw(st.lists(st.sampled_from(["eta", "mu"]), unique=True))}
    rows = dim + (draw(st.sampled_from([0, 0, 0, 1])) if bad else 0)
    doc = {"dim": dim, "alpha": draw(matrices(rows, dim, bad, True))}
    if params or draw(st.booleans()):
        doc["params"] = params
    return doc, bindings


@st.composite
def algebra_docs(draw):
    bad = draw(st.booleans())
    doc, bindings = draw(headers(bad))
    dim = doc["dim"]
    doc["kind"] = draw(st.sampled_from(["rhizaform", "mono"]))
    if draw(st.booleans()):
        doc["beta"] = draw(matrices(dim, dim, bad, True))
    for name in ("succ", "prec") if doc["kind"] == "rhizaform" else ("mul",):
        doc[name] = draw(product_section(dim, bad))
    return doc, bindings


@st.composite
def family_docs(draw):
    bad = draw(st.booleans())
    doc, bindings = draw(headers(bad))
    size = draw(st.integers(1, 4))
    doc["omega"] = {"size": size, "table": [[(a + b) % size for b in range(size)] for a in range(size)]}
    for name in ("succ", "prec"):
        doc[name] = {str(lam): draw(product_section(doc["dim"], bad)) for lam in range(size)}
    return doc, bindings


@st.composite
def matrix_docs(draw):
    """Operator, form, two-sided action and operator-family documents, where names are bad rationals."""
    bad, names = draw(st.booleans()), draw(st.booleans())
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    role = draw(st.sampled_from(["operator", "form", "bimodule", "rb_family"]))
    if role == "operator":
        return role, {"T": draw(matrices(m, n, bad, names))}
    if role == "form":
        return role, {"B": draw(matrices(n, n, bad, names))}
    if role == "bimodule":
        sides = {side: draw(st.lists(matrices(m, m, bad, names), min_size=n, max_size=n)) for side in ("left", "right")}
        return role, {"alg_dim": n, "mod_dim": m, **sides, "beta": draw(matrices(m, m, bad, names))}
    ops = {str(lam): draw(matrices(n, n, bad, names)) for lam in range(m)}
    return role, {"omega": {"table": [[(a + b) % m for b in range(m)] for a in range(m)]}, "operators": ops}


def outcome(read, *args):
    """What ``read(*args)`` returns, or the type and message of what it raises."""
    try:
        return read(*args)
    except RhizalabError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(algebra_docs())
def test_algebra_reader_matches_the_reference(case):
    doc, bindings = case
    assert outcome(parse_algebra_obj, doc, bindings) == outcome(ref.parse_algebra_obj, doc, bindings)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(family_docs())
def test_family_reader_matches_the_reference(case):
    doc, bindings = case
    assert outcome(files.read_family, doc, bindings) == outcome(ref.read_family, doc, bindings)


READERS = {
    "operator": (files.read_operator, ref.read_operator),
    "form": (files.read_form, ref.read_form),
    "bimodule": (files.read_bimodule, ref.read_bimodule),
    "rb_family": (files.read_rb_family, ref.read_rb_family),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix_docs())
def test_matrix_readers_match_the_reference(case):
    role, doc = case
    read, reference = READERS[role]
    assert outcome(read, doc) == outcome(reference, doc)


@pytest.mark.parametrize(
    "later",
    ["1.0", "1/0", "zeta", " 1x", 0.5, True],
)
def test_a_bad_token_after_a_good_spelling_fails_at_its_own_cell(later):
    """The good "1" is resolved and remembered first; the bad token after it still fails where it stands."""
    doc = {
        "dim": 2,
        "kind": "mono",
        "alpha": [["1", "0"], ["0", "1"]],
        "mul": [[1, 1, 1, "1"], [1, 2, 2, " 1"], [2, 2, 1, later]],
    }
    expected = outcome(ref.parse_algebra_obj, doc, None)
    assert isinstance(expected, tuple) and "algebra.mul[2][3]" in expected[1]
    assert outcome(parse_algebra_obj, doc, None) == expected


def test_spellings_of_one_value_read_alike():
    spellings = ["1", " 1", "+1", "01", "2/2", "1 "]
    doc = {"dim": 1, "kind": "mono", "alpha": [spellings[:1]], "mul": [[1, 1, 1, s] for s in spellings]}
    a = parse_algebra_obj(doc)
    assert a == ref.parse_algebra_obj(doc) and a.mul.nonzero_entries() == [(0, 0, 0, F(6))]
