import io
import json
import random
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhizalab.algmodel import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    _combination,
    _sparse,
    parse_algebra,
    serialize_algebra,
    sum_product,
)
from rhizalab.axioms import CheckReport, Violation, check_rhizaform, pre_jacobi_jordan_product, subadjacent_bracket
from rhizalab.cli import _json_chunks, main
from rhizalab.cocycles import VectorForm
from rhizalab.errors import (
    DimensionMismatch,
    MissingProduct,
    ParseError,
    UnboundParameter,
)
from rhizalab.family import FamilyAlgebra, Semigroup, associated_family, check_rhizaform_family
from rhizalab.nilpotency import analyze
from tests import fraction_checkers as ref
from tests.conftest import catalog_algebras, graded_split_algebra, random_map, random_split_algebra, random_tensor
from tests.fraction_checkers import apply, basis_vec, eval_product, scaled

F = Fraction


def test_eval_on_basis_pair(a_d2_a1):
    e2 = basis_vec(2, 1)
    assert eval_product(a_d2_a1.succ, e2, e2) == (F(1), F(0))


def test_eval_zero_vector(a_d2_a1):
    assert eval_product(a_d2_a1.succ, (F(0),) * 2, basis_vec(2, 1)) == (F(0),) * 2


def test_eval_expands_bilinearly(a_d2_a1):
    x = (F(1), F(1))  # e1 + e2
    e2 = basis_vec(2, 1)
    # only the e2-e2 product is nonzero
    assert eval_product(a_d2_a1.succ, x, e2) == (F(1), F(0))


def test_eval_dimension_mismatch(a_d2_a1):
    with pytest.raises(DimensionMismatch):
        eval_product(a_d2_a1.succ, (F(1),), basis_vec(2, 0))


def test_eval_bilinearity_randomized():
    rng = random.Random(23)
    scalars = [F(-2), F(-1, 2), F(1, 3), F(2)]
    for _ in range(40):
        n = rng.choice([2, 3])
        op = random_tensor(rng, n)
        a, b = rng.choice(scalars), rng.choice(scalars)
        x, y, z = (basis_vec(n, rng.randrange(n)) for _ in range(3))
        combo = tuple(a * xi + b * yi for xi, yi in zip(x, y))
        left = eval_product(op, combo, z)
        expected = tuple(
            a * u + b * v
            for u, v in zip(eval_product(op, x, z), eval_product(op, y, z))
        )
        assert left == expected


def test_sum_product_d2_a1(a_d2_a1):
    s = sum_product(a_d2_a1)
    assert s.entry(1, 1) == (F(2), F(0))


def test_sum_product_d2_a7(a_d2_a7):
    s = sum_product(a_d2_a7)
    assert s.entry(0, 0) == (F(0), F(2))


def test_sum_product_cancellation():
    rng = random.Random(5)
    succ = random_tensor(rng, 2)
    a = HomAlgebra.rhizaform(succ, scaled(succ, -1), LinearMap.identity(2))
    assert sum_product(a).is_zero()


def test_sum_product_needs_splits(a_d2_a1):
    mono = HomAlgebra.mono(sum_product(a_d2_a1), a_d2_a1.alpha)
    with pytest.raises(MissingProduct):
        sum_product(mono)


def test_product_key_validation():
    op = BilinearOp.zero(2)
    with pytest.raises(MissingProduct):
        HomAlgebra(2, {"succ": op}, LinearMap.identity(2))
    with pytest.raises(MissingProduct):
        HomAlgebra(2, {"mul": op, "succ": op}, LinearMap.identity(2))


ALGEBRA_TEXT = """
{"dim": 2, "kind": "rhizaform",
 "alpha": [["1", "1"], ["0", "1"]],
 "succ": [[2, 2, 1, "1"]],
 "prec": [[2, 2, 1, "1"]]}
"""


def test_parse_basic():
    a = parse_algebra(ALGEBRA_TEXT)
    assert a.dim == 2
    assert a.kind == "rhizaform"
    assert a.succ.entry(1, 1) == (F(1), F(0))
    assert apply(a.alpha, basis_vec(2, 1)) == (F(1), F(1))


def test_parse_serialize_round_trip():
    a = parse_algebra(ALGEBRA_TEXT)
    assert parse_algebra(serialize_algebra(a)) == a


def test_round_trip_preserves_params():
    text = """
    {"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]],
     "mul": [[1, 1, 2, "eta"]], "params": {"eta": "1/4"}}
    """
    a = parse_algebra(text)
    assert a.mul.entry(0, 0) == (F(0), F(1, 4))
    assert parse_algebra(serialize_algebra(a)) == a


def test_parse_empty_products_is_zero():
    a = parse_algebra('{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]]}')
    assert a.mul.is_zero()


def test_parse_parameter_binding():
    text = '{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]], "mul": [[1,1,1,"eta"]]}'
    a = parse_algebra(text, bindings={"eta": F(1, 4)})
    assert a.mul.entry(0, 0) == (F(1, 4), F(0))
    neg = parse_algebra(text.replace('"eta"', '"-eta"'), bindings={"eta": F(1, 4)})
    assert neg.mul.entry(0, 0) == (F(-1, 4), F(0))


def test_parse_unbound_parameter():
    text = '{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]], "mul": [[1,1,1,"eta"]]}'
    with pytest.raises(UnboundParameter) as err:
        parse_algebra(text)
    assert err.value.name == "eta"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_algebra('{"dim": 2,,}')
    assert err.value.position is not None


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "mono", "alpha": [["1"]]}',  # missing dim
        '{"dim": 2, "kind": "blob", "alpha": [["1","0"],["0","1"]]}',  # bad kind
        '{"dim": 2, "kind": "mono", "alpha": [["1","0"]]}',  # ragged alpha
        '{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]], "mul": [[1,1,3,"1"]]}',
        '{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]], "mul": [[1,1,1,0.5]]}',
        '{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]], "succ": [[1,1,1,"1"]]}',
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_algebra(text)


def test_round_trip_on_random_algebras():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.choice([2, 3])
        a = HomAlgebra.rhizaform(random_tensor(rng, n), random_tensor(rng, n), random_map(rng, n))
        assert parse_algebra(serialize_algebra(a)) == a


def test_optional_second_map_round_trips():
    text = """
    {"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]],
     "beta": [["0","1"],["1","0"]], "mul": []}
    """
    a = parse_algebra(text)
    assert a.beta is not None
    assert apply(a.beta, (F(1), F(0))) == (F(0), F(1))
    assert parse_algebra(serialize_algebra(a)) == a


def test_from_entries_adds_repeated_entries():
    op = BilinearOp.from_entries(
        2, [(0, 0, 0, "1/2"), (0, 0, 0, "-1/2"), (0, 0, 0, "1/3"), (1, 1, 1, 0), (1, 1, 1, "2"), (0, 1, 0, F(3))]
    )
    assert op.nonzero_entries() == [(0, 0, 0, F(1, 3)), (0, 1, 0, F(3)), (1, 1, 1, F(2))]
    assert all(type(c) is Fraction for row in op.coeffs for col in row for c in col)


@pytest.mark.parametrize("bad", [True, False, None, 0.5])
def test_coefficients_refuse_non_rationals(bad):
    with pytest.raises(ParseError):
        BilinearOp(1, [[[bad]]])
    with pytest.raises(ParseError):
        BilinearOp.from_entries(1, [(0, 0, 0, bad)])


# Text of every kind the writer must escape: non-ASCII, control characters, lone surrogates.
_TEXT = st.text(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr)), max_size=8)
_LEAVES = st.one_of(
    _TEXT,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([True, False, None, 0, 1, -1, 2**64, 2**64 + 1, -(2**64) - 1]),
)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


# Violations of every shape a report holds: empty basis and residual, Fractions at scale 1, integers
# at scales above 1, and residuals of 40 digits and more.
_BASES = st.lists(st.integers(1, 12), max_size=4).map(tuple)
_VIOLATIONS = st.one_of(
    st.builds(Violation, _TEXT, _BASES, st.lists(st.fractions(max_denominator=10**42), max_size=5)),
    st.builds(
        Violation,
        _TEXT,
        _BASES,
        st.lists(st.integers(-(10**45), 10**45), max_size=5),
        st.one_of(st.integers(1, 360), st.integers(2, 10**42)),
    ),
)
_REPORTS = st.builds(CheckReport.collect, _TEXT, st.lists(_VIOLATIONS, max_size=4))


def _as_objs(doc):
    """The document ``cli._json_chunks`` writes ``doc`` as: each report as its ``to_obj()``."""
    if isinstance(doc, CheckReport):
        return doc.to_obj()
    return {k: _as_objs(v) for k, v in doc.items()} if isinstance(doc, dict) else doc


_NILPOTENCY_LIKE = {
    "series": {"right": [[["1", "0"]], []]},
    "nilpotent": {"right": {"nilpotent": True, "index": 2}},
    "series_equality": CheckReport.collect("series_equality", []),
    "onesided_theorem": CheckReport.collect(
        "onesided", [Violation("biconditional", (), ()), Violation("left", (1,), (F(1, 2), F(-3)))]
    ),
    "two_nilpotent": CheckReport.collect("2-nilpotent", [Violation("tn", (1, 2, 3), (6, -4, 10**40), 4)]),
    "alpha_stable": None,
}


# Reports that reuse the writer's per-shape templates and identity texts: every basis length 0, 1, 3, 5
# with residual lengths 0 and 4; an identity needing escapes, repeated; integral quotients at scale 4; and
# one residual given as a tuple and as a list.
_SHAPES = CheckReport.collect(
    "shapes", [Violation("s", tuple(range(1, b + 1)), (3, -1, 0, 2)[:r]) for r in (0, 4) for b in (0, 1, 3, 5, 1, 0)]
)
_ESCAPE = 'a"\\\n\x00é\ud800'
_ESCAPED_ID = CheckReport.collect(
    "esc",
    [Violation(_ESCAPE, (1,), (1,)), Violation(_ESCAPE, (2,), (2,)), Violation("b", (3,), ())]
    + [Violation(_ESCAPE, (), ())],
)
_INTEGRAL_QUOTIENTS = CheckReport.collect(
    "quotients", [Violation("q", (1, 2), (8, -4, 0, 6, 10**40), 4), Violation("q", (2, 1), (4, 12), 4)]
)
_TUPLE_AND_LIST = CheckReport.collect(
    "sequences",
    [Violation("t", (1, 2), (F(1, 2), 3)), Violation("t", (1, 2), [F(1, 2), 3]), Violation("t", (2,), [6, 9], 6)],
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_REPORTS, _DOCS, st.dictionaries(_TEXT, st.one_of(_DOCS, _REPORTS), max_size=5)))
@example(_SHAPES)
@example(_ESCAPED_ID)
@example(_INTEGRAL_QUOTIENTS)
@example(_TUPLE_AND_LIST)
@example(_NILPOTENCY_LIKE)
@example(CheckReport.collect("semigroup", [Violation("assoc", (), ())]))
@example(CheckReport.collect("empty", []))
@example(
    {"": [{}, [], (), "", "\ud800", "\x00\x1f\x7f\"\\", "é€😀", True, 1, False, 0, None, 2**64, -(2**64), 10**40]}
)
@example({})
@example(())
@example(True)
@example("\udfff")
def test_json_writer_matches_stdlib(doc):
    """Each document the CLI prints, reports alone or one level deep among other values (as
    ``nilpotency`` prints three), is ``json.dumps`` of it with each report as its ``to_obj()``."""
    assert "".join(_json_chunks(doc)) == json.dumps(_as_objs(doc), indent=2)


@pytest.mark.parametrize("leaf", [1j, F(1, 2), {1, 2}, b"x"])
def test_json_writer_refuses_other_types(leaf):
    report = CheckReport.collect("r", [])
    for doc in (leaf, [leaf], {"x": leaf}, ("y", leaf), {"x": leaf, "r": report}):
        with pytest.raises(TypeError):
            "".join(_json_chunks(doc))


def test_large_reports_match_stdlib(tmp_path):
    """Real reports: a dense n = 5 rhizaform report, a dense n = 5 Z/2 family report (over 1000
    violations, at scale 8), and the nilpotency document that nests three failing reports."""
    rng = random.Random(3)
    succ = {lam: random_tensor(rng, 5) for lam in range(2)}
    prec = {lam: scaled(random_tensor(rng, 5), F(1, 2)) for lam in range(2)}
    family = FamilyAlgebra(5, Semigroup.cyclic(2), succ, prec, random_map(rng, 5, 0))
    reports = [check_rhizaform(random_split_algebra(rng, 5)), check_rhizaform_family(family)]
    assert [len(r.violations) for r in reports] == [425, 1600] and {v.scale for v in reports[1].violations} == {8}
    for report in reports:
        assert "".join(report.chunks()) == json.dumps(report.to_obj(), indent=2)
    graded = graded_split_algebra(random.Random(5), 5)
    path = tmp_path / "graded.json"
    path.write_text(serialize_algebra(graded))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["nilpotency", "--format", "structured", str(path)]) == 0
    doc = json.loads(out.getvalue())
    r = analyze(graded)
    nested = [r.series_equality, r.onesided, r.two_nilpotent]
    assert [doc[key] for key in ("series_equality", "onesided_theorem", "two_nilpotent")] == [
        x.to_obj() for x in nested
    ]
    assert [len(x.violations) for x in nested] == [26, 0, 183]
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


# --- products in integer form -------------------------------------------------


def _cancelling_split(rng: random.Random, n: int) -> HomAlgebra:
    """A split algebra whose derived products cancel in some cells: prec is -succ in some cells (the
    sum and the bracket cancel there) and succ with its arguments swapped in others (the circle
    product cancels there)."""
    def coeff():
        return rng.choice((F(0), F(0), F(1), F(-1), F(1, 2), F(-3, 4), F(5, 3)))

    succ, prec = ([[[coeff() for _ in range(n)] for _ in range(n)] for _ in range(n)] for _ in range(2))
    for i in range(n):
        for j in range(n):
            pick = rng.random()
            if pick < 0.3:
                prec[i][j] = [-c for c in succ[i][j]]
            elif pick < 0.6:
                prec[j][i] = list(succ[i][j])
    return HomAlgebra.rhizaform(BilinearOp(n, succ), BilinearOp(n, prec), random_map(rng, n))


def _combination_cases():
    rng = random.Random(2501)
    randoms = [(f"random{t}", _cancelling_split(rng, 2 + t % 3)) for t in range(12)]
    return [*catalog_algebras({"eta": F(-2, 3)}), *randoms]


def _cancels(terms) -> bool:
    """Some cell of the reference sum is zero where a term's cell is not."""
    total, n = ref.combination(*terms), terms[0][1].dim
    cells = [(i, j) for i in range(n) for j in range(n)]
    return any(not any(total.entry(i, j)) and any(op.entry(i, j)) for _, op, _ in terms for i, j in cells)


def test_integer_combination_matches_fraction_reference():
    """sum_product, the circle product, the bracket and the family products equal the Fraction
    combination they replaced, on the catalog and on random products whose sums cancel in places."""
    cancelled = set()
    for label, a in _combination_cases():
        s, p = (1, a.succ, False), (1, a.prec, False)
        cases = {
            "sum": (sum_product(a), (s, p)),
            "circle": (pre_jacobi_jordan_product(a), (s, (-1, a.prec, True))),
            "bracket": (subadjacent_bracket(a), (s, p, (1, a.succ, True), (1, a.prec, True))),
        }
        for name, (got, terms) in cases.items():
            want = ref.combination(*terms)
            assert got == want and hash(got) == hash(want) and got.coeffs == want.coeffs, (label, name)
            if _cancels(terms):
                cancelled.add(name)
        succ, prec = {0: a.succ, 1: a.prec}, {0: a.prec, 1: scaled(a.succ, -1)}
        fam = FamilyAlgebra(a.dim, Semigroup.cyclic(2), succ, prec, a.alpha)
        want = {
            (lam, omega): ref.combination((1, fam.prec[omega], False), (1, fam.succ[lam], False))
            for lam in range(2)
            for omega in range(2)
        }
        assert associated_family(fam) == want, label
    assert cancelled == {"sum", "circle", "bracket"}


def test_combination_of_a_product_with_its_negative_is_zero():
    rng = random.Random(7)
    for n in (1, 2, 3):
        op = random_tensor(rng, n)
        zero = _combination((1, op, False), (-1, op, False))
        assert zero == BilinearOp.zero(n) and zero.d == 1 and zero.is_zero()
        assert _combination((1, op, True), (-1, op, True)) == ref.combination((1, op, True), (-1, op, True))


_TENSORS = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(-6, 6), min_size=n**3, max_size=n**3), st.integers(1, 12), st.integers(1, 6)
    )
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_TENSORS)
@example((2, [0] * 8, 5, 3))
@example((1, [4], 6, 2))
def test_products_are_stored_in_lowest_terms(case):
    """One product built from integer cells at scale s k and from its Fractions c / s: equal, equal
    hashes and one stored form (table, d) in lowest terms; a VectorForm with those coefficients is
    equal too, and a cell whose entries cancel equals an absent cell."""
    n, nums, s, k = case
    cells = [[nums[(i * n + j) * n : (i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    from_ints = BilinearOp._from_table([[_sparse([c * k for c in cell]) for cell in row] for row in cells], s * k)
    from_fractions = BilinearOp(n, [[[F(c, s) for c in cell] for cell in row] for row in cells])
    form = VectorForm._from_table([[_sparse(cell) for cell in row] for row in cells], s)
    for other in (from_fractions, form, VectorForm(n, from_fractions.coeffs)):
        assert from_ints == other and other == from_ints and hash(from_ints) == hash(other)
        assert (from_ints.table, from_ints.d) == (other.table, other.d)
    assert from_ints.d == s // gcd(s, *nums)
    assert from_ints.coeffs == from_fractions.coeffs
    q = F(1, s)
    cancelled = BilinearOp.from_entries(n, [(0, n - 1, 0, q), *from_fractions.nonzero_entries(), (0, n - 1, 0, -q)])
    assert cancelled == from_fractions and hash(cancelled) == hash(from_fractions)
    if n > 1:
        assert from_ints != BilinearOp.from_entries(n, [*from_fractions.nonzero_entries(), (0, n - 1, 0, q)])


def _mono_text(n: int) -> str:
    """A mono algebra file with the identity twist and one product entry."""
    alpha = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return json.dumps({"dim": n, "kind": "mono", "alpha": alpha, "mul": [[1, 2, n, "1/2"]]})


def _traced_peak(text: str) -> int:
    tracemalloc.start()
    try:
        serialize_algebra(parse_algebra(text))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parsing_and_writing_grow_with_the_file_not_with_n_cubed():
    """The file grows as n^2 (the twist), so doubling n should take about 4 times the memory; a dense
    n^3 tensor per product would take 8."""
    small, large = (_traced_peak(_mono_text(n)) for n in (40, 80))
    assert large / small <= 5, (small, large)
