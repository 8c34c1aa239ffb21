"""Differential tests: the constructions on the integer kernel against their Fraction references.

``tests/fraction_checkers.py`` keeps the operator, cocycle and
inner-derivation constructions and the twist image of a subspace as they
were on ``Fraction``s.  Each library construction must give the same
``HomAlgebra`` or ``LinearMap``, the same ``alpha_stability`` report, or the
same exception type (a singular operator, a degenerate form).  The operators
and forms are random, with fractional entries, and are not averaging
operators or cocycles, so every construction runs with ``strict=False``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from rhizalab.algmodel import HomAlgebra, LinearMap, star_product
from rhizalab.axioms import inner_derivation
from rhizalab.cocycles import rhizaform_from_cocycle
from rhizalab.errors import RhizalabError, Singular
from rhizalab.exactlin import Matrix
from rhizalab.family import RBFamily, Semigroup, induced_family_rhizaform
from rhizalab.operators import (
    Bimodule,
    check_rota_baxter,
    compatible_from_invertible_o_operator,
    induced_rhizaform_from_o_operator,
    induced_rhizaform_from_rb,
    regular_bimodule,
)
from tests import fraction_checkers as ref
from tests.conftest import alpha_stability, catalog_algebras, graded_split_algebra, random_split_algebra

F = Fraction
ETAS = (F(0), F(1), F(-1, 2), F(1024, 81))
VALUES = (F(-1), F(-1, 2), F(0), F(0), F(1, 3), F(1), F(2))


def _inputs() -> list[HomAlgebra]:
    algebras = [a for eta in ETAS for _, a in catalog_algebras({"eta": eta})]
    rng = random.Random(13)
    algebras += [random_split_algebra(rng, 2 + s % 4) for s in range(12)]
    algebras += [graded_split_algebra(rng, 2 + s % 4) for s in range(12)]
    return algebras


INPUTS = _inputs()


def _matrix(rng: random.Random, rows: int, cols: int, rank: int | None = None) -> Matrix:
    """A random matrix with fractional entries; with ``rank``, its rows past ``rank`` repeat row 0."""
    m = [[rng.choice(VALUES) for _ in range(cols)] for _ in range(rows)]
    if rank is not None:
        m = m[:rank] + [m[0]] * (rows - rank)
    return Matrix.from_rows(m)


def _outcome(f, *args, **kwargs):
    """f's result, or the type of the library error it raised."""
    try:
        return f(*args, **kwargs)
    except RhizalabError as exc:
        return type(exc)


def _same(lib, reference, *args, **kwargs):
    got = _outcome(lib, *args, strict=False, **kwargs)
    assert got == _outcome(reference, *args, **kwargs)
    return got


def test_rb_splitting_equals_reference():
    rng = random.Random(1)
    averaging = 0
    for a in INPUTS:
        s = HomAlgebra.mono(star_product(a), a.alpha)
        for _ in range(2):
            r = _matrix(rng, a.dim, a.dim)
            averaging += check_rota_baxter(r, s).passed
            assert isinstance(_same(induced_rhizaform_from_rb, ref.induced_rhizaform_from_rb, r, s), HomAlgebra)
    assert averaging < len(INPUTS) // 4


def test_family_induction_equals_reference_at_each_index():
    rng = random.Random(2)
    for a in INPUTS:
        s = HomAlgebra.mono(star_product(a), a.alpha)
        ops = {lam: _matrix(rng, a.dim, a.dim) for lam in range(3)}
        fam = induced_family_rhizaform(RBFamily(Semigroup.cyclic(3), ops), s, strict=False)
        for lam, r in ops.items():
            assert (fam.succ[lam], fam.prec[lam]) == ref.rb_splitting(r, s.mul)


def _bimodule(rng: random.Random, n: int, md: int) -> Bimodule:
    left, right = (tuple(_matrix(rng, md, md) for _ in range(n)) for _ in range(2))
    return Bimodule(n, md, left, right, LinearMap(md, _matrix(rng, md, md)))


def test_o_operator_induction_equals_reference():
    rng = random.Random(3)
    for a in INPUTS:
        s = HomAlgebra.mono(star_product(a), a.alpha)
        for md in (1, a.dim, a.dim + 1):
            t = _matrix(rng, a.dim, md)
            m = _bimodule(rng, a.dim, md)
            _same(induced_rhizaform_from_o_operator, ref.induced_rhizaform_from_o_operator, t, s, m)
        t = _matrix(rng, a.dim, a.dim)
        _same(induced_rhizaform_from_o_operator, ref.induced_rhizaform_from_o_operator, t, s, regular_bimodule(s))


def test_invertible_o_operator_transport_equals_reference():
    rng = random.Random(4)
    outcomes = []
    for a in INPUTS:
        s = HomAlgebra.mono(star_product(a), a.alpha)
        for m in (regular_bimodule(s), _bimodule(rng, a.dim, a.dim)):
            for rank in (None, a.dim - 1):
                t = _matrix(rng, a.dim, a.dim, rank)
                got = _same(compatible_from_invertible_o_operator, ref.compatible_from_invertible_o_operator, t, s, m)
                outcomes.append(got is Singular)
    assert any(outcomes) and not all(outcomes)


def test_cocycle_splitting_equals_reference():
    rng = random.Random(5)
    outcomes = []
    for a in INPUTS:
        for rank in (None, None, a.dim - 1):
            b = _matrix(rng, a.dim, a.dim, rank)
            outcomes.append(_same(rhizaform_from_cocycle, ref.rhizaform_from_cocycle, a, b) is Singular)
    assert any(outcomes) and not all(outcomes)


def test_inner_derivation_equals_reference():
    rng = random.Random(6)
    for a in INPUTS:
        z = tuple(rng.choice(VALUES) for _ in range(a.dim))
        for alg, convention in ((a, "star"), (a, "mixed"), (HomAlgebra.mono(star_product(a), a.alpha), "star")):
            assert inner_derivation(z, alg, convention) == ref.inner_derivation(z, alg, convention)


def test_alpha_stability_equals_reference():
    """On twists that are not multiplicative, where ``analyze`` reports none; on a multiplicative twist
    alpha(S_k) lies in S_k by induction (``conftest.alpha_stability``), so the report cannot fail."""
    failing = 0
    for a in INPUTS:
        report = alpha_stability(a)
        assert report == ref.alpha_stability(a)
        failing += not report.passed
    assert failing
