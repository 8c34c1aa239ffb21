"""Failing reports written straight from integer residuals.

A checker hands each failing tuple to ``Violation`` as its integer residual
and the scale that residual is at.  The report's text is written from them,
with one gcd per coordinate, and ``residual`` gives the normalized
``Fraction``s on demand.  The writer is checked against ``rational_str`` of
each ``Fraction``.  Every checker that builds violations is checked against
the reference in ``fraction_checkers``, and every value it stores must be an
``int``.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from rhizalab.algmodel import HomAlgebra, LinearMap
from rhizalab.axioms import Violation, check_dendriform, check_rhizaform
from rhizalab.cocycles import VectorForm, vector_cocycle_residuals
from rhizalab.exactlin import Matrix, rational_str
from rhizalab.family import FamilyAlgebra, Semigroup, check_rhizaform_family
from rhizalab.nilpotency import check_2_nilpotent, check_alpha_stability, check_series_equality
from rhizalab.operators import LinearOperator, check_o_operator, regular_bimodule
from tests import fraction_checkers as ref
from tests.conftest import conjugate, graded_split_algebra, sum_mono

F = Fraction
# 1, a prime, a power of 2, composites, and a large prime
SCALES = [1, 7, 2**10, 360, 2**3 * 3**4 * 5 * 7**2, 2**61 - 1]


def _values(rng: random.Random, d: int) -> list[int]:
    """A residual of 0-6 coordinates: zeros, units, multiples of d and of its factors, large ones."""
    factors = [f for f in (2, 3, 5, 7, d) if d % f == 0] or [1]
    draws = [
        lambda: 0,
        lambda: rng.choice((1, -1)),
        lambda: rng.randint(-5, 5) * d,
        lambda: rng.randint(-50, 50) * rng.choice(factors) ** rng.randint(1, 6),
        lambda: rng.randint(-(10**40), 10**40),
    ]
    return [rng.choice(draws)() for _ in range(rng.randint(0, 6))]


@pytest.mark.parametrize("d", SCALES)
def test_residual_text_is_rational_str_of_each_fraction(d):
    rng = random.Random(d)
    for _ in range(200):
        values = _values(rng, d)
        fractions = tuple(F(v, d) for v in values)
        v = Violation("req1", (1, 2, 3), values, d)
        assert v.to_obj()["residual"] == [rational_str(q) for q in fractions]
        assert v.residual == fractions and all(type(q) is Fraction for q in v.residual)
        w = Violation("req1", (1, 2, 3), fractions)
        assert v == w and hash(v) == hash(w)
        assert w.to_obj() == v.to_obj()
        if any(fractions):
            assert v != Violation("req1", (1, 2, 3), values, 2 * d)


def test_violation_is_a_slotted_record():
    """A violation holds its four fields in slots, with no instance ``__dict__``;
    ``dataclasses.replace`` still builds a new record, and equality and hashing still go
    through the normalized residual."""
    v = Violation("req1", (1, 2, 3), [3, -6, 0], 6)
    assert not hasattr(v, "__dict__")
    assert Violation.__slots__ == ("identity_id", "basis_tuple", "values", "scale")
    w = dataclasses.replace(v, identity_id="req2")
    assert (w.identity_id, w.basis_tuple, w.residual) == ("req2", (1, 2, 3), v.residual)
    assert v.identity_id == "req1"
    same = Violation("req1", (1, 2, 3), (F(1, 2), F(-1), F(0)))
    assert v == same and hash(v) == hash(same) and v.to_obj() == same.to_obj()
    assert v != w and v != Violation("req1", (1, 2, 3), [3, -6, 0], 12)


def _matrix(rng: random.Random, rows: int, cols: int, unit_diagonal: bool = False) -> Matrix:
    entries = [F(1, 2), F(-2, 3), F(3, 5), F(1), F(0), F(0)]
    values = [F(1) if unit_diagonal and i == j else rng.choice(entries) for i in range(rows) for j in range(cols)]
    return Matrix(rows, cols, values)


GRADED = graded_split_algebra(random.Random(5), 5)
BASIS = _matrix(random.Random(4), 5, 5, unit_diagonal=True)
# the graded algebra in a fractional basis: residuals at scales other than 1, and series
# witnesses that are not unit vectors
CONJUGATED = conjugate(GRADED, BASIS)


def _family() -> FamilyAlgebra:
    rng = random.Random(29)
    succ = {lam: ref.scaled(graded_split_algebra(rng, 3).succ, F(2, 3)) for lam in range(2)}
    prec = {lam: ref.scaled(graded_split_algebra(rng, 3).prec, F(-1, 2)) for lam in range(2)}
    return FamilyAlgebra(3, Semigroup.cyclic(2), succ, prec, LinearMap(3, _matrix(rng, 3, 3)))


def _o_operator_case():
    mono = sum_mono(CONJUGATED)
    return LinearOperator(5, 5, _matrix(random.Random(31), 5, 5)), mono, regular_bimodule(mono)


def _form() -> VectorForm:
    rng = random.Random(37)
    return VectorForm(5, [[[rng.choice((F(0), F(1, 2), F(-3))) for _ in range(5)] for _ in range(5)] for _ in range(5)])


def _twisted() -> HomAlgebra:
    """CONJUGATED with a fractional twist that is not multiplicative, so alpha(S_k) leaves S_k."""
    return conjugate(GRADED, BASIS, _matrix(random.Random(41), 5, 5))


# label -> (the library's report, the reference report), built on failing inputs
CASES = {
    **{
        f"{name} {label}": (lambda a=a, check=check: check(a), lambda a=a, want=want: want(a))
        for label, a in (("graded", GRADED), ("conjugated", CONJUGATED))
        for name, check, want in (
            ("rhizaform", check_rhizaform, ref.rhizaform),
            ("dendriform", check_dendriform, ref.dendriform),
            ("2-nilpotent", check_2_nilpotent, ref.two_nilpotent),
        )
    },
    "rhizaform family": (lambda: check_rhizaform_family(_family()), lambda: ref.rhizaform_family(_family())),
    "o-operator": (lambda: check_o_operator(*_o_operator_case()), lambda: ref.o_operator(*_o_operator_case())),
    "vector cocycle": (
        lambda: vector_cocycle_residuals(CONJUGATED, _form()),
        lambda: ref.vector_cocycle_residuals(CONJUGATED, _form()),
    ),
    "series equality": (
        lambda: check_series_equality(CONJUGATED),
        lambda: ref.nilpotency_analysis(CONJUGATED)[0].series_equality,
    ),
    "alpha stability": (lambda: check_alpha_stability(_twisted()), lambda: ref.alpha_stability(_twisted())),
}
WITNESSES = ("series equality", "alpha stability")


@pytest.mark.parametrize("label", sorted(CASES))
def test_failing_reports_hold_integer_residuals(label):
    build, reference = CASES[label]
    got = build()
    violations = getattr(got, "violations", got)
    assert violations
    assert all(type(x) is int for v in violations for x in v.values)
    assert got == reference()
    if label in WITNESSES or label.endswith("conjugated"):
        # a witness row with an entry other than its pivot, or a residual at a scale other than 1
        assert any(x and x != v.scale for v in violations for x in v.values)
        assert any(v.scale != 1 for v in violations)
