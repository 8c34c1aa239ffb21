import itertools
import random
from fractions import Fraction

import pytest

from rhizalab.algmodel import BilinearOp, HomAlgebra, LinearMap
from rhizalab.axioms import check_multiplicativity
from rhizalab import nilpotency
from rhizalab.errors import DimensionMismatch, InternalError
from rhizalab.exactlin import Matrix
from rhizalab.nilpotency import (
    Subspace,
    check_2_nilpotent,
    check_alpha_stability,
    check_onesided_nilpotency_theorem,
    check_series_equality,
    diamond,
    full_series,
    is_left_nilpotent,
    is_nilpotent,
    is_right_nilpotent,
    left_series,
    right_series,
    series_term,
)
from tests import fraction_checkers as ref
from tests.conftest import (
    catalog_algebras,
    graded_split_algebra,
    negated_split_fixture,
    random_split_algebra,
    rhizaform_passing_entries,
)

F = Fraction


def zero_split(n=2):
    return HomAlgebra.rhizaform(BilinearOp.zero(n), BilinearOp.zero(n), LinearMap.identity(n))


def span(ambient, *vectors):
    return Subspace.from_vectors(ambient, vectors)


def test_subspace_canonical_form():
    s = span(3, (F(2), F(0), F(2)), (F(1), F(0), F(1)), (F(0), F(1), F(0)))
    assert s.dim == 2
    assert s.basis == Matrix.from_rows([[1, 0, 1], [0, 1, 0]])
    assert s == span(3, (F(1), F(1), F(1)), (F(0), F(1), F(0)))
    # shuffled generators scaled by negative integers, so the elimination meets negative pivots
    t = span(3, (F(0), F(-2), F(0)), (F(-3), F(-3), F(-3)), (F(-2), F(0), F(-2)))
    assert t == s and t.basis == s.basis
    # the whole space, built without elimination, has the canonical rows of the identity's span
    for n in range(7):
        assert Subspace.full(n) == span(n, *([F(int(i == j)) for j in range(n)] for i in range(n)))


def test_subspace_containment():
    big = Subspace.full(3)
    small = span(3, (F(1), F(0), F(0)))
    assert big.contains(small)
    assert not small.contains(big)
    assert small.contains_vector((F(3), F(0), F(0)))
    assert not small.contains_vector((F(0), F(1), F(0)))


def test_subspace_dimension_check():
    with pytest.raises(DimensionMismatch):
        span(2, (F(1), F(0), F(0)))
    with pytest.raises(DimensionMismatch):
        span(2, (F(1), F(0))).contains_vector((F(1), F(0), F(0)))


def test_diamond_zero_subspace(a_d2_a1):
    z = Subspace.zero(2)
    assert diamond(z, Subspace.full(2), a_d2_a1).is_zero()


def test_diamond_d2_a1(a_d2_a1):
    full = Subspace.full(2)
    assert diamond(full, full, a_d2_a1) == span(2, (F(1), F(0)))


def test_diamond_d2_a5():
    from rhizalab.catalog import load_entry

    a = load_entry("d2.A5")
    full = Subspace.full(2)
    assert diamond(full, full, a) == span(2, (F(0), F(1)))


def test_series_zero_products():
    a = zero_split()
    for fn in (right_series, left_series, full_series):
        terms = fn(a)
        assert len(terms) == 2
        assert terms[0] == Subspace.full(2)
        assert terms[1].is_zero()
    assert is_nilpotent(a) == (True, 2)


def test_series_d2_a1(a_d2_a1):
    terms = full_series(a_d2_a1)
    assert [t.dim for t in terms] == [2, 1, 0]
    assert terms[1] == span(2, (F(1), F(0)))
    assert is_nilpotent(a_d2_a1) == (True, 3)
    assert is_right_nilpotent(a_d2_a1) == (True, 3)
    assert is_left_nilpotent(a_d2_a1) == (True, 3)


def test_series_d2_a5_stabilizes():
    from rhizalab.catalog import load_entry

    a = load_entry("d2.A5")
    terms = full_series(a)
    assert terms[1] == span(2, (F(0), F(1)))
    assert terms[-1] == terms[-2]  # visible stabilization
    verdict = is_nilpotent(a)
    assert not verdict.nilpotent and verdict.index is None


def test_series_equality_zero():
    assert check_series_equality(zero_split()).passed


def test_series_equality_on_passing_entries():
    for eid, a in rhizaform_passing_entries():
        assert check_series_equality(a).passed, eid


def test_series_equality_negative_control():
    # succ: e1e1=e2, e2e1=e3; prec = 0; not a valid splitting
    succ = BilinearOp.from_entries(3, [(0, 0, 1, F(1)), (1, 0, 2, F(1))])
    a = HomAlgebra.rhizaform(succ, BilinearOp.zero(3), LinearMap.identity(3))
    rep = check_series_equality(a)
    assert not rep.passed
    assert series_term(a, "right", 3) == span(3, (F(0), F(0), F(1)))
    assert series_term(a, "left", 3).is_zero()


def test_2_nilpotent_zero():
    assert check_2_nilpotent(zero_split()).passed


def test_2_nilpotent_d2_a7(a_d2_a7):
    assert check_2_nilpotent(a_d2_a7).passed


def test_2_nilpotent_negated_split_fixtures():
    for n in (2, 3):
        a = negated_split_fixture(n)
        from rhizalab.axioms import check_rhizaform

        assert check_rhizaform(a).passed
        assert check_2_nilpotent(a).passed


def test_2_nilpotent_flags_nonvanishing_triple(a_d2_a1):
    rep = check_2_nilpotent(a_d2_a1)
    assert rep.passed  # products of A1 do annihilate
    # d2.A5 is 2-nilpotent without being nilpotent: twisted triples vanish
    from rhizalab.catalog import load_entry

    a5 = load_entry("d2.A5")
    assert check_2_nilpotent(a5).passed
    assert not is_nilpotent(a5).nilpotent
    # a unital-ish square does not annihilate
    bad = HomAlgebra.rhizaform(
        BilinearOp.from_entries(2, [(0, 0, 0, F(1))]), BilinearOp.zero(2), LinearMap.identity(2)
    )
    rep_bad = check_2_nilpotent(bad)
    assert not rep_bad.passed
    assert any(v.identity_id == "out:succ,succ" for v in rep_bad.violations)


def test_onesided_theorem_on_all_entries():
    for eid, a in catalog_algebras():
        assert check_onesided_nilpotency_theorem(a).passed, eid


def test_onesided_theorem_zero_and_a5():
    assert check_onesided_nilpotency_theorem(zero_split()).passed
    from rhizalab.catalog import load_entry

    a5 = load_entry("d2.A5")
    assert check_onesided_nilpotency_theorem(a5).passed
    assert not is_nilpotent(HomAlgebra.mono(a5.succ, a5.alpha)).nilpotent
    assert not is_nilpotent(HomAlgebra.mono(a5.prec, a5.alpha)).nilpotent


def test_power_inclusions_up_to_four():
    # one-sided inclusions are a lemma about valid split algebras; the
    # summed-series inclusion holds for any algebra by construction
    for eid, a in rhizaform_passing_entries():
        terms = {g: series_term(a, "right", g) for g in range(1, 9)}
        for g in range(1, 5):
            for h in range(1, 5):
                assert terms[g + h].contains(diamond(terms[g], terms[h], a)), (eid, g, h)
    for eid, a in catalog_algebras():
        terms = {g: series_term(a, "full", g) for g in range(1, 9)}
        for g in range(1, 5):
            for h in range(1, 5):
                assert terms[g + h].contains(diamond(terms[g], terms[h], a)), (eid, g, h)


def test_series_descend_and_stabilize_on_randoms():
    """Every series descends.  A right or left series descends strictly until
    zero or its one repeat, so it has at most dim + 1 terms.  The full series
    ends at zero, or carries the stop rule's certificate: with its stable term
    first at S_f, the terms S_f, ..., S_k of the recurrence are equal for
    k = max(f + 1, 2f - 1), the first k with ceil(k/2) >= f."""
    rng = random.Random(71)
    inputs = [random_split_algebra(rng, rng.choice([2, 3])) for _ in range(40)]
    inputs += [graded_split_algebra(rng, n) for n in (3, 4, 5) for _ in range(4)]
    for a in inputs:
        for fn in (right_series, left_series, full_series):
            terms = fn(a)
            for earlier, later in zip(terms, terms[1:]):
                assert earlier.contains(later)
            assert terms[-1].is_zero() or terms[-1] == terms[-2]
        for fn in (right_series, left_series):
            dims = [t.dim for t in fn(a)]
            assert all(x > y for x, y in zip(dims, dims[1:-1])), dims
            assert len(dims) <= a.dim + 1, dims
        terms = full_series(a)
        if not terms[-1].is_zero():
            f = terms.index(terms[-1]) + 1
            k = max(f + 1, 2 * f - 1)
            recurrence = ref._series(a, "full", [Subspace.full(a.dim)], k)
            assert recurrence[: len(terms)] == terms
            assert all(t == terms[-1] for t in recurrence[f - 1 :]), [t.dim for t in recurrence]


def test_alpha_stability_on_multiplicative_entries():
    for eid, a in catalog_algebras():
        if all(check_multiplicativity(op, a.alpha).passed for op in a.products.values()):
            assert check_alpha_stability(a).passed, eid


def test_series_terms_match_recurrence_past_stabilization():
    rng = random.Random(97)
    inputs = list(catalog_algebras())
    for n in (3, 4):
        inputs.append((f"random-n{n}", random_split_algebra(rng, n)))
        inputs.append((f"graded-n{n}", graded_split_algebra(rng, n)))
    for eid, a in inputs:
        # the equality check compares the same terms, up to the longest stable prefix
        length = max(len(fn(a)) for fn in (right_series, left_series, full_series))
        count = max(a.dim + 4, length)
        # the first ``count`` terms, each spanned from the products of earlier terms
        expected = {kind: ref._series(a, kind, [Subspace.full(a.dim)], count) for kind in ("right", "left", "full")}
        for kind, terms in expected.items():
            for g in range(1, count + 1):
                assert series_term(a, kind, g) == terms[g - 1], (eid, kind, g)
        r, l, f = (expected[kind] for kind in ("right", "left", "full"))
        flagged = [
            (ident, (g,))
            for g in range(1, length + 1)
            for ident, x, y in (("right_ne_full", r, f), ("left_ne_full", l, f), ("right_ne_left", r, l))
            if x[g - 1] != y[g - 1]
        ]
        rep = check_series_equality(a)
        assert [(v.identity_id, v.basis_tuple) for v in rep.violations] == flagged, eid


def test_full_series_runs_past_a_false_repeat():
    """5, 4, 3, 3 repeats a term, but the full series goes on down to zero at index 17."""
    a = graded_split_algebra(random.Random(5), 5)
    terms = full_series(a)
    assert [t.dim for t in terms] == [5, 4, 3, 3, 2, 2, 2, 2] + [1] * 8 + [0]
    assert terms == [series_term(a, "full", g) for g in range(1, 18)]
    assert is_nilpotent(a) == (True, 17)


def test_graded_algebras_are_nilpotent():
    """Products land in strictly higher basis indices, so every full series reaches zero; its
    index is the first zero term of ``series_term``."""
    for seed in range(25):
        for n in (3, 4, 5, 6):
            a = graded_split_algebra(random.Random(seed), n)
            nilpotent, index = is_nilpotent(a)
            assert nilpotent, (seed, n)
            assert series_term(a, "full", index).is_zero(), (seed, n)
            assert not series_term(a, "full", index - 1).is_zero(), (seed, n)


@pytest.mark.parametrize("series", [right_series, left_series, full_series])
def test_series_past_its_proven_length_raises(monkeypatch, series):
    """A span that is not canonical (its rows scaled by a new factor on every call) never repeats, so
    no series stabilizes; each raises once it passes the length the module doc proves, instead of
    running on."""
    real, factors = nilpotency._span, itertools.count(2)

    def scaled_span(dim, rows):
        c = next(factors)
        return Subspace(dim, tuple(tuple(c * x for x in row) for row in real(dim, rows).rows))

    monkeypatch.setattr(nilpotency, "_span", scaled_span)
    idempotents = BilinearOp.from_entries(3, [(i, i, i, 1) for i in range(3)])  # S_k = A for every k
    with pytest.raises(InternalError, match="ran past"):
        series(HomAlgebra.mono(idempotents, LinearMap.identity(3)))
