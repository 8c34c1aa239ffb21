"""The series, verdicts and checks of ``nilpotency.analyze``, the module's one entry point.

Each test reads the field of ``analyze(a)`` it is about: ``series[kind]`` (the terms up to
stabilization, padded past it by ``conftest.padded_term``), ``verdicts[kind]``, ``series_equality``,
``onesided``, ``two_nilpotent`` or ``alpha_stability``, so every test runs the path the CLI and the
catalog read.
"""

import itertools
import random
from fractions import Fraction

import pytest

from rhizalab.algmodel import BilinearOp, HomAlgebra, LinearMap
from rhizalab.axioms import check_multiplicativity
from rhizalab import nilpotency
from rhizalab.errors import DimensionMismatch, InternalError
from rhizalab.exactlin import Matrix
from rhizalab.nilpotency import Subspace, analyze, diamond
from tests import fraction_checkers as ref
from tests.conftest import (
    catalog_algebras,
    graded_split_algebra,
    negated_split_fixture,
    padded_term,
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
    nil = analyze(zero_split())
    for terms in nil.series.values():
        assert len(terms) == 2
        assert terms[0] == Subspace.full(2)
        assert terms[1].is_zero()
    assert nil.verdicts["full"] == (True, 2)


def test_series_d2_a1(a_d2_a1):
    nil = analyze(a_d2_a1)
    terms = nil.series["full"]
    assert [t.dim for t in terms] == [2, 1, 0]
    assert terms[1] == span(2, (F(1), F(0)))
    assert nil.verdicts == {"right": (True, 3), "left": (True, 3), "full": (True, 3)}


def test_series_d2_a5_stabilizes():
    from rhizalab.catalog import load_entry

    nil = analyze(load_entry("d2.A5"))
    terms = nil.series["full"]
    assert terms[1] == span(2, (F(0), F(1)))
    assert terms[-1] == terms[-2]  # visible stabilization
    verdict = nil.verdicts["full"]
    assert not verdict.nilpotent and verdict.index is None


def test_series_equality_zero():
    assert analyze(zero_split()).series_equality.passed


def test_series_equality_on_passing_entries():
    for eid, a in rhizaform_passing_entries():
        assert analyze(a).series_equality.passed, eid


def test_series_equality_negative_control():
    # succ: e1e1=e2, e2e1=e3; prec = 0; not a valid splitting
    succ = BilinearOp.from_entries(3, [(0, 0, 1, F(1)), (1, 0, 2, F(1))])
    a = HomAlgebra.rhizaform(succ, BilinearOp.zero(3), LinearMap.identity(3))
    nil = analyze(a)
    assert not nil.series_equality.passed
    assert padded_term(nil.series["right"], 3) == span(3, (F(0), F(0), F(1)))
    assert padded_term(nil.series["left"], 3).is_zero()


def test_2_nilpotent_zero():
    assert analyze(zero_split()).two_nilpotent.passed


def test_2_nilpotent_d2_a7(a_d2_a7):
    assert analyze(a_d2_a7).two_nilpotent.passed


def test_2_nilpotent_negated_split_fixtures():
    for n in (2, 3):
        a = negated_split_fixture(n)
        from rhizalab.axioms import check_rhizaform

        assert check_rhizaform(a).passed
        assert analyze(a).two_nilpotent.passed


def test_2_nilpotent_flags_nonvanishing_triple(a_d2_a1):
    rep = analyze(a_d2_a1).two_nilpotent
    assert rep.passed  # products of A1 do annihilate
    # d2.A5 is 2-nilpotent without being nilpotent: twisted triples vanish
    from rhizalab.catalog import load_entry

    a5 = analyze(load_entry("d2.A5"))
    assert a5.two_nilpotent.passed
    assert not a5.verdicts["full"].nilpotent
    # a unital-ish square does not annihilate
    bad = HomAlgebra.rhizaform(
        BilinearOp.from_entries(2, [(0, 0, 0, F(1))]), BilinearOp.zero(2), LinearMap.identity(2)
    )
    rep_bad = analyze(bad).two_nilpotent
    assert not rep_bad.passed
    assert any(v.identity_id == "out:succ,succ" for v in rep_bad.violations)


def test_onesided_theorem_on_all_entries():
    for eid, a in catalog_algebras():
        assert analyze(a).onesided.passed, eid


def test_onesided_theorem_zero_and_a5():
    assert analyze(zero_split()).onesided.passed
    from rhizalab.catalog import load_entry

    a5 = load_entry("d2.A5")
    assert analyze(a5).onesided.passed
    assert not analyze(HomAlgebra.mono(a5.succ, a5.alpha)).verdicts["full"].nilpotent
    assert not analyze(HomAlgebra.mono(a5.prec, a5.alpha)).verdicts["full"].nilpotent


@pytest.mark.parametrize(
    "entries, verdicts",
    [
        ([(1, 0, 1, 1)], {"right": (False, None), "left": (True, 3), "full": (False, None)}),  # e2 succ e1 = e2
        ([(0, 1, 1, 1)], {"right": (True, 3), "left": (False, None), "full": (False, None)}),  # e1 succ e2 = e2
    ],
    ids=["left-nilpotent", "right-nilpotent"],
)
def test_onesided_theorem_reads_the_full_series(entries, verdicts):
    """One one-sided series reaches zero and the full series does not, nor does the succ reduct (the
    algebra itself, prec being zero): the biconditional holds on the full series' verdict and fails
    on that one-sided series' verdict."""
    nil = analyze(HomAlgebra.rhizaform(BilinearOp.from_entries(2, entries), BilinearOp.zero(2), LinearMap.identity(2)))
    assert nil.verdicts == verdicts
    assert nil.onesided.passed


def test_power_inclusions_up_to_four():
    # one-sided inclusions are a lemma about valid split algebras; the
    # summed-series inclusion holds for any algebra by construction
    cases = [(eid, a, "right") for eid, a in rhizaform_passing_entries()]
    for eid, a, kind in cases + [(eid, a, "full") for eid, a in catalog_algebras()]:
        terms = analyze(a).series[kind]
        for g, h in itertools.product(range(1, 5), repeat=2):
            product = diamond(padded_term(terms, g), padded_term(terms, h), a)
            assert padded_term(terms, g + h).contains(product), (eid, kind, g, h)


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
        series = analyze(a).series
        for terms in series.values():
            for earlier, later in zip(terms, terms[1:]):
                assert earlier.contains(later)
            assert terms[-1].is_zero() or terms[-1] == terms[-2]
        for kind in ("right", "left"):
            dims = [t.dim for t in series[kind]]
            assert all(x > y for x, y in zip(dims, dims[1:-1])), dims
            assert len(dims) <= a.dim + 1, dims
        terms = series["full"]
        if not terms[-1].is_zero():
            f = terms.index(terms[-1]) + 1
            k = max(f + 1, 2 * f - 1)
            recurrence = ref._series(a, "full", [Subspace.full(a.dim)], k)
            assert tuple(recurrence[: len(terms)]) == terms
            assert all(t == terms[-1] for t in recurrence[f - 1 :]), [t.dim for t in recurrence]


def test_alpha_stability_on_multiplicative_entries():
    """Reported, and passing, exactly where the twist is multiplicative for every product."""
    for eid, a in catalog_algebras():
        report = analyze(a).alpha_stability
        multiplicative = all(check_multiplicativity(op, a.alpha).passed for op in a.products.values())
        assert report.passed if multiplicative else report is None, eid


def test_series_terms_match_recurrence_past_stabilization():
    rng = random.Random(97)
    inputs = list(catalog_algebras())
    for n in (3, 4):
        inputs.append((f"random-n{n}", random_split_algebra(rng, n)))
        inputs.append((f"graded-n{n}", graded_split_algebra(rng, n)))
    for eid, a in inputs:
        nil = analyze(a)
        # the equality check compares the same terms, up to the longest stable prefix
        length = max(map(len, nil.series.values()))
        count = max(a.dim + 4, length)
        # the first ``count`` terms, each spanned from the products of earlier terms
        expected = {kind: ref._series(a, kind, [Subspace.full(a.dim)], count) for kind in ("right", "left", "full")}
        for kind, terms in expected.items():
            for g in range(1, count + 1):
                assert padded_term(nil.series[kind], g) == terms[g - 1], (eid, kind, g)
        r, l, f = (expected[kind] for kind in ("right", "left", "full"))
        flagged = [
            (ident, (g,))
            for g in range(1, length + 1)
            for ident, x, y in (("right_ne_full", r, f), ("left_ne_full", l, f), ("right_ne_left", r, l))
            if x[g - 1] != y[g - 1]
        ]
        rep = nil.series_equality
        assert [(v.identity_id, v.basis_tuple) for v in rep.violations] == flagged, eid


def test_full_series_runs_past_a_false_repeat():
    """5, 4, 3, 3 repeats a term, but the full series goes on down to zero at index 17."""
    a = graded_split_algebra(random.Random(5), 5)
    nil = analyze(a)
    assert [t.dim for t in nil.series["full"]] == [5, 4, 3, 3, 2, 2, 2, 2] + [1] * 8 + [0]
    assert list(nil.series["full"]) == ref._series(a, "full", [Subspace.full(5)], 17)
    assert nil.verdicts["full"] == (True, 17)


def test_graded_algebras_are_nilpotent():
    """Products land in strictly higher basis indices, so every full series reaches zero; its
    index is the first zero term of the series."""
    for seed in range(25):
        for n in (3, 4, 5, 6):
            nil = analyze(graded_split_algebra(random.Random(seed), n))
            (nilpotent, index), terms = nil.verdicts["full"], nil.series["full"]
            assert nilpotent, (seed, n)
            assert terms[index - 1].is_zero(), (seed, n)
            assert not terms[index - 2].is_zero(), (seed, n)


@pytest.mark.parametrize("kind", ["right", "left", "full"])
def test_series_past_its_proven_length_raises(monkeypatch, kind):
    """A span that is not canonical (its rows scaled by a new factor on every call) never repeats, so
    no series stabilizes; each raises once it passes the length the module doc proves, instead of
    running on.  ``analyze`` builds only the series of ``kind`` here, so each kind is reached."""
    real, factors = nilpotency._span, itertools.count(2)

    def scaled_span(dim, rows):
        c = next(factors)
        return Subspace(dim, tuple(tuple(c * x for x in row) for row in real(dim, rows).rows))

    monkeypatch.setattr(nilpotency, "_span", scaled_span)
    monkeypatch.setattr(nilpotency, "_KINDS", (kind,))
    idempotents = BilinearOp.from_entries(3, [(i, i, i, 1) for i in range(3)])  # S_k = A for every k
    with pytest.raises(InternalError, match=f"the {kind} series .* ran past"):
        analyze(HomAlgebra.mono(idempotents, LinearMap.identity(3)))
