import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from rhizalab.algmodel import BilinearOp, HomAlgebra, LinearMap, sum_product
from rhizalab.axioms import check_hom_anti_associative, check_rhizaform
from rhizalab.errors import DimensionMismatch, NotARotaBaxterOperator
from rhizalab.exactlin import Matrix
from rhizalab.family import (
    FamilyAlgebra,
    RBFamily,
    Semigroup,
    associated_family,
    check_anti_associative_family,
    check_rb_family,
    check_rhizaform_family,
    check_semigroup,
    induced_family_rhizaform,
    tensor_collapse,
)
from rhizalab.operators import check_rota_baxter
from tests.conftest import (
    anti_associative_sums,
    catalog_algebras,
    plain_family_identities_hold,
    random_map,
    random_split_algebra,
    random_tensor,
    rb_grid,
    sum_mono,
    z2_rb_family_fixture,
)
from tests.fraction_checkers import apply, basis_vec, eval_product, vec_add

F = Fraction
Z2 = Semigroup.cyclic(2)
SMALL = (F(-1), F(0), F(1))


def test_semigroup_trivial_and_cyclic():
    assert check_semigroup(Semigroup.trivial()).passed
    assert check_semigroup(Z2).passed
    assert check_semigroup(Semigroup.cyclic(3)).passed


def test_semigroup_rejects_nonassociative_table():
    s = Semigroup.from_rows([[1, 0], [0, 0]])
    rep = check_semigroup(s)
    assert not rep.passed
    assert rep.violations[0].identity_id == "assoc"


def test_semigroup_table_bounds():
    with pytest.raises(DimensionMismatch):
        Semigroup.from_rows([[2, 0], [0, 0]])


def test_trivial_monoid_reduction_matches_plain_checker():
    ids = ("req1", "req2", "req3", "mult_succ", "mult_prec")
    for eid, a in catalog_algebras():
        fam = FamilyAlgebra.from_plain(a)
        frep = check_rhizaform_family(fam)
        prep = check_rhizaform(a)
        for ident in ids:
            assert frep.identity_passed(ident) == prep.identity_passed(ident), (eid, ident)


def test_family_checker_with_identity_twist_equals_plain_family_axioms():
    rng = random.Random(83)
    agree = 0
    for _ in range(40):
        n = 2
        succ = {
            lam: BilinearOp(
                n, [[[rng.choice(SMALL) for _ in range(n)] for _ in range(n)] for _ in range(n)]
            )
            for lam in range(2)
        }
        prec = {
            lam: BilinearOp(
                n, [[[rng.choice(SMALL) for _ in range(n)] for _ in range(n)] for _ in range(n)]
            )
            for lam in range(2)
        }
        fam = FamilyAlgebra(n, Z2, succ, prec, LinearMap.identity(n))
        assert check_rhizaform_family(fam).passed == plain_family_identities_hold(fam)
        agree += 1
    assert agree == 40


def test_zero_family_passes():
    zero = {lam: BilinearOp.zero(2) for lam in range(2)}
    fam = FamilyAlgebra(2, Z2, zero, dict(zero), LinearMap.identity(2))
    assert check_rhizaform_family(fam).passed


def test_associated_family_zero_and_trivial(a_d2_a1):
    zero = {0: BilinearOp.zero(2)}
    fam = FamilyAlgebra(2, Semigroup.trivial(), zero, dict(zero), LinearMap.identity(2))
    assert all(op.is_zero() for op in associated_family(fam).values())

    plain = FamilyAlgebra.from_plain(a_d2_a1)
    assoc = associated_family(plain)
    assert assoc[(0, 0)] == sum_product(a_d2_a1)


def test_associated_family_constant_over_z2(a_d2_a1):
    fam = FamilyAlgebra.from_plain(a_d2_a1, Z2)
    assoc = associated_family(fam)
    values = set(assoc.values())
    assert len(values) == 1


def test_associated_family_of_passing_family_is_anti_associative(a_d2_a1):
    fam = FamilyAlgebra.from_plain(a_d2_a1, Z2)
    assert check_rhizaform_family(fam).passed
    rep = check_anti_associative_family(associated_family(fam), fam.alpha, fam.semigroup)
    assert rep.passed


def test_anti_associative_family_trivial_reduction(a_d2_a1):
    s = sum_mono(a_d2_a1)
    products = {(0, 0): s.mul}
    rep = check_anti_associative_family(products, s.alpha, Semigroup.trivial())
    assert rep.passed == check_hom_anti_associative(s.mul, s.alpha).passed


def test_rb_family_zero_passes(a_d2_a1):
    s = sum_mono(a_d2_a1)
    rf = RBFamily(Z2, {0: Matrix.zero(2, 2), 1: Matrix.zero(2, 2)})
    assert check_rb_family(rf, s).passed


def test_rb_family_trivial_reduction_matches_single_operator(a_d2_a7):
    s = sum_mono(a_d2_a7)
    for op in rb_grid(s)[:6]:
        rf = RBFamily(Semigroup.trivial(), {0: op})
        assert check_rb_family(rf, s).passed == check_rota_baxter(op, s).passed
    bad = Matrix.identity(2)
    rf = RBFamily(Semigroup.trivial(), {0: bad})
    assert check_rb_family(rf, s).passed == check_rota_baxter(bad, s).passed


def test_z2_rb_family_grid_fixture(a_d2_a1):
    s = sum_mono(a_d2_a1)
    fams = z2_rb_family_fixture(s)
    assert len(fams) == 9
    assert sum(1 for rf in fams if not rf.operators[1].is_zero()) >= 1
    for rf in fams:
        # direct re-evaluation of the coupled identity, no checker code
        mul = s.mul
        for lam, om in itertools.product(range(2), repeat=2):
            r_lam, r_om = rf.operators[lam], rf.operators[om]
            r_lo = rf.operators[(lam + om) % 2]
            for i, j in itertools.product(range(2), repeat=2):
                x, y = basis_vec(2, i), basis_vec(2, j)
                lhs = eval_product(mul, apply(r_lam, x), apply(r_om, y))
                rhs = apply(
                    r_lo,
                    vec_add(
                        eval_product(mul, apply(r_lam, x), y),
                        eval_product(mul, x, apply(r_om, y)),
                    ),
                )
                assert lhs == rhs


def test_induced_family_from_zero_is_zero(a_d2_a1):
    s = sum_mono(a_d2_a1)
    rf = RBFamily(Z2, {0: Matrix.zero(2, 2), 1: Matrix.zero(2, 2)})
    fam = induced_family_rhizaform(rf, s)
    assert all(op.is_zero() for op in (*fam.succ.values(), *fam.prec.values()))


def test_induced_family_trivial_matches_plain_induction(a_d2_a7, a_d2_a1):
    """The pair at each index is the plain induction by R_lam: for a one-element family, and for
    every Z/2 family of the grid fixture (an R_lam need not pass the averaging identity alone)."""
    from rhizalab.operators import induced_rhizaform_from_rb

    s = sum_mono(a_d2_a7)
    op = rb_grid(s)[-1]
    cases = [(s, RBFamily(Semigroup.trivial(), {0: op}))]
    s1 = sum_mono(a_d2_a1)
    cases += [(s1, rf) for rf in z2_rb_family_fixture(s1)]
    assert len(cases) > 2
    for alg, rf in cases:
        fam = induced_family_rhizaform(rf, alg)
        for lam, r in rf.operators.items():
            plain = induced_rhizaform_from_rb(r, alg, strict=False)
            assert (fam.succ[lam], fam.prec[lam]) == (plain.succ, plain.prec)


def test_induced_families_pass_family_check(a_d2_a1):
    s = sum_mono(a_d2_a1)
    for rf in z2_rb_family_fixture(s):
        fam = induced_family_rhizaform(rf, s)
        assert check_rhizaform_family(fam).passed


def test_induced_family_strict_mode(a_d2_a1):
    s = sum_mono(a_d2_a1)
    rf = RBFamily(Z2, {0: Matrix.identity(2), 1: Matrix.identity(2)})
    with pytest.raises(NotARotaBaxterOperator):
        induced_family_rhizaform(rf, s)


@pytest.mark.parametrize("dim", [1, 3])
def test_rb_family_over_another_dimension_is_refused(a_d2_a1, dim):
    """Whether or not the induction checks its precondition."""
    s = sum_mono(a_d2_a1)
    rf = RBFamily(Z2, {0: Matrix.identity(dim), 1: Matrix.zero(dim, dim)})
    with pytest.raises(DimensionMismatch):
        check_rb_family(rf, s)
    with pytest.raises(DimensionMismatch):
        tensor_collapse(s, rf)
    for strict in (True, False):
        with pytest.raises(DimensionMismatch):
            induced_family_rhizaform(rf, s, strict=strict)


def test_collapse_trivial_monoid_is_isomorphic_copy(a_d2_a7):
    s = sum_mono(a_d2_a7)
    op = rb_grid(s)[-1]
    rf = RBFamily(Semigroup.trivial(), {0: op})
    big, big_r = tensor_collapse(s, rf)
    assert big.dim == 2
    assert big.mul == s.mul
    assert big.alpha == s.alpha
    assert big_r == op


def test_collapse_zero_family(a_d2_a1):
    s = sum_mono(a_d2_a1)
    rf = RBFamily(Z2, {0: Matrix.zero(2, 2), 1: Matrix.zero(2, 2)})
    big, big_r = tensor_collapse(s, rf)
    assert big.dim == 4
    assert big_r.is_zero()
    assert check_rota_baxter(big_r, big).passed


def test_collapse_of_passing_families_passes_rb(a_d2_a1):
    s = sum_mono(a_d2_a1)
    for rf in z2_rb_family_fixture(s):
        big, big_r = tensor_collapse(s, rf)
        assert big.dim == 4
        assert check_rota_baxter(big_r, big).passed


def test_collapse_product_layout(a_d2_a1):
    """(e_i ; lam) lives at index i*size + lam and labels multiply mod 2."""
    s = sum_mono(a_d2_a1)
    rf = RBFamily(Z2, {0: Matrix.zero(2, 2), 1: Matrix.zero(2, 2)})
    big, _ = tensor_collapse(s, rf)
    # e2*e2 = 2e1 in the base; (e2;1)*(e2;1) -> 2(e1;0)
    out = big.mul.entry(1 * 2 + 1, 1 * 2 + 1)
    expected = [F(0)] * 4
    expected[0 * 2 + 0] = F(2)
    assert out == tuple(expected)


def test_anti_associative_family_zero_products():
    zero = {(lam, om): BilinearOp.zero(2) for lam in range(2) for om in range(2)}
    assert check_anti_associative_family(zero, LinearMap.identity(2), Z2).passed


# --- differential: each plain report is the one-element family report -------


def _mono_inputs():
    """The anti-associative catalog sums plus seeded random n=3, 4 mono algebras (mostly failing)."""
    rng = random.Random(2024)
    out = list(anti_associative_sums())
    for n in (3, 4):
        for idx in range(3):
            out.append((f"random-n{n}-{idx}", HomAlgebra.mono(random_tensor(rng, n), random_map(rng, n))))
    return out


def _split_inputs():
    rng = random.Random(2025)
    out = list(catalog_algebras())
    for n in (3, 4):
        for idx in range(3):
            out.append((f"random-n{n}-{idx}", random_split_algebra(rng, n)))
    return out


def _entries(report, prefix_len):
    """(identity, basis tuple without its semigroup prefix, residual) per violation, in report order."""
    return [
        (v.identity_id, v.basis_tuple[prefix_len(v.identity_id):], v.residual)
        for v in report.violations
    ]


def test_rota_baxter_report_equals_one_element_family_report():
    rng = random.Random(31)
    failing = 0
    for eid, s in _mono_inputs():
        n = s.dim
        ops = [Matrix.zero(n, n), Matrix.identity(n)] + [
            Matrix.from_rows([[rng.choice(SMALL) for _ in range(n)] for _ in range(n)])
            for _ in range(3)
        ]
        for op in ops:
            plain = check_rota_baxter(op, s)
            fam = check_rb_family(RBFamily(Semigroup.trivial(), {0: op}), s)
            assert fam.passed == plain.passed
            prefix = lambda ident: 1 if ident == "equivariance" else 2  # noqa: E731
            assert all(set(v.basis_tuple[: prefix(v.identity_id)]) == {0} for v in fam.violations)
            stripped = _entries(fam, prefix)
            assert stripped == _entries(plain, lambda ident: 0), (eid, op)
            failing += not plain.passed
    assert failing > 20


def test_anti_associative_report_equals_one_element_family_report():
    failing = 0
    for eid, s in _mono_inputs():
        plain = check_hom_anti_associative(s.mul, s.alpha)
        fam = check_anti_associative_family({(0, 0): s.mul}, s.alpha, Semigroup.trivial())
        assert _entries(fam, lambda ident: 3) == _entries(plain, lambda ident: 0), eid
        failing += not plain.passed
    assert failing >= 6


def test_rhizaform_report_equals_one_element_family_report_as_multiset():
    failing = 0
    for eid, a in _split_inputs():
        plain = check_rhizaform(a)
        fam = check_rhizaform_family(FamilyAlgebra.from_plain(a))
        prefix = lambda ident: 2 if ident.startswith("req") else 1  # noqa: E731
        assert Counter(_entries(fam, prefix)) == Counter(_entries(plain, lambda ident: 0)), eid
        failing += not plain.passed
    assert failing >= 6
