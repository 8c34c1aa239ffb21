import random
from fractions import Fraction

import pytest

from rhizalab import oracle
from rhizalab.algmodel import BilinearOp, HomAlgebra, LinearMap, sum_product
from rhizalab.axioms import check_hom_anti_associative, check_rhizaform
from rhizalab.errors import DimensionMismatch, NotAnOOperator, NotARotaBaxterOperator, Singular
from rhizalab.exactlin import Matrix
from rhizalab.operators import (
    Bimodule,
    LinearOperator,
    check_bimodule,
    check_homomorphism,
    check_o_operator,
    check_rota_baxter,
    compatible_from_invertible_o_operator,
    dual_bimodule,
    induced_rhizaform_from_o_operator,
    induced_rhizaform_from_rb,
    regular_bimodule,
    rhizaform_bimodule,
    rhizaform_equivalence_verdict,
)
from tests.conftest import (
    anti_associative_sums,
    catalog_sums,
    random_map,
    random_split_algebra,
    random_tensor,
    rb_grid,
    rhizaform_passing_entries,
    sum_mono,
)
from tests.fraction_checkers import apply, basis_vec, scaled

F = Fraction


def zero_bimodule(n: int, m: int) -> Bimodule:
    return Bimodule(
        n, m,
        tuple(Matrix.zero(m, m) for _ in range(n)),
        tuple(Matrix.zero(m, m) for _ in range(n)),
        LinearMap.identity(m),
    )


def test_zero_actions_form_bimodule():
    a = HomAlgebra.mono(BilinearOp.from_entries(2, [(0, 0, 1, F(1))]), LinearMap.identity(2))
    assert check_bimodule(a, zero_bimodule(2, 3)).passed


def test_regular_bimodule_of_d2_a1_sum(a_d2_a1):
    s = sum_mono(a_d2_a1)
    reg = regular_bimodule(s)
    # left action of e2 sends e2 to 2 e1
    assert apply(reg.left[1], basis_vec(2, 1)) == (F(2), F(0))
    assert check_bimodule(s, reg).passed


def test_regular_bimodule_of_d2_a7_sum(a_d2_a7):
    s = sum_mono(a_d2_a7)
    reg = regular_bimodule(s)
    assert apply(reg.left[0], basis_vec(2, 0)) == (F(0), F(2))


def test_regular_bimodule_zero_product():
    a = HomAlgebra.mono(BilinearOp.zero(2), LinearMap.identity(2))
    reg = regular_bimodule(a)
    assert all(m.is_zero() for m in reg.left + reg.right)


def test_self_action_of_associative_unit_fails():
    a = HomAlgebra.mono(BilinearOp.from_entries(2, [(0, 0, 0, F(1))]), LinearMap.identity(2))
    rep = check_bimodule(a, regular_bimodule(a))
    assert not rep.passed
    assert "bm1" in rep.failed_ids()


def test_rhizaform_bimodule_actions(a_d2_a1):
    m = rhizaform_bimodule(a_d2_a1)
    assert apply(m.left[1], basis_vec(2, 1)) == (F(1), F(0))
    assert apply(m.right[1], basis_vec(2, 1)) == (F(1), F(0))


def test_split_check_equals_bimodule_route_on_randoms():
    rng = random.Random(41)
    for _ in range(120):
        a = random_split_algebra(rng, 2)
        split_ok, route_ok = rhizaform_equivalence_verdict(a)
        assert split_ok == route_ok


def test_bimodule_checker_agrees_with_oracle_on_randoms():
    rng = random.Random(43)
    for _ in range(40):
        a = random_split_algebra(rng, 2)
        s = sum_mono(a)
        m = rhizaform_bimodule(a)
        assert check_bimodule(s, m).passed == oracle.bimodule(
            s.mul, s.alpha, m.left, m.right, m.beta
        )


def test_dual_of_zero_bimodule_is_zero():
    d = dual_bimodule(zero_bimodule(2, 2))
    assert all(m.is_zero() for m in d.left + d.right)


def test_double_dual_is_identity_everywhere():
    for eid, s in catalog_sums():
        reg = regular_bimodule(s)
        assert dual_bimodule(dual_bimodule(reg)) == reg, eid


def test_dual_closure_with_invertible_twist(a_d2_a1, a_d2_a7):
    for a in (a_d2_a1, a_d2_a7):
        s = sum_mono(a)
        reg = regular_bimodule(s)
        assert check_bimodule(s, reg).passed
        assert check_bimodule(s, dual_bimodule(reg)).passed


def test_dual_closure_counterexample_with_nilpotent_twist():
    """Dual closure needs alpha^2 = id besides multiplicativity: d2.A2's sum
    is multiplicative and its regular module passes, but its twist map is
    nilpotent and the dual fails the transposed twist identity."""
    from rhizalab.catalog import load_entry

    s = sum_mono(load_entry("d2.A2"))
    reg = regular_bimodule(s)
    assert check_bimodule(s, reg).passed
    dual_rep = check_bimodule(s, dual_bimodule(reg))
    assert not dual_rep.passed
    assert "bm4" in dual_rep.failed_ids()


def test_o_operator_zero_passes(a_d2_a1):
    s = sum_mono(a_d2_a1)
    m = rhizaform_bimodule(a_d2_a1)
    assert check_o_operator(LinearOperator.zero(2, 2), s, m).passed


def test_o_operator_rejects_bimodule_over_other_dimension(a_d2_a1):
    """Actions of a 1- or 3-dim algebra cannot act through a 2-dim algebra's operator images,
    whether or not the inductions check their preconditions."""
    s = sum_mono(a_d2_a1)
    t = LinearOperator.identity(2)
    for alg_dim in (1, 3):
        m = Bimodule(alg_dim, 2, (Matrix.identity(2),) * alg_dim, (Matrix.zero(2, 2),) * alg_dim, LinearMap.identity(2))
        with pytest.raises(DimensionMismatch):
            check_o_operator(t, s, m)
        for induce in (induced_rhizaform_from_o_operator, compatible_from_invertible_o_operator):
            with pytest.raises(DimensionMismatch):
                induce(t, s, m, strict=False)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 1), (3, 3)])
def test_rb_rejects_operator_of_another_shape(a_d2_a1, shape):
    """An operator that does not act on the 2-dim algebra is refused by the checker and by the
    induction, whether or not the induction checks its precondition."""
    s = sum_mono(a_d2_a1)
    rows, cols = shape
    r = LinearOperator.from_rows([[F(int(i == j)) for j in range(cols)] for i in range(rows)])
    with pytest.raises(DimensionMismatch):
        check_rota_baxter(r, s)
    for strict in (True, False):
        with pytest.raises(DimensionMismatch):
            induced_rhizaform_from_rb(r, s, strict=strict)


def test_identity_is_o_operator_on_split_actions():
    for eid, a in rhizaform_passing_entries():
        s = sum_mono(a)
        m = rhizaform_bimodule(a)
        assert check_o_operator(LinearOperator.identity(a.dim), s, m).passed, eid


def test_identity_fails_on_regular_actions(a_d2_a1):
    s = sum_mono(a_d2_a1)
    rep = check_o_operator(LinearOperator.identity(2), s, regular_bimodule(s))
    assert not rep.passed
    bad = [v for v in rep.violations if v.identity_id == "o_identity"]
    assert bad and bad[0].basis_tuple == (2, 2)
    assert bad[0].residual == (F(-2), F(0))  # -(e2 * e2)


def test_rota_baxter_zero_passes(a_d2_a1):
    assert check_rota_baxter(LinearOperator.zero(2, 2), sum_mono(a_d2_a1)).passed


def test_rota_baxter_identity_fails_on_nonzero_product(a_d2_a1):
    rep = check_rota_baxter(LinearOperator.identity(2), sum_mono(a_d2_a1))
    assert not rep.passed


def test_rota_baxter_grid_on_d2_a7(a_d2_a7):
    """Frozen shape of the searched solutions: no e1-component in the image
    of e2, and the e1-coefficient is 0 or twice the e2-diagonal."""
    s = sum_mono(a_d2_a7)
    found = rb_grid(s)
    assert len(found) == 35
    for op in found:
        m = op.matrix
        assert m.at(0, 1) == 0
        assert m.at(0, 0) == 0 or m.at(0, 0) == 2 * m.at(1, 1)
        assert check_rota_baxter(op, s).passed == oracle.rota_baxter(m, s.mul, s.alpha)


def test_rb_equals_o_operator_on_regular_actions():
    rng = random.Random(47)
    vals = [F(-1), F(0), F(1)]
    for _ in range(60):
        a = HomAlgebra.mono(random_tensor(rng, 2), random_map(rng, 2))
        reg = regular_bimodule(a)
        op = LinearOperator.from_rows(
            [[rng.choice(vals), rng.choice(vals)], [rng.choice(vals), rng.choice(vals)]]
        )
        assert check_rota_baxter(op, a).passed == check_o_operator(op, a, reg).passed


def test_induced_from_zero_operator(a_d2_a1):
    s = sum_mono(a_d2_a1)
    ind = induced_rhizaform_from_rb(LinearOperator.zero(2, 2), s)
    assert ind.succ.is_zero() and ind.prec.is_zero()


def test_induction_chain_from_grid():
    for eid, s in anti_associative_sums():
        if s.dim != 2:
            continue
        for op in rb_grid(s):
            ind = induced_rhizaform_from_rb(op, s)
            assert check_rhizaform(ind).passed, eid
            assert check_homomorphism(op, sum_mono(ind), s).passed, eid


def test_rb_scaling_scales_induced_products(a_d2_a7):
    s = sum_mono(a_d2_a7)
    op = rb_grid(s)[-1]
    doubled = LinearOperator.from_rows(
        [[2 * op.matrix.at(i, j) for j in range(2)] for i in range(2)]
    )
    if check_rota_baxter(doubled, s).passed:
        a1 = induced_rhizaform_from_rb(op, s)
        a2 = induced_rhizaform_from_rb(doubled, s)
        assert a2.succ == scaled(a1.succ, F(2))
        assert a2.prec == scaled(a1.prec, F(2))


def test_induced_strict_mode_raises(a_d2_a1):
    s = sum_mono(a_d2_a1)
    with pytest.raises(NotARotaBaxterOperator):
        induced_rhizaform_from_rb(LinearOperator.identity(2), s)
    with pytest.raises(NotAnOOperator):
        induced_rhizaform_from_o_operator(
            LinearOperator.identity(2), s, regular_bimodule(s)
        )


def test_identity_o_operator_reproduces_split(a_d2_a1):
    s = sum_mono(a_d2_a1)
    m = rhizaform_bimodule(a_d2_a1)
    ind = induced_rhizaform_from_o_operator(LinearOperator.identity(2), s, m)
    assert ind.succ == a_d2_a1.succ
    assert ind.prec == a_d2_a1.prec


def test_o_operator_induction_on_module_of_different_dimension(a_d2_a7):
    """Zero operator from a 3-dim module still produces a passing algebra."""
    s = sum_mono(a_d2_a7)
    m = zero_bimodule(2, 3)
    t = LinearOperator.zero(3, 2)
    assert check_o_operator(t, s, m).passed
    ind = induced_rhizaform_from_o_operator(t, s, m)
    assert ind.dim == 3
    assert check_rhizaform(ind).passed


def test_homomorphism_identity_and_zero(a_d2_a1):
    assert check_homomorphism(LinearOperator.identity(2), a_d2_a1, a_d2_a1).passed
    assert check_homomorphism(LinearOperator.zero(2, 2), a_d2_a1, a_d2_a1).passed


def test_homomorphism_flags_noncompatible_map(a_d2_a1):
    s = sum_mono(a_d2_a1)
    doubler = LinearOperator.from_rows([[2, 0], [0, 2]])
    rep = check_homomorphism(doubler, s, s)
    assert not rep.passed
    assert "product_mul" in rep.failed_ids()


def test_compatible_from_identity_operator(a_d2_a1):
    s = sum_mono(a_d2_a1)
    m = rhizaform_bimodule(a_d2_a1)
    out = compatible_from_invertible_o_operator(LinearOperator.identity(2), s, m)
    assert out.succ == a_d2_a1.succ
    assert out.prec == a_d2_a1.prec


def test_compatible_requires_invertible(a_d2_a1):
    s = sum_mono(a_d2_a1)
    m = rhizaform_bimodule(a_d2_a1)
    with pytest.raises(Singular):
        compatible_from_invertible_o_operator(LinearOperator.zero(2, 2), s, m)


def test_compatible_sum_recovers_product():
    for eid, a in rhizaform_passing_entries():
        s = sum_mono(a)
        m = rhizaform_bimodule(a)
        out = compatible_from_invertible_o_operator(LinearOperator.identity(a.dim), s, m)
        assert check_rhizaform(out).passed, eid
        assert sum_product(out) == s.mul, eid


def test_bimodule_swapped_mixed_identity_matches_printed_one():
    """Over all basis pairs the two printed placements coincide."""
    rng = random.Random(53)
    for _ in range(30):
        a = random_split_algebra(rng, 2)
        s = sum_mono(a)
        rep = check_bimodule(s, rhizaform_bimodule(a))
        assert rep.identity_passed("bm3") == rep.identity_passed("bm3_swapped")


def test_rhizaform_bimodule_zero_products():
    zero = HomAlgebra.rhizaform(BilinearOp.zero(2), BilinearOp.zero(2), LinearMap.identity(2))
    m = rhizaform_bimodule(zero)
    assert all(mat.is_zero() for mat in m.left + m.right)
