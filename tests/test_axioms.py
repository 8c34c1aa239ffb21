import random
from fractions import Fraction

import pytest

from rhizalab import oracle
from rhizalab.algmodel import BilinearOp, HomAlgebra, LinearMap, sum_product
from rhizalab.axioms import (
    check_alpha_derivation,
    check_dendriform,
    check_hom_anti_associative,
    check_jacobi_jordan,
    check_multiplicativity,
    check_pre_jacobi_jordan,
    check_rhizaform,
    inner_derivation,
    pre_jacobi_jordan_product,
    subadjacent_bracket,
)
from rhizalab.exactlin import Matrix
from tests.conftest import (
    catalog_algebras,
    random_map,
    random_split_algebra,
    random_tensor,
    rhizaform_passing_entries,
    triple_product_rhizaform,
)
from tests.fraction_checkers import apply, basis_vec, eval_product, vec_sub

F = Fraction


def mono_e1_squared():
    """e1*e1 = e1 with identity twist: associative, not anti-associative."""
    return BilinearOp.from_entries(2, [(0, 0, 0, F(1))]), LinearMap.identity(2)


def test_anti_associative_zero_product():
    assert check_hom_anti_associative(BilinearOp.zero(2), LinearMap.identity(2)).passed


def test_anti_associative_catalog_sum(a_d2_a1):
    assert check_hom_anti_associative(sum_product(a_d2_a1), a_d2_a1.alpha).passed


def test_anti_associative_rejects_associative_unit():
    mul, alpha = mono_e1_squared()
    rep = check_hom_anti_associative(mul, alpha)
    assert not rep.passed
    v = rep.violations[0]
    assert v.identity_id == "anti_assoc"
    assert v.basis_tuple == (1, 1, 1)
    assert v.residual == (F(2), F(0))


def test_multiplicativity_catalog(a_d2_a1):
    assert check_multiplicativity(a_d2_a1.succ, a_d2_a1.alpha).passed


def test_multiplicativity_identity_twist():
    rng = random.Random(3)
    op = random_tensor(rng, 3)
    assert check_multiplicativity(op, LinearMap.identity(3)).passed


def test_multiplicativity_fails_on_tagged_entry():
    from rhizalab.catalog import load_entry

    a = load_entry("d2.A5")
    assert not check_multiplicativity(a.succ, a.alpha).passed


def test_rhizaform_passes_catalog(a_d2_a7):
    rep = check_rhizaform(a_d2_a7)
    assert rep.passed
    assert rep.violations == ()


def test_rhizaform_zero_products():
    a = HomAlgebra.rhizaform(BilinearOp.zero(2), BilinearOp.zero(2), LinearMap.identity(2))
    assert check_rhizaform(a).passed


def test_rhizaform_identity_ids_match_oracle_on_mixed_case(a_d2_a7):
    a = HomAlgebra.rhizaform(a_d2_a7.succ, BilinearOp.zero(2), LinearMap.identity(2))
    rep = check_rhizaform(a)
    expected = oracle.rhizaform_identities(a)
    for ident, ok in expected.items():
        assert rep.identity_passed(ident) == ok


def test_dendriform_zero_products():
    a = HomAlgebra.rhizaform(BilinearOp.zero(2), BilinearOp.zero(2), LinearMap.identity(2))
    assert check_dendriform(a).passed


def test_dendriform_passes_when_triples_vanish(a_d2_a7):
    assert check_dendriform(a_d2_a7).passed


def test_sign_split_discriminates_on_nonzero_triple_product():
    a = triple_product_rhizaform()
    assert check_rhizaform(a).passed
    den = check_dendriform(a)
    assert not den.passed
    assert "den1" in den.failed_ids()


def test_jacobi_jordan_zero():
    assert check_jacobi_jordan(BilinearOp.zero(2), LinearMap.identity(2)).passed


def test_jacobi_jordan_bracket_of_catalog(a_d2_a1):
    assert check_jacobi_jordan(subadjacent_bracket(a_d2_a1), a_d2_a1.alpha).passed


def test_jacobi_jordan_flags_noncommutative():
    mul = BilinearOp.from_entries(2, [(0, 1, 0, F(1))])
    rep = check_jacobi_jordan(mul, LinearMap.identity(2))
    assert not rep.passed
    assert rep.violations[0].identity_id == "comm"
    assert rep.violations[0].basis_tuple == (1, 2)


def test_pre_jacobi_jordan_zero():
    assert check_pre_jacobi_jordan(BilinearOp.zero(3), LinearMap.identity(3)).passed


def test_pre_jacobi_jordan_product_of_catalog(a_d2_a1):
    assert check_pre_jacobi_jordan(pre_jacobi_jordan_product(a_d2_a1), a_d2_a1.alpha).passed


def test_pre_jacobi_jordan_rejects_associative_unit():
    mul, alpha = mono_e1_squared()
    rep = check_pre_jacobi_jordan(mul, alpha)
    assert not rep.passed
    v = rep.violations[0]
    assert v.basis_tuple == (1, 1, 1)
    assert v.residual == (F(4), F(0))


def test_pjj_product_d2_a1_vanishes(a_d2_a1):
    assert pre_jacobi_jordan_product(a_d2_a1).is_zero()


def test_pjj_product_prec_zero_gives_succ():
    rng = random.Random(9)
    succ = random_tensor(rng, 3)
    a = HomAlgebra.rhizaform(succ, BilinearOp.zero(3), LinearMap.identity(3))
    assert pre_jacobi_jordan_product(a) == succ


def test_pjj_product_d2_a4_from_tables():
    # x o y = x succ y - y prec x, straight from the stored constants
    from rhizalab.catalog import load_entry

    a = load_entry("d2.A4")
    op = pre_jacobi_jordan_product(a)
    assert op.entry(1, 1) == (F(0), F(0))  # e2 o e2: e1 - e1
    assert op.entry(0, 1) == (F(0), F(0))  # e1 o e2: e1 - e1
    # e2 o e1 = e2 succ e1 - e1 prec e2 = e1 - 0
    assert op.entry(1, 0) == (F(1), F(0))


def test_bracket_d2_a1(a_d2_a1):
    br = subadjacent_bracket(a_d2_a1)
    assert br.entry(1, 1) == (F(4), F(0))


def test_bracket_zero_products():
    a = HomAlgebra.rhizaform(BilinearOp.zero(2), BilinearOp.zero(2), LinearMap.identity(2))
    assert subadjacent_bracket(a).is_zero()


def test_bracket_is_symmetric_randomized():
    rng = random.Random(29)
    for _ in range(20):
        a = random_split_algebra(rng, rng.choice([2, 3]))
        br = subadjacent_bracket(a)
        for i in range(a.dim):
            for j in range(a.dim):
                assert br.entry(i, j) == br.entry(j, i)


def test_derived_product_chain_on_passing_entries():
    """Sum anti-associative, circle product pre-twisted-Jacobi, bracket twisted-Jacobi."""
    entries = rhizaform_passing_entries()
    assert entries, "no split-passing entries loaded"
    for eid, a in entries:
        assert check_hom_anti_associative(sum_product(a), a.alpha).passed, eid
        assert check_pre_jacobi_jordan(pre_jacobi_jordan_product(a), a.alpha).passed, eid
        assert check_jacobi_jordan(subadjacent_bracket(a), a.alpha).passed, eid


def test_zero_map_is_derivation(a_d2_a1):
    d = LinearMap(2, Matrix.zero(2, 2))
    assert check_alpha_derivation(d, a_d2_a1, "succ").passed


def test_inner_derivation_star_zero_vector(a_d2_a1):
    d = inner_derivation((F(0), F(0)), a_d2_a1, "star")
    assert d.matrix.is_zero()


def test_inner_derivation_star_on_commutative():
    mul = BilinearOp.from_entries(2, [(0, 0, 1, F(1)), (0, 1, 0, F(1)), (1, 0, 0, F(1))])
    a = HomAlgebra.mono(mul, LinearMap.identity(2))
    d = inner_derivation(basis_vec(2, 1), a, "star")
    assert d.matrix.is_zero()


def test_inner_derivation_mixed_matches_direct_evaluation():
    for eid, a in catalog_algebras():
        z = basis_vec(a.dim, a.dim - 1)
        d = inner_derivation(z, a, "mixed")
        for i in range(a.dim):
            x = basis_vec(a.dim, i)
            direct = vec_sub(eval_product(a.prec, z, x), eval_product(a.succ, x, z))
            assert apply(d, x) == direct, eid


def test_inner_derivation_unknown_convention(a_d2_a1):
    with pytest.raises(ValueError):
        inner_derivation(basis_vec(2, 0), a_d2_a1, "sideways")


def test_twist_map_is_not_a_derivation_on_d2_a1(a_d2_a1):
    rep = check_alpha_derivation(a_d2_a1.alpha, a_d2_a1, "succ")
    assert not rep.passed


def test_derivation_status_reported_per_convention():
    """Both printed conventions are evaluated; the reports just record reality."""
    for eid, a in rhizaform_passing_entries():
        for convention in ("star", "mixed"):
            for idx in range(a.dim):
                d = inner_derivation(basis_vec(a.dim, idx), a, convention)
                for name in ("succ", "prec"):
                    rep = check_alpha_derivation(d, a, name)
                    assert rep.passed == oracle.alpha_derivation(d, a, name), (
                        eid,
                        convention,
                        name,
                    )


def test_checkers_agree_with_oracle_on_randoms():
    rng = random.Random(101)
    for trial in range(100):
        n = 2 + (trial % 2)
        a = random_split_algebra(rng, n)
        rep = check_rhizaform(a)
        for ident, ok in oracle.rhizaform_identities(a).items():
            assert rep.identity_passed(ident) == ok
        den = check_dendriform(a)
        for ident, ok in oracle.dendriform_identities(a).items():
            assert den.identity_passed(ident) == ok
        s = sum_product(a)
        assert check_hom_anti_associative(s, a.alpha).passed == oracle.anti_associative(s, a.alpha)
        assert check_jacobi_jordan(s, a.alpha).passed == oracle.jacobi_jordan(s, a.alpha)
        assert check_pre_jacobi_jordan(s, a.alpha).passed == oracle.pre_jacobi_jordan(s, a.alpha)


def test_report_serialization_is_stable(a_d2_a1):
    rep = check_rhizaform(a_d2_a1)
    assert "".join(rep.chunks()) == "".join(rep.chunks())
    obj = rep.to_obj()
    assert list(obj) == ["structure", "passed", "violations"]
