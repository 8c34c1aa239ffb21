"""The integer residual engine against the Fraction checkers it replaced.

Every checker must give ``==`` reports (the same violations, in the same
order, with the same residuals) as the reference in ``fraction_checkers``.
Integral data cannot expose a wrong denominator scale, so besides the catalog
the inputs are seeded random structures whose tensors, twists, actions and
operators have denominators in {2, 3, 5, 7}, and catalog entries conjugated
by a fractional change of basis (they pass the same identities, so a term
left at the wrong scale shows up as a violation).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rhizalab import nilpotency
from rhizalab.algmodel import BilinearOp, HomAlgebra, LinearMap, star_product, sum_product
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
from rhizalab.cocycles import (
    ScalarForm,
    VectorForm,
    scalar_cocycle_residuals,
    scalar_cocycle_space,
    vector_cocycle_residuals,
    vector_cocycle_space,
)
from rhizalab.errors import Singular
from rhizalab.exactlin import Matrix, invert
from rhizalab.family import (
    FamilyAlgebra,
    RBFamily,
    Semigroup,
    associated_family,
    check_anti_associative_family,
    check_rb_family,
    check_rhizaform_family,
)
from rhizalab.nilpotency import Subspace, check_2_nilpotent
from rhizalab.operators import (
    Bimodule,
    LinearOperator,
    check_bimodule,
    check_homomorphism,
    check_o_operator,
    check_rota_baxter,
    regular_bimodule,
    rhizaform_bimodule,
)
from tests import fraction_checkers as ref
from tests.conftest import (
    block_sum,
    catalog_algebras,
    conjugate,
    graded_split_algebra,
    random_split_algebra,
    sparse_edge_algebras,
    sum_mono,
)

F = Fraction
VALUES = [F(p, q) for q in (1, 2, 3, 5, 7) for p in range(-3, 4) if p]


def _entry(rng, density):
    return rng.choice(VALUES) if rng.random() < density else F(0)


def _matrix(rng, rows, cols, density=0.6) -> Matrix:
    return Matrix(rows, cols, [_entry(rng, density) for _ in range(rows * cols)])


def _tensor(rng, n, density=0.4) -> BilinearOp:
    return BilinearOp(n, [[[_entry(rng, density) for _ in range(n)] for _ in range(n)] for _ in range(n)])


def _invertible(rng, n) -> Matrix:
    while True:
        m = _matrix(rng, n, n, 0.7)
        try:
            invert(m)
            return m
        except Singular:
            continue


def _random_split(seed: int, n: int) -> HomAlgebra:
    rng = random.Random(seed)
    twist = LinearMap(n, _matrix(rng, n, n))
    return HomAlgebra.rhizaform(_tensor(rng, n), _tensor(rng, n), twist)


def _fractional_catalog():
    rng = random.Random(81)
    return [(f"{eid}^P", conjugate(a, _invertible(rng, a.dim))) for eid, a in catalog_algebras()]


def _split_inputs():
    out = catalog_algebras() + catalog_algebras({"eta": F(-3, 2)}) + _fractional_catalog()
    out += [(f"random{seed}", _random_split(seed, 3 + seed % 3)) for seed in range(6)]
    return out + sparse_edge_algebras()


SPLIT_INPUTS = _split_inputs()


def test_split_and_twist_checkers_match_fraction_reference():
    for label, a in SPLIT_INPUTS:
        assert check_rhizaform(a) == ref.rhizaform(a), label
        assert check_dendriform(a) == ref.dendriform(a), label
        assert check_2_nilpotent(a) == ref.two_nilpotent(a), label
        for name in ("succ", "prec"):
            op = a.product(name)
            assert check_multiplicativity(op, a.alpha, name) == ref.multiplicativity(op, a.alpha, name), label


def test_mono_checkers_match_fraction_reference():
    for label, a in SPLIT_INPUTS:
        for mul in (star_product(a), pre_jacobi_jordan_product(a), subadjacent_bracket(a)):
            assert check_hom_anti_associative(mul, a.alpha) == ref.hom_anti_associative(mul, a.alpha), label
            assert check_jacobi_jordan(mul, a.alpha) == ref.jacobi_jordan(mul, a.alpha), label
            assert check_pre_jacobi_jordan(mul, a.alpha) == ref.pre_jacobi_jordan(mul, a.alpha), label
        mono = sum_mono(a)
        assert check_2_nilpotent(mono) == ref.two_nilpotent(mono), label


def test_derivation_checker_matches_fraction_reference():
    rng = random.Random(5)
    for label, a in SPLIT_INPUTS:
        z = tuple(_entry(rng, 0.7) for _ in range(a.dim))
        for d in (inner_derivation(z, a), LinearMap(a.dim, _matrix(rng, a.dim, a.dim))):
            for name in ("succ", "prec"):
                assert check_alpha_derivation(d, a, name) == ref.alpha_derivation(d, a, name), label


def _random_bimodule(rng, n, m) -> Bimodule:
    left = tuple(_matrix(rng, m, m, 0.5) for _ in range(n))
    right = tuple(_matrix(rng, m, m, 0.5) for _ in range(n))
    return Bimodule(n, m, left, right, LinearMap(m, _matrix(rng, m, m)))


def test_bimodule_checker_matches_fraction_reference():
    rng = random.Random(11)
    for label, a in SPLIT_INPUTS:
        mono = sum_mono(a)
        modules = [rhizaform_bimodule(a), regular_bimodule(mono)]
        if label.startswith("random") or label.endswith("^P"):
            modules.append(_random_bimodule(rng, a.dim, rng.randint(2, 4)))
        for m in modules:
            assert check_bimodule(mono, m) == ref.bimodule(mono, m), label


def test_operator_checkers_match_fraction_reference():
    rng = random.Random(13)
    for label, a in SPLIT_INPUTS:
        mono = sum_mono(a)
        n = a.dim
        r = LinearOperator(n, n, _matrix(rng, n, n))
        assert check_rota_baxter(r, mono) == ref.rota_baxter(r, mono), label
        zero = LinearOperator.zero(n, n)
        assert check_rota_baxter(zero, mono) == ref.rota_baxter(zero, mono), label
        m = _random_bimodule(rng, n, rng.randint(2, 4))
        for mod in (m, rhizaform_bimodule(a)):
            t = LinearOperator(mod.mod_dim, n, _matrix(rng, n, mod.mod_dim))
            assert check_o_operator(t, mono, mod) == ref.o_operator(t, mono, mod), label
        ident, regular = LinearOperator.identity(n), regular_bimodule(mono)
        assert check_o_operator(ident, mono, regular) == ref.o_operator(ident, mono, regular), label
        target = _random_split(rng.randrange(1000), rng.randint(2, 4))
        f = LinearOperator(n, target.dim, _matrix(rng, target.dim, n))
        assert check_homomorphism(f, a, target) == ref.homomorphism(f, a, target), label
        assert check_homomorphism(ident, a, a) == ref.homomorphism(ident, a, a), label


def _random_family(seed: int, n: int, size: int, semigroup: Semigroup | None = None) -> FamilyAlgebra:
    rng = random.Random(seed)
    if semigroup is None:
        semigroup = Semigroup.cyclic(size) if seed % 2 else Semigroup.from_rows([[0] * size] * size)
    return FamilyAlgebra(
        n,
        semigroup,
        {lam: _tensor(rng, n) for lam in range(size)},
        {lam: _tensor(rng, n) for lam in range(size)},
        LinearMap(n, _matrix(rng, n, n)),
    )


# Z/n and the constant-0 table are commutative; a left-zero table (lam.omega = lam) is not, so a check
# that reads lam.omega as omega.lam disagrees with the reference on it.
FAMILIES = (
    [_random_family(seed, 3 + seed % 2, 2 + seed % 2) for seed in range(4)]
    + [FamilyAlgebra.from_plain(a, Semigroup.cyclic(2)) for label, a in SPLIT_INPUTS if label.endswith("^P")][:8]
    + [_random_family(4 + size, 3, size, Semigroup.from_rows([[lam] * size for lam in range(size)])) for size in (2, 3)]
)


@pytest.mark.parametrize("index", range(len(FAMILIES)))
def test_family_checkers_match_fraction_reference(index):
    f = FAMILIES[index]
    assert check_rhizaform_family(f) == ref.rhizaform_family(f), index
    products = associated_family(f)
    got = check_anti_associative_family(products, f.alpha, f.semigroup)
    assert got == ref.anti_associative_family(products, f.alpha, f.semigroup), index
    rng = random.Random(index)
    a = HomAlgebra.mono(sum_product(f.plain()), f.alpha)
    operators = {lam: LinearOperator(f.dim, f.dim, _matrix(rng, f.dim, f.dim)) for lam in range(f.semigroup.size)}
    rf = RBFamily(f.semigroup, operators)
    assert check_rb_family(rf, a) == ref.rb_family(rf, a), index


def test_diamond_matches_fraction_reference():
    rng = random.Random(17)
    for label, a in SPLIT_INPUTS:
        n = a.dim
        subspaces = [Subspace.full(n), Subspace.from_vectors(n, [_matrix(rng, 1, n).row(0) for _ in range(2)])]
        for m in subspaces:
            for k in subspaces:
                assert nilpotency.diamond(m, k, a) == ref.diamond(m, k, a), label


def _analysis_inputs():
    """The split inputs; the summed mono algebra of every catalog entry at both values of eta, and
    every entry at four more; graded algebras of n = 3-5, whose series descend through several terms;
    seeded dense, graded and direct-sum algebras of n = 3-6; a graded mono algebra, which is its own
    reduct; and a split algebra whose reducts are nilpotent while it is not."""
    yield from SPLIT_INPUTS
    for eid, a in catalog_algebras() + catalog_algebras({"eta": F(-3, 2)}):
        yield f"{eid}+", sum_mono(a)
    for eta in (F(1), F(0), F(-1, 3), F(2)):
        for eid, a in catalog_algebras({"eta": eta}):
            yield f"{eid}@{eta}", a
    rng = random.Random(43)
    for n in (3, 4, 5):
        for _ in range(2):
            yield f"graded-n{n}", graded_split_algebra(rng, n)
    rng = random.Random(3606)
    entries = dict(catalog_algebras())
    for n in (3, 4, 5, 6):
        yield f"dense-n{n}", random_split_algebra(rng, n)
        yield f"graded-n{n}", graded_split_algebra(rng, n)
    for x, y in (("d2.A1", "d2.A5"), ("d2.A7", "d3.A4"), ("d3.A7", "d3.A16")):
        yield f"{x}+{y}", block_sum(sum_mono(entries[x]), sum_mono(entries[y]))
    graded = graded_split_algebra(rng, 5)
    yield "graded-mono", HomAlgebra.mono(graded.succ, graded.alpha)
    # e1 succ e1 = e2 and e2 prec e2 = e1/2: each product alone is nilpotent and their sum is not, so a
    # reduct must not read the whole's spans
    succ, prec = BilinearOp.from_entries(2, [(0, 0, 1, F(1))]), BilinearOp.from_entries(2, [(1, 1, 0, F(1, 2))])
    yield "nilpotent-reducts", HomAlgebra.rhizaform(succ, prec, LinearMap.identity(2))


def test_analysis_matches_fraction_reference():
    """One clearing of the products, and one dict of spans shared among the right, left and full
    series and the reducts, serve every series, reduct and check of ``analyze``: each equals that of
    ``fraction_checkers``, which builds every series and reduct on its own, product by product."""
    for label, a in _analysis_inputs():
        got = nilpotency.analyze(a)
        want, verdicts = ref.nilpotency_analysis(a)
        assert got.series == want.series, label
        assert got.verdicts == verdicts, label
        for field in ("series_equality", "onesided", "two_nilpotent", "alpha_stability"):
            assert getattr(got, field) == getattr(want, field), (label, field)
        assert got == want, label


def test_cocycle_residuals_match_fraction_reference():
    rng = random.Random(19)
    for label, a in SPLIT_INPUTS:
        n = a.dim
        mono = sum_mono(a)
        scalars = scalar_cocycle_space(mono)[:2] + [ScalarForm(n, _matrix(rng, n, n))]
        for b in scalars:
            assert scalar_cocycle_residuals(mono, b) == ref.scalar_cocycle_residuals(mono, b), label
        vectors = vector_cocycle_space(mono)[:2] + [VectorForm(n, _tensor(rng, n).coeffs)]
        for w in vectors:
            assert vector_cocycle_residuals(mono, w) == ref.vector_cocycle_residuals(mono, w), label
