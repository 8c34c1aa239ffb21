import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from rhizalab import cocycles, exactlin
from rhizalab.algmodel import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    star_product,
    sum_product,
)
from rhizalab.axioms import _view, check_rhizaform
from rhizalab.catalog import load_entry
from rhizalab.cocycles import (
    ScalarForm,
    VectorForm,
    _cyclic_rows,
    _vector_cocycle_dim,
    is_nondegenerate,
    rhizaform_from_cocycle,
    scalar_cocycle_residuals,
    scalar_cocycle_space,
    vector_cocycle_residuals,
    vector_cocycle_space,
)
from rhizalab.errors import DimensionMismatch, NotACocycle, NotAntiAssociative, Singular
from rhizalab.exactlin import F0, Matrix, invert
from tests.conftest import (
    antisym_3dim,
    block_sum,
    catalog_algebras,
    catalog_sums,
    nondegenerate_in_span,
    skew_4dim,
    skew_subspace,
    sum_mono,
    zero_product_mono,
)
from tests import fraction_checkers as ref
from tests.fraction_checkers import apply, basis_vec, eval_product, form_value, times

F = Fraction


def test_scalar_space_zero_product_full():
    space = scalar_cocycle_space(zero_product_mono(2))
    assert len(space) == 4


def test_scalar_space_d2_a1_regression(a_d2_a1):
    space = scalar_cocycle_space(sum_mono(a_d2_a1))
    assert len(space) == 1
    b = space[0]
    # only the e2-e2 slot survives the cyclic and invariance conditions
    assert b.matrix.at(0, 0) == 0 and b.matrix.at(0, 1) == 0 and b.matrix.at(1, 0) == 0
    assert b.matrix.at(1, 1) != 0


def test_scalar_space_d2_a7_regression(a_d2_a7):
    space = scalar_cocycle_space(sum_mono(a_d2_a7))
    assert len(space) == 2
    for b in space:
        assert b.matrix.at(1, 0) == 0 and b.matrix.at(1, 1) == 0


def test_scalar_strict_requires_anti_associativity():
    bad = HomAlgebra.mono(BilinearOp.from_entries(2, [(0, 0, 0, F(1))]), LinearMap.identity(2))
    with pytest.raises(NotAntiAssociative):
        scalar_cocycle_space(bad, strict=True)
    assert scalar_cocycle_space(bad) is not None  # non-strict still solves


def test_vector_space_d2_a1_pattern(a_d2_a1):
    space = vector_cocycle_space(sum_mono(a_d2_a1))
    assert len(space) == 2
    for w in space:
        # table pattern: w(e1, .) = 0 and the (2,2)->e2 component couples to (2,1)->e1
        assert all(c == 0 for c in w.entry(0, 0))
        assert all(c == 0 for c in w.entry(0, 1))
        assert w.entry(1, 1)[1] == w.entry(1, 0)[0]


def test_vector_space_d2_a7_dimension(a_d2_a7):
    assert len(vector_cocycle_space(sum_mono(a_d2_a7))) == 4


def test_vector_space_d3_anchors_differ_from_table():
    """The printed 3-dim table claims the zero space for these two entries;
    the solved spaces are 8- and 3-dimensional (catalog reports the delta)."""
    from rhizalab.catalog import load_entry

    a7 = load_entry("d3.A7", {"eta": F(1)})
    assert len(vector_cocycle_space(sum_mono(a7))) == 8
    a8 = load_entry("d3.A8")
    assert len(vector_cocycle_space(sum_mono(a8))) == 3


def test_solution_spaces_resubstitute_to_zero():
    """Every returned basis form re-checks by direct substitution."""
    for eid, s in catalog_sums():
        for b in scalar_cocycle_space(s):
            assert scalar_cocycle_residuals(s, b) == [], eid
        for w in vector_cocycle_space(s):
            assert vector_cocycle_residuals(s, w) == [], eid


@pytest.mark.parametrize(
    "form",
    [ScalarForm(3, Matrix.identity(3)), ScalarForm(1, Matrix.identity(1)), VectorForm.zero(3), VectorForm.zero(1)],
    ids=["scalar 3x3", "scalar 1x1", "vector dim 3", "vector dim 1"],
)
def test_residuals_refuse_a_form_of_another_dimension(a_d2_a1, form):
    residuals = scalar_cocycle_residuals if isinstance(form, ScalarForm) else vector_cocycle_residuals
    with pytest.raises(DimensionMismatch, match="form and algebra dimensions differ"):
        residuals(a_d2_a1, form)


def test_vector_dimension_is_permutation_invariant(a_d2_a1):
    s = sum_mono(a_d2_a1)
    base_dim = len(vector_cocycle_space(s))
    perm = Matrix.from_rows([[0, 1], [1, 0]])
    perm_inv = invert(perm)
    n = 2
    conj_mul = BilinearOp(
        n,
        [
            [
                apply(perm_inv, eval_product(s.mul, apply(perm, basis_vec(n, i)), apply(perm, basis_vec(n, j))))
                for j in range(n)
            ]
            for i in range(n)
        ],
    )
    conj_alpha = LinearMap(n, times(times(perm_inv, s.alpha.matrix), perm))
    conj = HomAlgebra.mono(conj_mul, conj_alpha)
    assert len(vector_cocycle_space(conj)) == base_dim


def test_nondegeneracy():
    assert is_nondegenerate(ScalarForm(2, Matrix.identity(2)))
    assert not is_nondegenerate(ScalarForm(2, Matrix.zero(2, 2)))
    assert is_nondegenerate(ScalarForm(2, Matrix.from_rows([[0, 1], [-1, 0]])))


def test_construction_zero_product_identity_form():
    a = zero_product_mono(2)
    out = rhizaform_from_cocycle(a, ScalarForm(2, Matrix.identity(2)))
    assert out.succ.is_zero() and out.prec.is_zero()
    assert check_rhizaform(out).passed


def test_construction_rejects_degenerate_form():
    a = zero_product_mono(2)
    with pytest.raises(Singular):
        rhizaform_from_cocycle(a, ScalarForm(2, Matrix.zero(2, 2)))


def test_construction_strict_rejects_noncocycle(a_d2_a1):
    s = sum_mono(a_d2_a1)
    with pytest.raises(NotACocycle):
        rhizaform_from_cocycle(s, ScalarForm(2, Matrix.identity(2)), strict=True)


def _defining_equations_hold(a, b, out) -> bool:
    """Direct substitution of the two defining equations, basis triple-wise."""
    star = a.mul
    n = a.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                z = basis_vec(n, k)
                if form_value(b, out.succ.entry(i, j), z) != form_value(
                    b, basis_vec(n, j), eval_product(star, z, basis_vec(n, i))
                ):
                    return False
                if form_value(b, out.prec.entry(i, j), z) != form_value(
                    b, basis_vec(n, i), eval_product(star, basis_vec(n, j), z)
                ):
                    return False
    return True


def test_construction_on_skew_paired_fixture():
    a = skew_4dim()
    space = scalar_cocycle_space(a, strict=True)
    skew = skew_subspace(space, 4)
    assert skew, "no antisymmetric solutions"
    b = nondegenerate_in_span(skew, 4)
    assert b is not None
    out = rhizaform_from_cocycle(a, b, strict=True)
    assert check_rhizaform(out).passed
    assert sum_product(out) == a.mul
    assert _defining_equations_hold(a, b, out)


def test_construction_generic_solution_can_break_compatibility():
    """A nondegenerate non-skew solution of the printed conditions exists on
    the 4-dim fixture and fails the compatibility claim: the construction
    theorem's proof silently assumes a skew pairing."""
    a = skew_4dim()
    space = scalar_cocycle_space(a, strict=True)
    b = nondegenerate_in_span(space, 4)
    assert b is not None
    assert b.matrix.entries != tuple(-e for e in b.matrix.transpose().entries)  # the search hit a non-skew one
    out = rhizaform_from_cocycle(a, b, strict=True)
    assert _defining_equations_hold(a, b, out)
    assert sum_product(out) != a.mul


def test_construction_on_antisym_3dim_satisfies_equations_but_not_sum():
    """A nondegenerate solution that is not skew-pairable: the construction
    still satisfies its two defining equations, but the splits need not sum
    back to the product (the compatibility property needs a skew pairing,
    which no odd-dimensional nondegenerate form can provide)."""
    a = antisym_3dim()
    space = scalar_cocycle_space(a, strict=True)
    assert len(space) == 8
    b = nondegenerate_in_span(space, 3)
    assert b is not None
    out = rhizaform_from_cocycle(a, b, strict=True)
    assert _defining_equations_hold(a, b, out)
    assert sum_product(out) != a.mul


def test_vector_forms_are_products_in_disguise():
    w = VectorForm.from_entries(2, [(0, 0, 1, F(1))])
    assert isinstance(w, BilinearOp)
    assert eval_product(w, basis_vec(2, 0), basis_vec(2, 0)) == (F(0), F(1))


# --- the factored algebra-valued solver against the reference ---------------


def assert_same_basis(a: HomAlgebra, label) -> int:
    got = vector_cocycle_space(a)
    assert got == ref.vector_cocycle_space(a), label
    return len(got)


def test_vector_solver_matches_fraction_reference_when_kernel_denominators_differ():
    """The scalar cyclic kernel here is (1/3, 1, 0, 0), (2, 0, 1, 0), (-2/3, 0, 0, 1).  Clearing
    each vector by its own lcm would rescale the columns of the twist system and change its
    canonical basis; the kernel is cleared as one block."""
    mul = BilinearOp(2, [[[F0, F0], [F(3, 2), F(-1)]], [[F(-1), F0], [F0, F0]]])
    a = HomAlgebra.mono(mul, LinearMap.from_rows([[F0, F(1)], [F0, F(-1, 3)]]))
    assert assert_same_basis(a, "kernel denominators 3, 1, 3") == 2


def test_vector_solver_matches_fraction_reference_on_catalog():
    """Same basis, same order, on every entry; the eta entries at two bindings."""
    first = dict(catalog_algebras({"eta": F(1)}))
    for eid, a in first.items():
        assert_same_basis(a, eid)
    varied = 0
    for eid, a in catalog_algebras({"eta": F(-3, 2)}):
        if a.products != first[eid].products or a.alpha != first[eid].alpha:
            assert_same_basis(a, (eid, "eta=-3/2"))
            varied += 1
    assert varied >= 1


def _sparse_tensor(rng, n, density):
    def coeff():
        return rng.choice((F(-1), F(1), F(2))) if rng.random() < density else F0

    return BilinearOp(n, [[[coeff() for _ in range(n)] for _ in range(n)] for _ in range(n)])


def _diagonal_twist(rng, n):
    return LinearMap.from_rows(
        [[rng.choice((F(-1), F(1), F(2))) if r == c else F0 for c in range(n)] for r in range(n)]
    )


def _singular_twist(rng, n):
    """The last column is the sum of the others: rank below n."""
    cols = [[rng.choice((F(-1), F0, F(1))) for _ in range(n)] for _ in range(n - 1)]
    return LinearMap.from_columns(cols + [[sum(col[r] for col in cols) for r in range(n)]])


def _dense_twist(rng, n):
    """P diag(+-1) P^-1 for a dense invertible P: dense, with eigenvalue relations."""
    while True:
        p = Matrix.from_rows([[rng.choice((F(-1), F(1), F(2))) for _ in range(n)] for _ in range(n)])
        try:
            p_inv = invert(p)
        except Singular:
            continue
        signs = [rng.choice((F(-1), F(1))) for _ in range(n)]
        d = Matrix.from_rows([[signs[r] if r == c else F0 for c in range(n)] for r in range(n)])
        return LinearMap(n, times(times(p, d), p_inv))


def _twist_of_rank(rng, n, r):
    """A twist of rank exactly r: the product of an n x r and an r x n matrix with entries in {-1, 0, 1, 2}."""
    while True:
        left = [[rng.choice((F(-1), F0, F(1), F(2))) for _ in range(r)] for _ in range(n)]
        right = [[rng.choice((F(-1), F0, F(1), F(2))) for _ in range(n)] for _ in range(r)]
        entries = [[sum((left[i][t] * right[t][j] for t in range(r)), F0) for j in range(n)] for i in range(n)]
        alpha = Matrix.from_rows(entries)
        if exactlin.rank(alpha) == r:
            return LinearMap(n, alpha)


TWISTS = {
    "identity": lambda rng, n: LinearMap.identity(n),
    "diagonal": _diagonal_twist,
    "singular": _singular_twist,
    "dense": _dense_twist,
}


@pytest.mark.parametrize("twist", sorted(TWISTS))
def test_vector_solver_matches_fraction_reference_on_random_split_algebras(twist):
    rng = random.Random(f"vector-differential-{twist}")
    dims = []
    for density in (0.0, 0.05, 0.1, 0.1, 0.2, 0.6):
        a = HomAlgebra.rhizaform(
            _sparse_tensor(rng, 3, density), _sparse_tensor(rng, 3, density), TWISTS[twist](rng, 3)
        )
        dims.append(assert_same_basis(a, (twist, density)))
    assert max(dims[1:]) > 0  # a nonzero product with a nonzero space


@pytest.mark.parametrize("parts", [("d2.A1", "d2.A7"), ("d2.A3", "d2.A5")])
def test_vector_solver_matches_fraction_reference_on_n4_direct_sums(parts):
    a = block_sum(sum_mono(load_entry(parts[0])), sum_mono(load_entry(parts[1])))
    assert assert_same_basis(a, parts) > 10


def test_vector_solver_builds_no_system_beyond_n_cubed(monkeypatch):
    """A count check: every system the n=4 solve reduces is at most n^3 = 64
    rows by 64 columns (the one dense system was 320 x 64).  The first is
    the n x n twist, whose rank bounds the cyclic system's, and the second
    the cyclic system with one row per rotation orbit: (n^3 + 2n)/3 = 24
    rows, all 24 distinct on a dense algebra.  Every elimination starts with
    the forward pass, so its inputs are the systems reduced."""
    rng = random.Random("dense-n4")
    dense = HomAlgebra.rhizaform(_sparse_tensor(rng, 4, 0.5), _sparse_tensor(rng, 4, 0.5), _dense_twist(rng, 4))
    cases = [(block_sum(sum_mono(load_entry("d2.A1")), sum_mono(load_entry("d2.A7"))), 9, 20), (dense, 24, 0)]
    shapes = []
    real_forward = exactlin._forward

    def recording_forward(rows, bound=None):
        shapes.append((len(rows), len(set(map(tuple, rows))), len(rows[0]) if rows else 0))
        return real_forward(rows, bound)

    monkeypatch.setattr(exactlin, "_forward", recording_forward)
    monkeypatch.setattr(cocycles, "_forward", recording_forward)
    for a, cyclic_rows, dim in cases:
        shapes.clear()
        assert len(vector_cocycle_space(a)) == dim
        assert all(rows <= 64 and cols <= 64 for rows, _, cols in shapes), shapes
        assert (shapes[0][0], shapes[0][2]) == (4, 4), shapes
        assert shapes[1] == (24, cyclic_rows, 16), shapes


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cyclic_rows_are_equal_along_rotation_orbits(n):
    """The cyclic condition at (i, j, k), (j, k, i) and (k, i, j) is one
    row, at every one of the n^3 triples, so a solve reads one integer row
    per rotation orbit, (n^3 + 2n)/3 rows keyed by the orbit's least triple:
    the reference's row there, each over its own scale D^2."""
    rng = random.Random(f"cyclic-orbits-{n}")
    for density in (0.1, 0.5, 1.0):
        for tensor in (_sparse_tensor, _fractional_tensor):
            for twist in (_dense_twist, _fractional_involution):
                a = HomAlgebra.rhizaform(tensor(rng, n, density), tensor(rng, n, density), twist(rng, n))
                reference, ref_scale = ref.cyclic_rows(a)
                for i, j, k in itertools.product(range(n), repeat=3):
                    assert reference[i, j, k] == reference[j, k, i] == reference[k, i, j], (n, density, i, j, k)
                rows, scale = _cyclic_rows(_view(a))
                assert list(rows) == [t for t in reference if t == min(t, t[1:] + t[:1], t[2:] + t[:2])]
                assert len(rows) == (n**3 + 2 * n) // 3
                for t, row in rows.items():
                    assert [F(x, scale) for x in row] == [F(x, ref_scale) for x in reference[t]], (n, density, t)


@pytest.mark.parametrize("n", [3, 4])
def test_cyclic_residuals_are_reported_at_every_rotation(n):
    """The residual check reads each triple's orbit row, not only the orbit's
    least triple: a form that is not a cocycle fails the cyclic condition at
    (i, j, k), (j, k, i) and (k, i, j) with one residual, reported at each,
    in lexicographic order, as the Fraction reference reports it."""
    rng = random.Random(f"cyclic-residuals-{n}")

    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    for tensor in (_sparse_tensor, _fractional_tensor):
        a = HomAlgebra.rhizaform(tensor(rng, n, 0.5), tensor(rng, n, 0.5), _dense_twist(rng, n))
        b = ScalarForm(n, Matrix(n, n, [entry() for _ in range(n * n)]))
        w = VectorForm(n, [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)])
        for got, want in (
            (scalar_cocycle_residuals(a, b), ref.scalar_cocycle_residuals(a, b)),
            (vector_cocycle_residuals(a, w), ref.vector_cocycle_residuals(a, w)),
        ):
            assert got == want, (n, tensor.__name__)
            cyclic = [v for v in got if v.identity_id == "cyclic"]
            bases = [v.basis_tuple for v in cyclic]
            assert bases == sorted(set(bases))
            at = {v.basis_tuple: v.residual for v in cyclic}
            assert any(len(set(t)) == 3 for t in at)  # an orbit of three triples
            for (i, j, k), r in at.items():
                assert at.get((j, k, i)) == at.get((k, i, j)) == r, (n, tensor.__name__, i, j, k)


def _one_orbit_forms():
    """e1 e1 = e1 with the identity twist, and B(e1, e2) = 1 (w(e1, e2) = e1) as the only entry: the
    cyclic condition fails at the one orbit {(1, 1, 2), (1, 2, 1), (2, 1, 1)}, with residual 1."""
    a = HomAlgebra.mono(BilinearOp.from_entries(2, [(0, 0, 0, F(1))]), LinearMap.identity(2))
    b = ScalarForm(2, Matrix.from_rows([[0, 1], [0, 0]]))
    w = VectorForm.from_entries(2, [(0, 1, 0, F(1))])
    return a, b, w


def test_orbit_residuals_match_the_per_triple_check():
    """The residual check computes each orbit's cyclic residual once and reports it at each of the
    orbit's triples: both residual checks equal the per-triple ``Fraction`` reference on seeded
    forms that are not cocycles, and the strict cocycle splitting refuses each, naming the
    identities the reference reports."""
    rng = random.Random("orbit-residuals")

    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    a, b, w = _one_orbit_forms()
    cases = [(a, b, w)]
    for n in (2, 3, 4):
        for tensor in (_sparse_tensor, _fractional_tensor):
            split = HomAlgebra.rhizaform(tensor(rng, n, 0.5), tensor(rng, n, 0.5), _dense_twist(rng, n))
            b = ScalarForm(n, Matrix(n, n, [entry() for _ in range(n * n)]))
            w = VectorForm(n, [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)])
            cases.append((split, b, w))
    for a, b, w in cases:
        scalar, vector = ref.scalar_cocycle_residuals(a, b), ref.vector_cocycle_residuals(a, w)
        assert scalar and vector
        assert scalar_cocycle_residuals(a, b) == scalar
        assert vector_cocycle_residuals(a, w) == vector
        if len(a.products) == 2:
            with pytest.raises(NotACocycle) as refused:
                rhizaform_from_cocycle(a, b, strict=True)
            assert str(refused.value) == f"form violates {sorted({v.identity_id for v in scalar})}"


def test_a_form_failing_one_orbit_reports_it_at_its_three_triples():
    a, b, w = _one_orbit_forms()
    at = [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    scalar, vector = scalar_cocycle_residuals(a, b), vector_cocycle_residuals(a, w)
    assert [(v.identity_id, v.basis_tuple, v.residual) for v in scalar] == [("cyclic", t, (1,)) for t in at]
    assert [(v.identity_id, v.basis_tuple, v.residual) for v in vector] == [("cyclic", t, (1, 0)) for t in at]
    assert scalar == ref.scalar_cocycle_residuals(a, b) and vector == ref.vector_cocycle_residuals(a, w)


# --- the integer scalar solver against the reference ------------------------


def assert_same_scalar_basis(a: HomAlgebra, label) -> int:
    got = scalar_cocycle_space(a)
    assert got == ref.scalar_cocycle_space(a), label
    return len(got)


def test_scalar_rows_match_fraction_rows_on_catalog():
    """Same basis, same order, on every entry; the eta entries at two bindings."""
    first = dict(catalog_algebras({"eta": F(1)}))
    for eid, a in first.items():
        assert_same_scalar_basis(a, eid)
    varied = 0
    for eid, a in catalog_algebras({"eta": F(-3, 2)}):
        if a.products != first[eid].products or a.alpha != first[eid].alpha:
            assert_same_scalar_basis(a, (eid, "eta=-3/2"))
            varied += 1
    assert varied >= 1


DENOMINATORS = (2, 3, 5, 7)


def _fractional_tensor(rng, n, density):
    def coeff():
        return F(rng.choice((-3, -1, 1, 2)), rng.choice(DENOMINATORS)) if rng.random() < density else F0

    return BilinearOp(n, [[[coeff() for _ in range(n)] for _ in range(n)] for _ in range(n)])


def _fractional_diagonal_twist(rng, n):
    """Entries from reciprocal pairs such as 2/3 and 3/2, so that some
    invariance conditions d_i * d_j = 1 have solutions."""
    values = (F(2, 3), F(3, 2), F(-2, 3), F(-3, 2), F(5, 7), F(7, 5))
    return LinearMap.from_rows([[rng.choice(values) if r == c else F0 for c in range(n)] for r in range(n)])


def _denominator_lcm(m: Matrix) -> int:
    return lcm(*(e.denominator for e in m.entries))


def _fractional_involution(rng, n):
    """P diag(+-1) P^-1 for a dense P with fractional entries; not integral."""
    while True:
        p = Matrix.from_rows(
            [[F(rng.choice((-1, 1, 2)), rng.choice(DENOMINATORS)) for _ in range(n)] for _ in range(n)]
        )
        try:
            p_inv = invert(p)
        except Singular:
            continue
        d = Matrix.from_rows([[rng.choice((F(-1), F(1))) if r == c else F0 for c in range(n)] for r in range(n)])
        alpha = times(times(p, d), p_inv)
        if _denominator_lcm(alpha) != 1:
            return LinearMap(n, alpha)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("twist", [_fractional_diagonal_twist, _fractional_involution])
def test_scalar_rows_match_fraction_rows_with_denominators(n, twist):
    """Structure constants and twist with denominators in {2, 3, 5, 7}, so one
    D != 1 clears the product and the twist together: the cyclic rows are at
    D^2, and the invariance rows, which read only the twist, at the same D^2."""
    rng = random.Random(f"scalar-differential-{n}-{twist.__name__}")
    nontrivial = 0
    for density in (0.0, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2, 0.5):
        alpha = twist(rng, n)
        assert _denominator_lcm(alpha.matrix) != 1
        a = HomAlgebra.rhizaform(_fractional_tensor(rng, n, density), _fractional_tensor(rng, n, density), alpha)
        if assert_same_scalar_basis(a, (n, twist.__name__, density)) and not star_product(a).is_zero():
            nontrivial += 1
    assert nontrivial  # a nonzero product with a nonzero space


@pytest.mark.parametrize("twist", sorted(TWISTS))
def test_vector_dimension_is_the_length_of_the_basis(twist):
    """``_vector_cocycle_dim`` reads the dimension from two ranks, without building the basis that
    ``vector_cocycle_space`` builds; integral and fractional constants, split and mono algebras."""
    rng = random.Random(f"vector-dimension-{twist}")
    dims = set()
    for density in (0.0, 0.05, 0.1, 0.2, 0.6):
        for tensor in (_sparse_tensor, _fractional_tensor):
            a = HomAlgebra.rhizaform(tensor(rng, 3, density), tensor(rng, 3, density), TWISTS[twist](rng, 3))
            for b in (a, sum_mono(a)):
                dim = _vector_cocycle_dim(_view(b))
                assert dim == len(vector_cocycle_space(b)), (twist, density, tensor.__name__, b.kind)
                dims.add(dim)
    assert len(dims) > 1
