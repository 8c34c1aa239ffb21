import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhizalab.algmodel import BilinearOp, HomAlgebra, LinearMap
from rhizalab.axioms import _view
from rhizalab.catalog import load_entry
from rhizalab.cli import main
from rhizalab.cocycles import VectorForm, _cyclic_rows
from rhizalab.errors import DimensionMismatch, ParseError, Singular
from rhizalab.exactlin import (
    Matrix,
    _cleared,
    _echelon,
    _forward,
    _kernel,
    _rref_rows,
    invert,
    nullspace_basis,
    rank,
    rational,
    rational_str,
    rref,
)
from tests.fraction_checkers import apply, times
from tests.conftest import block_sum, sum_mono
from tests.test_cocycles import _dense_twist, _sparse_tensor, _twist_of_rank

F = Fraction


def test_rational_parsing():
    assert rational("3") == F(3)
    assert rational("-7/2") == F(-7, 2)
    assert rational("4/8") == F(1, 2)
    assert rational(5) == F(5)
    assert rational_str(F(-7, 2)) == "-7/2"
    assert rational_str(F(6, 3)) == "2"


# "\u0663" is an Arabic-Indic three, which int() reads as 3
@pytest.mark.parametrize("bad", ["0.5", "1e3", "", "1/0", "a b", 0.5, True, None, "1_000", "\u0663", " 1 / 2"])
def test_rational_rejects_nonrationals(bad):
    with pytest.raises(ParseError):
        rational(bad)


@pytest.mark.parametrize("text", ["1/0", "-3/0", "+2/0", "0/00", " 7/000 "])
def test_zero_denominator_is_named(text, capsys):
    with pytest.raises(ParseError) as exc:
        rational(text)
    assert str(exc.value) == f"bad rational {text!r}: zero denominator"
    assert main(["catalog", "verify", "--id", "d2.A1", "--param", f"eta={text}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: bad rational {text.strip()!r}: zero denominator\n"


def test_rref_identity():
    m = Matrix.identity(2)
    reduced, rk = rref(m)
    assert reduced == m
    assert rk == 2


def test_rref_dependent_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    reduced, rk = rref(m)
    assert reduced == Matrix.from_rows([[1, 2], [0, 0]])
    assert rk == 1


def test_rref_row_swap():
    m = Matrix.from_rows([[0, 1], [1, 0]])
    reduced, rk = rref(m)
    assert reduced == Matrix.identity(2)
    assert rk == 2


def test_rref_idempotent_on_randoms():
    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = Matrix(rows, cols, [F(rng.randrange(-3, 4)) for _ in range(rows * cols)])
        once, rk = rref(m)
        twice, rk2 = rref(once)
        assert once == twice
        assert rk == rk2


def test_rank_nullity_on_randoms():
    rng = random.Random(11)
    for _ in range(50):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = Matrix(rows, cols, [F(rng.randrange(-2, 3)) for _ in range(rows * cols)])
        assert rank(m) + len(nullspace_basis(m)) == cols


def test_nullspace_full_kernel():
    assert len(nullspace_basis(Matrix.zero(2, 3))) == 3


def test_nullspace_trivial_kernel():
    assert nullspace_basis(Matrix.identity(3)) == []


def test_nullspace_single_row():
    m = Matrix.from_rows([[1, 1, 0]])
    basis = nullspace_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert apply(m, v) == (F(0),)
    # deterministic layout: one vector per free column, in order
    assert basis[0] == (F(-1), F(1), F(0))
    assert basis[1] == (F(0), F(0), F(1))


def test_nullspace_vectors_annihilate_on_randoms():
    rng = random.Random(13)
    for _ in range(30):
        m = Matrix(3, 4, [F(rng.randrange(-2, 3)) for _ in range(12)])
        for v in nullspace_basis(m):
            assert all(c == 0 for c in apply(m, v))


def test_invert_identity():
    assert invert(Matrix.identity(3)) == Matrix.identity(3)


def test_invert_diagonal():
    m = Matrix.from_rows([[2, 0], [0, F(1, 2)]])
    assert invert(m) == Matrix.from_rows([[F(1, 2), 0], [0, 2]])


def test_invert_unitriangular():
    m = Matrix.from_rows([[1, 1], [0, 1]])
    assert invert(m) == Matrix.from_rows([[1, -1], [0, 1]])


def test_invert_singular():
    with pytest.raises(Singular):
        invert(Matrix.from_rows([[1, 2], [2, 4]]))


def test_invert_requires_square():
    with pytest.raises(DimensionMismatch):
        invert(Matrix.zero(2, 3))


def test_invert_two_sided_on_randoms():
    rng = random.Random(17)
    found = 0
    while found < 20:
        m = Matrix(3, 3, [F(rng.randrange(-3, 4)) for _ in range(9)])
        try:
            inv = invert(m)
        except Singular:
            continue
        found += 1
        assert times(m, inv) == Matrix.identity(3)
        assert times(inv, m) == Matrix.identity(3)


def test_matrix_shape_validation():
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[1, 2], [3]])


HALF = [[[0, 0], [0, 0]], [[0, "1/2"], [0, 0]]]  # e2 o e1 = 1/2 e2
# a value of each immutable type, its fields, an equal value built another way, and its repr
VALUE_TYPES = {
    "Matrix": (Matrix.identity(2), ("rows", "cols", "entries"), Matrix(2, 2, ["1", 0, 0, 1]), "Matrix(2x2: 1 0; 0 1)"),
    "BilinearOp": (
        BilinearOp(2, HALF),
        ("dim", "coeffs"),
        BilinearOp.from_entries(2, [(1, 0, 1, "1/2")]),
        "BilinearOp(2: e2*e1->1/2e2)",
    ),
    "VectorForm": (VectorForm(2, HALF), ("dim", "coeffs"), BilinearOp(2, HALF), "BilinearOp(2: e2*e1->1/2e2)"),
    "LinearMap": (
        LinearMap.identity(2),
        ("dim", "matrix"),
        LinearMap.from_columns([[1, 0], [0, "2/2"]]),
        "LinearMap(Matrix(2x2: 1 0; 0 1))",
    ),
}


@pytest.mark.parametrize("kind", sorted(VALUE_TYPES))
def test_value_types_are_immutable(kind):
    """Assigning a field or a new name raises AttributeError, equal values hash equal (a
    VectorForm equals the BilinearOp with its coefficients), and the repr is pinned.

    ``axioms.Violation`` is left out of ``VALUE_TYPES`` on purpose: it is a slotted record, not
    frozen, so that a failing check builds each of its many violations with four slot stores.
    Nothing mutates a violation; its record contract is tested in ``test_residual_reports``."""
    value, fields, equal, text = VALUE_TYPES[kind]
    assert type(value).__name__ == kind
    for name in (*fields, "new_name"):
        with pytest.raises(AttributeError):
            setattr(value, name, 3)
    assert value == equal and hash(value) == hash(equal)
    assert repr(value) == text


# --- integer elimination against the Fraction Gauss-Jordan loop -------------


def fraction_rref(m: Matrix) -> tuple[Matrix, int]:
    """Reference: Gauss-Jordan elimination over Fractions, first-nonzero pivoting."""
    a = m.to_rows()
    n_rows, n_cols = m.rows, m.cols
    piv_row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(piv_row, n_rows):
            if a[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != piv_row:
            a[piv_row], a[pivot] = a[pivot], a[piv_row]
        p = a[piv_row][col]
        if p != 1:
            a[piv_row] = [e / p for e in a[piv_row]]
        for r in range(n_rows):
            if r == piv_row:
                continue
            f = a[r][col]
            if f:
                a[r] = [e - f * g if g else e for e, g in zip(a[r], a[piv_row])]
        piv_row += 1
        if piv_row == n_rows:
            break
    return Matrix.from_rows(a) if n_rows else m, piv_row


def _random_matrix(rng, rows, cols, density, height):
    def entry():
        if rng.random() >= density:
            return F(0)
        return F(rng.randint(-height, height), rng.randint(1, height))

    return Matrix(rows, cols, [entry() for _ in range(rows * cols)])


def _low_rank(rng, rows, cols, rk, density, height):
    """rows x cols, rank at most rk: small combinations of rk random rows."""
    return times(_random_matrix(rng, rows, rk, 1.0, 3), _random_matrix(rng, rk, cols, density, height))


def fraction_pivots(reduced: Matrix, rk: int) -> list[int]:
    """The pivot column of each nonzero row of a reduced matrix."""
    return [next(c for c in range(reduced.cols) if reduced.at(r, c)) for r in range(rk)]


def fraction_kernel(reduced: Matrix, rk: int) -> list[tuple[Fraction, ...]]:
    """Reference: one kernel vector per free column of a reduced matrix, 1 there."""
    pivots = fraction_pivots(reduced, rk)
    basis = []
    for free in (c for c in range(reduced.cols) if c not in pivots):
        v = [F(0)] * reduced.cols
        v[free] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.at(r, free)
        basis.append(tuple(v))
    return basis


def _assert_matches_reference(m, label) -> int:
    """rref, nullspace_basis, ``_echelon`` and ``_kernel`` against the reference; the rank."""
    reduced, rk = rref(m)
    expected, expected_rk = fraction_rref(m)
    assert (reduced.rows, reduced.cols) == (m.rows, m.cols), label
    assert reduced == expected, label
    assert rk == expected_rk, label
    kernel = fraction_kernel(expected, expected_rk)
    assert nullspace_basis(m) == kernel, label
    # the integer entry points, on rows each cleared by its own denominator
    rows = [_cleared([m.row(i)])[0][0] for i in range(m.rows)]
    # each reference row (pivot 1) times the lcm of its denominators: primitive, with a positive pivot
    expected_rows = [_cleared([r])[0][0] for r in expected.to_rows()[:rk]]
    assert _echelon(rows) == (expected_rows, fraction_pivots(expected, rk)), label
    assert _kernel(rows, m.cols) == [(w, d) for (w,), d in (_cleared([v]) for v in kernel)], label
    return rk


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 0), (0, 1), (1, 1), (3, 4), (6, 2)])
def test_rref_matches_reference_on_empty_and_zero_matrices(shape):
    _assert_matches_reference(Matrix.zero(*shape), shape)


def _stacked(*parts: Matrix) -> Matrix:
    return Matrix.from_rows([row for m in parts for row in m.to_rows()])


def test_rref_matches_reference_on_seeded_randoms():
    """Heights up to 2^40 in numerator and denominator, densities 0.05-1;
    then rows that an elimination reading each distinct row once, one at a
    time, and stopping at full column rank could get wrong."""
    rng = random.Random("rref-reference")
    for height in (1, 7, 2**12, 2**40):
        for density in (0.05, 0.2, 0.5, 1.0):
            for _ in range(6):
                rows, cols = rng.randint(1, 8), rng.randint(1, 8)
                m = _random_matrix(rng, rows, cols, density, height)
                _assert_matches_reference(m, (rows, cols, density, height))
            rk = rng.randint(1, 4)
            _assert_matches_reference(_low_rank(rng, 7, 6, rk, density, height), ("low rank", rk, density, height))
    for cols, height in ((1, 7), (5, 7), (8, 2**40)):
        # a full-column-rank prefix followed by more rows
        prefix = _random_matrix(rng, cols, cols, 1.0, height)
        assert rank(prefix) == cols
        _assert_matches_reference(_stacked(prefix, _random_matrix(rng, 12, cols, 0.5, height)), ("prefix", cols))
        # the rank reaches the column count only at the last row
        below = _low_rank(rng, 20, cols, cols - 1, 1.0, height) if cols > 1 else Matrix.zero(20, 1)
        raised = _stacked(below, _random_matrix(rng, 1, cols, 1.0, height))
        assert (rank(below), rank(raised)) == (cols - 1, cols)
        _assert_matches_reference(raised, ("last row", cols))
        # nothing but repeated rows
        few = _random_matrix(rng, 2, cols, 1.0, height)
        _assert_matches_reference(Matrix.from_rows([few.row(rng.randrange(2)) for _ in range(15)]), ("repeated", cols))


@pytest.mark.parametrize(
    "rows, cols, density, height",
    [
        (150, 25, 0.05, 2**40),
        (150, 25, 0.1, 2**40),
        (150, 25, 1.0, 2**4),  # dense and full-rank at 2^40 takes the reference about 30 s
        (10, 40, 0.3, 2**40),
        (10, 40, 1.0, 2**12),
    ],
)
def test_rref_matches_reference_on_tall_and_wide(rows, cols, density, height):
    rng = random.Random(f"rref-shape-{rows}x{cols}-{density}-{height}")
    _assert_matches_reference(_random_matrix(rng, rows, cols, density, height), "full")
    _assert_matches_reference(_low_rank(rng, rows, cols, 6, density, height), "rank 6")


BIG = 2**40
rationals = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-BIG, max_value=BIG, max_denominator=BIG),
    st.integers(-3, 3).map(F),
)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    return Matrix(rows, cols, draw(st.lists(rationals, min_size=rows * cols, max_size=rows * cols)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(), st.data())
def test_rref_matches_reference_property(m, data):
    """Also: the reduced rows do not depend on the order of the rows or on repeated rows."""
    _assert_matches_reference(m, m)
    rows = [_cleared([m.row(i)])[0][0] for i in range(m.rows)]
    repeats = data.draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
    assert _rref_rows(data.draw(st.permutations(rows + repeats))) == _rref_rows(rows), m


# --- the two-pass elimination on integer systems ----------------------------


def _assert_two_passes_match_reference(rows, cols, label) -> int:
    """The integer rows as a matrix against the reference, and the forward pass's pivot count; the
    rank."""
    rk = _assert_matches_reference(Matrix(len(rows), cols, [x for row in rows for x in row]), label)
    assert len(_forward(rows)) == rk, label
    return rk


def _integer_rows(rng, rows, cols, density, height):
    return [[rng.randint(-height, height) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]


def test_two_passes_match_the_one_pass_loop_on_full_rank_systems():
    """Dense 45x25 systems of full column rank, the shape of the dense n = 5 scalar cyclic system, at
    heights 1 to 2^40; and that cyclic system itself, whose kernel is empty."""
    rng = random.Random("two-pass-full-rank")
    for height in (1, 7, 2**12, 2**40):
        rows = _integer_rows(rng, 45, 25, 1.0, height)
        assert _assert_two_passes_match_reference(rows, 25, ("dense", height)) == 25
    a = HomAlgebra.rhizaform(_sparse_tensor(rng, 5, 0.5), _sparse_tensor(rng, 5, 0.5), _dense_twist(rng, 5))
    cyclic = list(_cyclic_rows(_view(a))[0].values())
    assert len(cyclic) == 45
    assert _assert_two_passes_match_reference(cyclic, 25, "cyclic n = 5") == 25


def test_two_passes_match_the_one_pass_loop_on_rank_deficient_sparse_systems():
    """The cyclic systems of direct sums of catalog entries, and sparse products of a tall and a wide
    factor, whose rank is at most the inner dimension."""
    for left, right in (("d2.A1", "d2.A7"), ("d2.A7", "d3.A4"), ("d3.A16", "d2.A1")):
        a = block_sum(*(sum_mono(load_entry(eid, {"eta": F(1)})) for eid in (left, right)))
        rows = list(_cyclic_rows(_view(a))[0].values())
        assert _assert_two_passes_match_reference(rows, a.dim**2, (left, right)) < a.dim**2
    rng = random.Random("two-pass-rank-deficient")
    for height in (1, 7, 2**12, 2**40):
        for rk, cols in ((1, 9), (4, 16), (9, 25), (20, 36)):
            tall = _integer_rows(rng, 3 * rk, rk, 0.6, 3)
            wide = _integer_rows(rng, rk, cols, 0.2, height)
            rows = [[sum(x * w[c] for x, w in zip(t, wide)) for c in range(cols)] for t in tall]
            assert _assert_two_passes_match_reference(rows, cols, ("sparse", rk, cols, height)) <= rk


def test_two_passes_match_the_one_pass_loop_on_repeated_zero_and_empty_rows():
    rng = random.Random("two-pass-degenerate")
    for height in (1, 2**40):
        few = _integer_rows(rng, 3, 6, 0.7, height)
        _assert_two_passes_match_reference([few[rng.randrange(3)] for _ in range(20)], 6, ("duplicates", height))
        zeros = [[0] * 6 for _ in range(4)]
        _assert_two_passes_match_reference(zeros + few + zeros + few, 6, ("zeros", height))
    for shape in ((0, 0), (0, 4), (1, 0), (5, 0), (3, 3)):
        _assert_two_passes_match_reference([[0] * shape[1] for _ in range(shape[0])], shape[1], shape)


integer_entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**40), 2**40))


@st.composite
def integer_systems(draw):
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 8))
    return [draw(st.lists(integer_entries, min_size=cols, max_size=cols)) for _ in range(rows)], cols


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_systems(), st.data())
def test_two_passes_match_the_one_pass_loop_property(system, data):
    """On any integer rows, repeated ones included."""
    rows, cols = system
    repeats = data.draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    _assert_two_passes_match_reference(rows + repeats, cols, system)


# --- a proven rank bound stops the forward pass, and changes nothing ---------


def _assert_bound_changes_nothing(rows, cols, label):
    """Every bound from the rank up to ``cols`` gives the unbounded forward pass and kernel."""
    pivot_rows, kernel = _forward(rows), _kernel(rows, cols)
    for bound in range(len(pivot_rows), cols + 1):
        assert _forward(rows, bound) == pivot_rows, (label, bound)
        assert _kernel(rows, cols, bound) == kernel, (label, bound)


def test_a_rank_bound_leaves_the_kernel_unchanged():
    """Products of a tall and a wide factor, whose rank is at most the inner dimension, at every
    inner dimension; and the cyclic systems of dense algebras with a twist of every rank r, whose rank
    is at most n * r, the bound the solvers pass."""
    rng = random.Random("rank-bound")
    for height in (1, 7, 2**40):
        for cols in (1, 4, 9, 16):
            for rk in range(cols + 1):
                tall = _integer_rows(rng, 2 * rk + 3, rk, 0.6, 3)
                wide = _integer_rows(rng, rk, cols, 0.5, height)
                rows = [[sum(x * w[c] for x, w in zip(t, wide)) for c in range(cols)] for t in tall]
                assert len(_forward(rows)) <= rk
                _assert_bound_changes_nothing(rows, cols, (height, cols, rk))
    for n in (2, 3, 4, 5):
        for r in range(n + 1):
            twist = _twist_of_rank(rng, n, r)
            a = HomAlgebra.rhizaform(_sparse_tensor(rng, n, 0.5), _sparse_tensor(rng, n, 0.5), twist)
            rows = list(_cyclic_rows(_view(a))[0].values())
            assert len(_forward(rows)) <= n * r
            _assert_two_passes_match_reference(rows, n * n, (n, r))
            assert _kernel(rows, n * n, n * r) == _kernel(rows, n * n), (n, r)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_systems())
def test_a_rank_bound_leaves_the_kernel_unchanged_property(system):
    rows, cols = system
    _assert_bound_changes_nothing(rows, cols, system)
