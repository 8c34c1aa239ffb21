"""Cyclic-form solvers and the splitting construction from a nondegenerate form.

Two readings of the invariant bilinear form are implemented side by side:

* ``ScalarForm`` — values in the ground field; the cyclic condition
  B(x*y, alpha(z)) + B(y*z, alpha(x)) + B(z*x, alpha(y)) = 0 together with
  invariance B(alpha(x), alpha(y)) = B(x, y).  This is the reading that
  supports nondegeneracy and hence the induced splitting.
* ``VectorForm`` — values in the algebra; same cyclic condition plus the
  twist compatibility alpha(w(x, y)) = w(alpha(x), alpha(y)).  This is the
  reading the low-dimensional tables follow.

Each condition is stated once, as integer rows in the form's unknowns and
the scale they carry: ``_cyclic_rows``, ``_invariance_rows`` and
``_twist_rows``.  The solvers hand these rows to ``exactlin._kernel``, and
the residual checks substitute a form into them (row . form over the scale).

Both solvers return a deterministic kernel basis: the one ``nullspace_basis``
gives for their defining conditions stacked in the form's unknowns.  The
scalar solver builds that system: the cyclic rows, then the invariance rows.
The algebra-valued one never builds its n^4 x n^3 system.  Each output
component of its cyclic condition is the scalar cyclic condition, so it
solves that n^3 x n^2 system once and imposes the twist rows on the d*n
coordinates in the scalar kernel (d = its dimension).  The result is exact,
and equal to the stacked system's basis entry by entry, for the reasons
given in ``vector_cocycle_space``.  With ``strict``, both solvers first
require the working product to be anti-associative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .algmodel import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    _apply_into,
    _divided,
    _integers,
    _sparse,
    star_product,
)
from .axioms import Violation, _residual, check_hom_anti_associative
from .errors import DimensionMismatch, NotACocycle, NotAntiAssociative
from .exactlin import F0, Matrix, _cleared, _kernel, invert, rank


@dataclass(frozen=True)
class ScalarForm:
    """Field-valued bilinear form; B(e_i, e_j) = matrix[i][j]."""

    dim: int
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.dim or self.matrix.cols != self.dim:
            raise DimensionMismatch("form matrix must be dim x dim")


class VectorForm(BilinearOp):
    """Algebra-valued bilinear form; same tensor layout as a product."""


def _working_product(a: HomAlgebra, strict: bool) -> BilinearOp:
    """The product both solvers read; strict mode requires it to be anti-associative."""
    star = star_product(a)
    if strict and not check_hom_anti_associative(star, a.alpha).passed:
        raise NotAntiAssociative("the working product is not anti-associative")
    return star


# --- the conditions, as integer rows and their scale ------------------------
# Each row is its condition with every structure it reads cleared by one D
# (``algmodel._integers``; the rows that read only alpha clear it by its own
# D_alpha), so every row is an integer row, at D to the condition's degree.
# Scaling a row by a nonzero constant leaves the kernel unchanged, and with it
# the canonical basis.


def _add_form_terms(row: list[int], u, w, n: int, stride: int = 1, offset: int = 0) -> None:
    """Add to ``row`` the coefficient of B[p][q] (column (p*n + q)*stride + offset) in B(u, w), for
    sparse integer vectors u and w."""
    for p, up in u:
        for q, wq in w:
            row[(p * n + q) * stride + offset] += up * wq


def _cyclic_rows(star: BilinearOp, alpha: LinearMap) -> tuple[list[list[int]], int]:
    """The scalar cyclic condition at each (i, j, k), lexicographic, in the unknowns B[p][q]; at D^2."""
    n = star.dim
    (table, images), d = _integers(star, alpha.matrix)
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [0] * (n * n)
                _add_form_terms(row, table[i][j], images[k], n)
                _add_form_terms(row, table[j][k], images[i], n)
                _add_form_terms(row, table[k][i], images[j], n)
                rows.append(row)
    return rows, d * d


def _invariance_rows(alpha: LinearMap) -> tuple[list[list[int]], int]:
    """B(alpha e_i, alpha e_j) - B[i][j] at each (i, j), in the unknowns B[p][q]; at D_alpha^2."""
    n = alpha.dim
    images, d_alpha = _cleared([alpha.image_of_basis(i) for i in range(n)])
    images = [_sparse(v) for v in images]
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            _add_form_terms(row, images[i], images[j], n)
            row[i * n + j] -= d_alpha * d_alpha
            rows.append(row)
    return rows, d_alpha * d_alpha


def _twist_rows(alpha: LinearMap) -> tuple[list[list[int]], int]:
    """Component c of alpha(w(e_i, e_j)) - w(alpha e_i, alpha e_j) at each (i, j, c), lexicographic,
    in the unknowns w[p][q][r] (column (p*n + q)*n + r); at D_alpha^2."""
    n = alpha.dim
    images, d_alpha = _cleared([alpha.image_of_basis(i) for i in range(n)])
    sparse = [_sparse(v) for v in images]
    rows = []
    for i in range(n):
        minus_image = [(p, -x) for p, x in sparse[i]]
        for j in range(n):
            for c in range(n):
                row = [0] * (n * n * n)
                for r, image in enumerate(images):
                    row[(i * n + j) * n + r] = image[c] * d_alpha
                _add_form_terms(row, minus_image, sparse[j], n, n, c)
                rows.append(row)
    return rows, d_alpha * d_alpha


def _substituted(ident: str, condition, forms, d_forms: int, n: int, arity: int) -> list[Violation]:
    """Each row of ``condition`` (rows, scale) applied to each integer vector of unknowns in
    ``forms`` (all cleared by d_forms); the rows of one basis tuple, in lexicographic order
    with ``arity`` indices, give its residual."""
    rows, scale = condition
    tuples = list(product(range(n), repeat=arity))
    per = len(rows) // len(tuples)
    out = []
    for t, where in enumerate(tuples):
        r = [sum(map(mul, row, f)) for row in rows[t * per : (t + 1) * per] for f in forms]
        if any(r):
            out.append(Violation(ident, tuple(i + 1 for i in where), _residual(r, scale * d_forms)))
    return out


def scalar_cocycle_residuals(a: HomAlgebra, b: ScalarForm) -> list[Violation]:
    """Direct substitution of one form, cleared once, into the cyclic and invariance rows."""
    n = a.dim
    (form,), d_b = _cleared([b.matrix.entries])
    return [
        *_substituted("cyclic", _cyclic_rows(star_product(a), a.alpha), [form], d_b, n, 3),
        *_substituted("invariance", _invariance_rows(a.alpha), [form], d_b, n, 2),
    ]


def vector_cocycle_residuals(a: HomAlgebra, w: VectorForm) -> list[Violation]:
    """The same for an algebra-valued form: each output component of the cyclic condition is
    the scalar one (its residual lists the components), and the twist rows read all of w."""
    n = a.dim
    cells, d_w = _cleared([w.entry(p, q) for p in range(n) for q in range(n)])
    components = [[cell[r] for cell in cells] for r in range(n)]
    return [
        *_substituted("cyclic", _cyclic_rows(star_product(a), a.alpha), components, d_w, n, 3),
        *_substituted("compat", _twist_rows(a.alpha), [[x for cell in cells for x in cell]], d_w, n, 2),
    ]


def scalar_cocycle_space(a: HomAlgebra, strict: bool = False) -> list[ScalarForm]:
    """Kernel basis of the scalar cyclic + invariance conditions (n^2 unknowns)."""
    star = _working_product(a, strict)
    n = a.dim
    rows = _cyclic_rows(star, a.alpha)[0] + _invariance_rows(a.alpha)[0]
    return [ScalarForm(n, Matrix(n, n, v)) for v in _kernel(rows, n * n)]


def vector_cocycle_space(a: HomAlgebra, strict: bool = False) -> list[VectorForm]:
    """Kernel basis of the algebra-valued cyclic + twist conditions.

    The basis is the one ``nullspace_basis`` gives for both conditions
    stacked in the n^3 unknowns omega[p][q][r] (column (p*n + q)*n + r): one
    form per free column, in column order.  It is found by two smaller
    eliminations:

    1. Component r of the cyclic condition is the scalar cyclic condition on
       B_r[p][q] = omega[p][q][r].  So omega is cyclic exactly when each
       omega[.][.][r] = sum_t c[t][r] b_t, with unique coefficients c, for
       the kernel b_1..b_d of one n^3 x n^2 system.
    2. The twist rows are solved in the d*n unknowns c[t][s] (column
       t*n + s): substituting omega[p][q][s] = sum_t c[t][s] b_t[p][q]
       turns the coefficient x of omega[p][q][s] into x b_t[p][q] on
       c[t][s].  The b_t are cleared as one block, by one D, which scales
       every row alike; clearing each b_t by its own D would rescale the
       columns of c and change its canonical basis.

    The map c -> omega is injective, so it carries the twist kernel onto the
    solution space.  It also carries the canonical basis onto the canonical
    basis: b_t is 1 at its free column f_t, 0 at the other free columns and
    0 past f_t, and f_t increases with t.  Hence omega's entries at the
    columns f_t*n + s are the c[t][s], omega's last nonzero entry is the
    image of c's, and t*n + s -> f_t*n + s keeps column order.  A basis that
    is 1 at its own free column, 0 at the other free columns and 0 past its
    own is unique, so the mapped basis is exactly the canonical one.
    """
    star = _working_product(a, strict)
    n = a.dim
    kernel = _kernel(_cyclic_rows(star, a.alpha)[0], n * n)
    block, _ = _cleared(kernel)
    at = [[(t, b[pq]) for t, b in enumerate(block) if b[pq]] for pq in range(n * n)]  # column pq of the block
    rows = []
    for twist_row in _twist_rows(a.alpha)[0]:
        row = [0] * (len(kernel) * n)
        for col, x in enumerate(twist_row):
            if x:
                pq, s = divmod(col, n)
                for t, bpq in at[pq]:
                    row[t * n + s] += x * bpq
        rows.append(row)
    out = []
    for c in _kernel(rows, len(kernel) * n):
        v = [F0] * (n * n * n)
        for t, b in enumerate(kernel):
            for s in range(n):
                cts = c[t * n + s]
                if cts:
                    for pq, bpq in enumerate(b):
                        if bpq:
                            v[pq * n + s] += cts * bpq
        cells = [v[pq * n : (pq + 1) * n] for pq in range(n * n)]
        out.append(VectorForm(n, [cells[p * n : (p + 1) * n] for p in range(n)]))
    return out


def is_nondegenerate(b: ScalarForm) -> bool:
    """True exactly when the form matrix has full rank."""
    return rank(b.matrix) == b.dim


def rhizaform_from_cocycle(a: HomAlgebra, b: ScalarForm, strict: bool = True) -> HomAlgebra:
    """Solve B(x succ y, z) = B(y, z*x) and B(x prec y, z) = B(x, y*z) for the splits.

    Needs b nondegenerate (Singular otherwise); in strict mode b must lie in
    the scalar cocycle space of the algebra (NotACocycle otherwise).  A split
    is (B^T)^-1 applied to the vector of B(y, e_k*x) (or B(x, y*e_k)) over k.
    Over int, with the working product, B and (B^T)^-1 cleared by one D, every
    cell is at D^3.
    """
    star = star_product(a)
    n = a.dim
    if b.dim != n:
        raise DimensionMismatch("form and algebra dimensions differ")
    bt_inv = invert(b.matrix.transpose())  # Singular for degenerate forms
    if strict:
        bad = scalar_cocycle_residuals(a, b)
        if bad:
            raise NotACocycle(f"form violates {sorted({v.identity_id for v in bad})}")
    (table, form, inv), d = _integers(star, b.matrix, bt_inv)
    paired = [[[0] * n for _ in range(n)] for _ in range(n)]  # paired[i][j][p] = B(e_p, e_i * e_j), at D^2
    for i in range(n):
        for j in range(n):
            _apply_into(paired[i][j], form, table[i][j])
    succ, prec = ([[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(2))
    for i in range(n):
        for j in range(n):
            _apply_into(succ[i][j], inv, _sparse([paired[k][i][j] for k in range(n)]))
            _apply_into(prec[i][j], inv, _sparse([paired[j][k][i] for k in range(n)]))
    return HomAlgebra.rhizaform(_divided(succ, d**3), _divided(prec, d**3), a.alpha)
