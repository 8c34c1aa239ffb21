"""Cyclic-form solvers and the splitting construction from a nondegenerate form.

A cyclic form of width w has n^2 * w unknowns B[p][q][s]: each of its w
components must satisfy the cyclic condition
B(x*y, alpha(z)) + B(y*z, alpha(x)) + B(z*x, alpha(y)) = 0, and the whole
form one second condition.  The two readings are the two widths:

* ``ScalarForm`` (w = 1), valued in the ground field, with invariance
  B(alpha(x), alpha(y)) = B(x, y).  This is the reading that supports
  nondegeneracy and hence the induced splitting.
* ``VectorForm`` (w = n), valued in the algebra, with the twist
  compatibility alpha(w(x, y)) = w(alpha(x), alpha(y)).  This is the
  reading the low-dimensional tables follow.

Each condition is stated once, as integer rows in the form's unknowns and
the scale they carry: ``_cyclic_rows``, ``_invariance_rows`` and
``_twist_rows``.  One solver, ``_solved``, and one residual check,
``_violations``, read them for either width; the public functions only set
the width, the second condition and the output shape.  With ``strict``, the
solvers first require the working product to be anti-associative.

The splitting from a nondegenerate scalar form B is the coregular case of
the O-operator code, as an averaging operator is the regular case: the
compatible splitting of (B^T)^-1 on the dual of the regular bimodule, whose
integer tables it reads off the product's, with B^T inverted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from .algmodel import BilinearOp, HomAlgebra, LinearMap, _integers, _opposite, _sparse, _summed
from .axioms import Violation, _sum_anti_associative, _twisted
from .errors import DimensionMismatch, NotACocycle, NotAntiAssociative
from .exactlin import F0, Matrix, _cleared, _echelon, _kernel, invert, rank
from .operators import _transported, _transposed


@dataclass(frozen=True)
class ScalarForm:
    """Field-valued bilinear form; B(e_i, e_j) = matrix[i][j]."""

    dim: int
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.dim or self.matrix.cols != self.dim:
            raise DimensionMismatch("form matrix must be dim x dim")


@dataclass(frozen=True, eq=False, repr=False)
class VectorForm(BilinearOp):
    """Algebra-valued bilinear form; same tensor layout, equality and repr as a product."""


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


def _cyclic_rows(a: HomAlgebra, strict: bool = False) -> tuple[list[list[int]], int]:
    """The scalar cyclic condition of the working product at each (i, j, k), lexicographic, in the
    unknowns B[p][q]; at D^2.  The working product is the sum of the products of ``a``
    (``star_product``), so its integer table is the sum of theirs.  With ``strict``, it must be
    anti-associative, read off the same clearing."""
    n = a.dim
    if strict:
        t = _twisted([*a.products.values()], a.alpha)
        if not _sum_anti_associative(t):
            raise NotAntiAssociative("the working product is not anti-associative")
        tables, images, d = t.tables, t.twist, t.d
    else:
        (*tables, images), d = _integers(*a.products.values(), a.alpha.matrix)
    table = _summed(tables, n)
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
    (images,), d_alpha = _integers(alpha.matrix)
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


def _violations(a: HomAlgebra, flat, width: int, ident: str, second) -> list[Violation]:
    """Direct substitution of one flat form (column (p*n + q)*width + s), cleared once: the cyclic
    rows go to each of its ``width`` components, the rows of ``second`` (named ``ident``) to the
    whole form.  The rows of one basis tuple, in lexicographic order, give its residual."""
    n = a.dim
    if len(flat) != n * n * width:
        raise DimensionMismatch("form and algebra dimensions differ")
    (form,), d = _cleared([flat])
    out = []
    for name, (rows, scale), forms, arity in (
        ("cyclic", _cyclic_rows(a), [form[s::width] for s in range(width)], 3),
        (ident, second(a.alpha), [form], 2),
    ):
        tuples = list(product(range(n), repeat=arity))
        per = len(rows) // len(tuples)
        for t, where in enumerate(tuples):
            r = [sum(map(mul, row, f)) for row in rows[t * per : (t + 1) * per] for f in forms]
            if any(r):
                out.append(Violation(name, tuple(i + 1 for i in where), r, scale * d))
    return out


def _reduced_system(a: HomAlgebra, strict: bool, width: int, second) -> tuple[list, list[list[int]]]:
    """The kernel b_1..b_d of the scalar cyclic rows, and the rows of ``second`` in the d*width
    unknowns c[t][s] (column t*width + s); see ``_solved``.  Strict mode requires the working
    product to be anti-associative."""
    n = a.dim
    kernel = _kernel(_cyclic_rows(a, strict)[0], n * n)
    block, _ = _cleared(kernel)
    at = [[(t, b[pq]) for t, b in enumerate(block) if b[pq]] for pq in range(n * n)]  # column pq of the block
    rows = []
    for second_row in second(a.alpha)[0]:
        row = [0] * (len(kernel) * width)
        for col, x in enumerate(second_row):
            if x:
                pq, s = divmod(col, width)
                for t, bpq in at[pq]:
                    row[t * width + s] += x * bpq
        rows.append(row)
    return kernel, rows


def _solved(a: HomAlgebra, strict: bool, width: int, second) -> list[list[Fraction]]:
    """Kernel basis of the cyclic condition on each of ``width`` components plus ``second``, as
    flat forms in the n^2 * width unknowns B[p][q][s] (column (p*n + q)*width + s).

    This is the basis ``nullspace_basis`` gives for both conditions stacked
    (one form per free column, in column order), found by two smaller
    eliminations.  Component s of the cyclic condition is the scalar one on
    B[.][.][s], so B is cyclic exactly when B[.][.][s] = sum_t c[t][s] b_t,
    with unique c, for the kernel b_1..b_d of one n^3 x n^2 system.  The rows
    of ``second`` are then solved in the d*width unknowns c[t][s] (column
    t*width + s): the coefficient x of B[p][q][s] becomes x b_t[p][q] on
    c[t][s].  The b_t are cleared as one block, by one D, which scales every
    row alike; clearing each b_t by its own D would rescale the columns of c
    and change its canonical basis.

    The injective map c -> B carries the kernel in c onto the solution space,
    and its canonical basis onto the canonical one: b_t is 1 at its free
    column f_t, 0 at the other free columns and past f_t, and f_t increases
    with t.  So B is c[t][s] at column f_t*width + s, its last nonzero entry
    is the image of c's, and t*width + s -> f_t*width + s keeps column order;
    a basis that is 1 at its own free column and 0 at the others and past it
    is unique.
    """
    kernel, rows = _reduced_system(a, strict, width, second)
    n = a.dim
    out = []
    for c in _kernel(rows, len(kernel) * width):
        v = [F0] * (n * n * width)
        for t, b in enumerate(kernel):
            for s in range(width):
                cts = c[t * width + s]
                if cts:
                    for pq, bpq in enumerate(b):
                        if bpq:
                            v[pq * width + s] += cts * bpq
        out.append(v)
    return out


def scalar_cocycle_residuals(a: HomAlgebra, b: ScalarForm) -> list[Violation]:
    """Direct substitution of one form into the cyclic and invariance rows."""
    return _violations(a, b.matrix.entries, 1, "invariance", _invariance_rows)


def vector_cocycle_residuals(a: HomAlgebra, w: VectorForm) -> list[Violation]:
    """The same for an algebra-valued form, with the twist rows: the cyclic residual lists its n components."""
    return _violations(a, [x for row in w.coeffs for cell in row for x in cell], a.dim, "compat", _twist_rows)


def scalar_cocycle_space(a: HomAlgebra, strict: bool = False) -> list[ScalarForm]:
    """Kernel basis of the scalar cyclic + invariance conditions (n^2 unknowns, column p*n + q)."""
    n = a.dim
    return [ScalarForm(n, Matrix(n, n, v)) for v in _solved(a, strict, 1, _invariance_rows)]


def vector_cocycle_space(a: HomAlgebra, strict: bool = False) -> list[VectorForm]:
    """Kernel basis of the algebra-valued cyclic + twist conditions (n^3 unknowns, column (p*n + q)*n + r)."""
    n = a.dim
    cells = [[v[pq * n : (pq + 1) * n] for pq in range(n * n)] for v in _solved(a, strict, n, _twist_rows)]
    return [VectorForm(n, [c[p * n : (p + 1) * n] for p in range(n)]) for c in cells]


def _vector_cocycle_dim(a: HomAlgebra) -> int:
    """len(vector_cocycle_space(a)), read from the ranks without building the basis: the map
    c -> B of ``_solved`` is injective, so the space has the dimension of the kernel in c."""
    kernel, rows = _reduced_system(a, False, a.dim, _twist_rows)
    return len(kernel) * a.dim - len(_echelon(rows)[1])


def is_nondegenerate(b: ScalarForm) -> bool:
    """True exactly when the form matrix has full rank."""
    return rank(b.matrix) == b.dim


def rhizaform_from_cocycle(a: HomAlgebra, b: ScalarForm, strict: bool = True) -> HomAlgebra:
    """Solve B(x succ y, z) = B(y, z*x) and B(x prec y, z) = B(x, y*z) for the splits.

    Needs b nondegenerate (Singular otherwise); in strict mode b must lie in
    the scalar cocycle space of the algebra (NotACocycle otherwise).  The
    splits are those of the invertible O-operator T = (B^T)^-1 on the
    coregular bimodule (the dual of the regular one) of the working product:
    x succ y = T(R(x)^T B^T y) and x prec y = T(L(y)^T B^T x).  Over int, with
    the products, B^T and T cleared by one D, the working product's table is
    the sum of theirs, the coregular actions are its transposed regular ones
    (``operators._transposed``), and every cell is at D^3.
    """
    n = a.dim
    if b.dim != n:
        raise DimensionMismatch("form and algebra dimensions differ")
    bt = b.matrix.transpose()
    bt_inv = invert(bt)  # Singular for degenerate forms
    if strict:
        bad = scalar_cocycle_residuals(a, b)
        if bad:
            raise NotACocycle(f"form violates {sorted({v.identity_id for v in bad})}")
    (*tables, back, images), d = _integers(*a.products.values(), bt, bt_inv)
    table = _summed(tables, n)
    coregular = _transposed(_opposite(table)), _transposed(table)
    return HomAlgebra.rhizaform(*_transported(*coregular, images, back, d**3), a.alpha)
