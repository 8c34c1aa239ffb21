"""Cyclic-form solvers and the splitting construction from a nondegenerate form.

Two readings of the invariant bilinear form are implemented side by side:

* ``ScalarForm`` — values in the ground field; the cyclic condition
  B(x*y, alpha(z)) + B(y*z, alpha(x)) + B(z*x, alpha(y)) = 0 together with
  invariance B(alpha(x), alpha(y)) = B(x, y).  This is the reading that
  supports nondegeneracy and hence the induced splitting.
* ``VectorForm`` — values in the algebra; same cyclic condition plus the
  twist compatibility alpha(w(x, y)) = w(alpha(x), alpha(y)).  This is the
  reading the low-dimensional tables follow.

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
from fractions import Fraction

from .algmodel import BilinearOp, HomAlgebra, LinearMap, _apply_into, _int_columns, _int_tables, star_product
from .axioms import Violation, _residual, _twisted, check_hom_anti_associative
from .errors import DimensionMismatch, NotACocycle, NotAntiAssociative
from .exactlin import (
    F0,
    Matrix,
    Vector,
    _cleared,
    basis_vec,
    invert,
    nullspace_basis,
    rank,
)


@dataclass(frozen=True)
class ScalarForm:
    """Field-valued bilinear form; B(e_i, e_j) = matrix[i][j]."""

    dim: int
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.dim or self.matrix.cols != self.dim:
            raise DimensionMismatch("form matrix must be dim x dim")

    def value(self, x: Vector, y: Vector) -> Fraction:
        out = F0
        for i, xi in enumerate(x):
            if xi:
                row = self.matrix.row(i)
                for j, yj in enumerate(y):
                    if yj:
                        out += xi * yj * row[j]
        return out


class VectorForm(BilinearOp):
    """Algebra-valued bilinear form; same tensor layout as a product."""


def scalar_cocycle_residuals(a: HomAlgebra, b: ScalarForm) -> list[Violation]:
    """Direct substitution of one form into the defining conditions, over int.

    With the working product cleared by D, the twist by D_alpha and the form
    by D_B, every cyclic term is at D_B D D_alpha; in the invariance
    condition B[i][j] is lifted by D_alpha^2 to B(alpha e_i, alpha e_j)'s
    D_B D_alpha^2.
    """
    n = a.dim
    (star,), d = _int_tables([star_product(a)])
    (twist,), d_alpha = _int_columns([a.alpha.matrix])
    gram, d_b = _cleared([b.matrix.row(p) for p in range(n)])
    # paired[k][p] = B(e_p, alpha e_k)
    paired = [[sum(row[q] * c for q, c in twist[k]) for row in gram] for k in range(n)]

    def value(u, k):  # B(u, alpha e_k) for a sparse integer vector u
        return sum(c * paired[k][p] for p, c in u)

    out = []
    scale = d_b * d * d_alpha
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = value(star[i][j], k) + value(star[j][k], i) + value(star[k][i], j)
                if r:
                    out.append(Violation("cyclic", (i + 1, j + 1, k + 1), _residual((r,), scale)))
    scale = d_b * d_alpha * d_alpha
    for i in range(n):
        for j in range(n):
            r = value(twist[i], j) - gram[i][j] * d_alpha * d_alpha
            if r:
                out.append(Violation("invariance", (i + 1, j + 1), _residual((r,), scale)))
    return out


def vector_cocycle_residuals(a: HomAlgebra, w: VectorForm) -> list[Violation]:
    """The same for an algebra-valued form, over int.

    With the working product and the form cleared by one D, each cyclic
    term is at D^2 D_alpha; in the twist condition alpha(w(e_i, e_j)) is
    lifted by D_alpha to w(alpha e_i, alpha e_j)'s D D_alpha^2.
    """
    n = a.dim
    t = _twisted([star_product(a), w], a.alpha)
    star, form, form_left, form_right = t.tables[0], t.tables[1], t.left[1], t.right[1]
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = [0] * n
                _apply_into(r, form_right[k], star[i][j])
                _apply_into(r, form_right[i], star[j][k])
                _apply_into(r, form_right[j], star[k][i])
                if any(r):
                    out.append(Violation("cyclic", (i + 1, j + 1, k + 1), _residual(r, t.scale)))
    scale = t.d * t.d_alpha * t.d_alpha
    for i in range(n):
        for j in range(n):
            r = [0] * n
            _apply_into(r, t.twist, form[i][j], t.d_alpha)
            _apply_into(r, form_left[i], t.twist[j], -1)
            if any(r):
                out.append(Violation("compat", (i + 1, j + 1), _residual(r, scale)))
    return out


def _working_product(a: HomAlgebra, strict: bool) -> BilinearOp:
    """The product both solvers read; strict mode requires it to be anti-associative."""
    star = star_product(a)
    if strict and not check_hom_anti_associative(star, a.alpha).passed:
        raise NotAntiAssociative("the working product is not anti-associative")
    return star


def _add_form_terms(row: list[int], u: list[int], w: list[int]) -> None:
    """Add to ``row`` the coefficient of B[p][q] (column p*n + q) in B(u, w)."""
    n = len(u)
    for p, up in enumerate(u):
        if up:
            for q, wq in enumerate(w):
                if wq:
                    row[p * n + q] += up * wq


def _cyclic_rows(star: BilinearOp, alpha: LinearMap) -> list[list[int]]:
    """The scalar cyclic condition at each (i, j, k), lexicographic, in the unknowns B[p][q].

    Each row is the condition times D_star * D_alpha, where D_star and
    D_alpha are the lcms of the denominators of the structure constants and
    of the twist, so every row is an integer row.  Scaling a row by a
    nonzero constant leaves the kernel unchanged, and with it the canonical
    kernel basis ``nullspace_basis`` returns.
    """
    n = star.dim
    products, _ = _cleared([star.entry(i, j) for i in range(n) for j in range(n)])
    images, _ = _cleared([alpha.image_of_basis(i) for i in range(n)])
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [0] * (n * n)
                _add_form_terms(row, products[i * n + j], images[k])
                _add_form_terms(row, products[j * n + k], images[i])
                _add_form_terms(row, products[k * n + i], images[j])
                rows.append(row)
    return rows


def scalar_cocycle_space(a: HomAlgebra, strict: bool = False) -> list[ScalarForm]:
    """Kernel basis of the scalar cyclic + invariance conditions (n^2 unknowns).

    The invariance rows B(alpha e_i, alpha e_j) - B[i][j] are scaled by
    D_alpha^2, like the cyclic rows in ``_cyclic_rows``, to integer rows.
    """
    star = _working_product(a, strict)
    alpha, n = a.alpha, a.dim
    rows = _cyclic_rows(star, alpha)
    images, d_alpha = _cleared([alpha.image_of_basis(i) for i in range(n)])
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            _add_form_terms(row, images[i], images[j])
            row[i * n + j] -= d_alpha * d_alpha
            rows.append(row)
    return [ScalarForm(n, Matrix(n, n, v)) for v in nullspace_basis(Matrix.from_rows(rows))]


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
    2. The twist rows alpha(omega(e_i, e_j)) = omega(alpha e_i, alpha e_j)
       are solved in the d*n unknowns c[t][s] (column t*n + s).

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
    alpha, n = a.alpha, a.dim
    kernel = nullspace_basis(Matrix.from_rows(_cyclic_rows(star, alpha)))
    forms = [ScalarForm(n, Matrix(n, n, b)) for b in kernel]
    d = len(kernel)
    images = [alpha.image_of_basis(i) for i in range(n)]
    amat = alpha.matrix
    rows = []
    for i in range(n):
        for j in range(n):
            twisted = [b.value(images[i], images[j]) for b in forms]
            for comp in range(n):
                # alpha(omega(e_i, e_j))_comp - omega(alpha e_i, alpha e_j)_comp
                row = [F0] * (d * n)
                for t, b in enumerate(kernel):
                    bij = b[i * n + j]
                    if bij:
                        for s in range(n):
                            row[t * n + s] = amat.at(comp, s) * bij
                    row[t * n + comp] -= twisted[t]
                rows.append(row)
    out = []
    for c in nullspace_basis(Matrix.from_rows(rows)):
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
    the scalar cocycle space of the algebra (NotACocycle otherwise).
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
    basis = [basis_vec(n, i) for i in range(n)]
    succ = BilinearOp(n, [
        [bt_inv.apply(tuple(b.value(basis[j], star.entry(k, i)) for k in range(n))) for j in range(n)]
        for i in range(n)
    ])
    prec = BilinearOp(n, [
        [bt_inv.apply(tuple(b.value(basis[i], star.entry(j, k)) for k in range(n))) for j in range(n)]
        for i in range(n)
    ])
    return HomAlgebra.rhizaform(succ, prec, a.alpha)
