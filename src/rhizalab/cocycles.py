"""Cyclic-form solvers and the splitting construction from a nondegenerate form.

Two readings of the invariant bilinear form are implemented side by side:

* ``ScalarForm`` — values in the ground field; the cyclic condition
  B(x*y, alpha(z)) + B(y*z, alpha(x)) + B(z*x, alpha(y)) = 0 together with
  invariance B(alpha(x), alpha(y)) = B(x, y).  This is the reading that
  supports nondegeneracy and hence the induced splitting.
* ``VectorForm`` — values in the algebra; same cyclic condition plus the
  twist compatibility alpha(w(x, y)) = w(alpha(x), alpha(y)).  This is the
  reading the low-dimensional tables follow.

Both solvers stack the defining linear conditions in lexicographic order of
their quantifiers and return a deterministic kernel basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algmodel import BilinearOp, HomAlgebra, eval_product, star_product
from .axioms import Violation, check_hom_anti_associative
from .errors import DimensionMismatch, NotACocycle, NotAntiAssociative
from .exactlin import (
    F0,
    Matrix,
    Vector,
    basis_vec,
    invert,
    nullspace_basis,
    rank,
    vec_add,
    vec_is_zero,
    vec_sub,
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
    """Direct substitution of one form into the defining conditions."""
    star, alpha = star_product(a), a.alpha
    n = a.dim
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = (
                    b.value(star.entry(i, j), alpha.image_of_basis(k))
                    + b.value(star.entry(j, k), alpha.image_of_basis(i))
                    + b.value(star.entry(k, i), alpha.image_of_basis(j))
                )
                if r:
                    out.append(Violation("cyclic", (i + 1, j + 1, k + 1), (r,)))
    for i in range(n):
        for j in range(n):
            r = b.value(alpha.image_of_basis(i), alpha.image_of_basis(j)) - b.matrix.at(i, j)
            if r:
                out.append(Violation("invariance", (i + 1, j + 1), (r,)))
    return out


def vector_cocycle_residuals(a: HomAlgebra, w: VectorForm) -> list[Violation]:
    star, alpha = star_product(a), a.alpha
    n = a.dim
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = vec_add(
                    vec_add(
                        eval_product(w, star.entry(i, j), alpha.image_of_basis(k)),
                        eval_product(w, star.entry(j, k), alpha.image_of_basis(i)),
                    ),
                    eval_product(w, star.entry(k, i), alpha.image_of_basis(j)),
                )
                if not vec_is_zero(r):
                    out.append(Violation("cyclic", (i + 1, j + 1, k + 1), r))
    for i in range(n):
        ai = alpha.image_of_basis(i)
        for j in range(n):
            r = vec_sub(
                alpha.apply(w.entry(i, j)),
                eval_product(w, ai, alpha.image_of_basis(j)),
            )
            if not vec_is_zero(r):
                out.append(Violation("compat", (i + 1, j + 1), r))
    return out


def scalar_cocycle_space(a: HomAlgebra, strict: bool = False) -> list[ScalarForm]:
    """Kernel basis of the scalar cyclic + invariance conditions (n^2 unknowns)."""
    star, alpha = star_product(a), a.alpha
    if strict and not check_hom_anti_associative(star, alpha).passed:
        raise NotAntiAssociative("the working product is not anti-associative")
    n = a.dim
    unknowns = n * n
    rows = []

    def form_row(u: Vector, w: Vector) -> list[Fraction]:
        # coefficient of B[p][q] in B(u, w)
        row = [F0] * unknowns
        for p, up in enumerate(u):
            if up:
                for q, wq in enumerate(w):
                    if wq:
                        row[p * n + q] += up * wq
        return row

    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = form_row(star.entry(i, j), alpha.image_of_basis(k))
                row = [
                    r + s
                    for r, s in zip(row, form_row(star.entry(j, k), alpha.image_of_basis(i)))
                ]
                row = [
                    r + s
                    for r, s in zip(row, form_row(star.entry(k, i), alpha.image_of_basis(j)))
                ]
                rows.append(row)
    for i in range(n):
        for j in range(n):
            row = form_row(alpha.image_of_basis(i), alpha.image_of_basis(j))
            row[i * n + j] -= 1
            rows.append(row)

    kernel = _nullspace(rows, unknowns)
    return [
        ScalarForm(n, Matrix(n, n, v))
        for v in kernel
    ]


def vector_cocycle_space(a: HomAlgebra) -> list[VectorForm]:
    """Kernel basis of the algebra-valued cyclic + twist conditions (n^3 unknowns)."""
    star, alpha = star_product(a), a.alpha
    n = a.dim
    unknowns = n * n * n

    def idx(p: int, q: int, r: int) -> int:
        return (p * n + q) * n + r

    def value_row(u: Vector, w: Vector, comp: int) -> list[Fraction]:
        # coefficient of omega[p][q][comp] in omega(u, w)_comp
        row = [F0] * unknowns
        for p, up in enumerate(u):
            if up:
                for q, wq in enumerate(w):
                    if wq:
                        row[idx(p, q, comp)] += up * wq
        return row

    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for comp in range(n):
                    row = value_row(star.entry(i, j), alpha.image_of_basis(k), comp)
                    row = [
                        r + s
                        for r, s in zip(
                            row, value_row(star.entry(j, k), alpha.image_of_basis(i), comp)
                        )
                    ]
                    row = [
                        r + s
                        for r, s in zip(
                            row, value_row(star.entry(k, i), alpha.image_of_basis(j), comp)
                        )
                    ]
                    rows.append(row)
    amat = alpha.matrix
    for i in range(n):
        ai = alpha.image_of_basis(i)
        for j in range(n):
            aj = alpha.image_of_basis(j)
            for comp in range(n):
                # alpha(omega(e_i, e_j))_comp - omega(alpha e_i, alpha e_j)_comp
                row = [F0] * unknowns
                for s in range(n):
                    c = amat.at(comp, s)
                    if c:
                        row[idx(i, j, s)] += c
                for p, up in enumerate(ai):
                    if up:
                        for q, wq in enumerate(aj):
                            if wq:
                                row[idx(p, q, comp)] -= up * wq
                rows.append(row)

    kernel = _nullspace(rows, unknowns)
    forms = []
    for v in kernel:
        coeffs = [
            [[v[idx(p, q, r)] for r in range(n)] for q in range(n)] for p in range(n)
        ]
        forms.append(VectorForm(n, coeffs))
    return forms


def _nullspace(rows: list[list[Fraction]], unknowns: int) -> list[Vector]:
    if not rows:
        return nullspace_basis(Matrix.zero(1, unknowns))
    return nullspace_basis(Matrix.from_rows(rows))


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
