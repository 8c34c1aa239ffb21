"""Cyclic-form solvers and the splitting construction from a nondegenerate form.

A cyclic form of width w has n^2 * w unknowns B[p][q][s]: each of its w
components must satisfy the cyclic condition
B(x*y, alpha(z)) + B(y*z, alpha(x)) + B(z*x, alpha(y)) = 0, and the whole
form one second condition.  The two readings are the two widths:

* A scalar form (w = 1), valued in the ground field, with invariance
  B(alpha(x), alpha(y)) = B(x, y).  It is its Gram ``Matrix``,
  B[p][q] = B(e_p, e_q).  This is the reading that supports nondegeneracy
  and hence the induced splitting.
* ``VectorForm`` (w = n), valued in the algebra, with the twist
  compatibility alpha(w(x, y)) = w(alpha(x), alpha(y)).  This is the
  reading the low-dimensional tables follow.

Each condition is stated once, as integer rows in the form's unknowns and
the scale they carry: ``_cyclic_rows`` (one dense row per rotation orbit of
(i, j, k)), and ``_invariance_rows`` and ``_twist_rows`` (sparse rows, the
(column, value) pairs of their nonzero entries).  One solver, ``_solved``,
over int from the rows to the forms, and one residual check,
``_violations``, read them for either width; the public functions only set
the width, the second condition and the output shape.  Every cyclic row lies
in R^n (x) im(alpha), so the solver stops the cyclic elimination at
n * rank(alpha) pivots.  With ``strict``, the solvers first require the
working product to be anti-associative.

The splitting from a nondegenerate scalar form B is the coregular case of
the O-operator code, as an averaging operator is the regular case: the
compatible splitting of (B^T)^-1 on the dual of the regular bimodule, whose
integer tables it reads off the product's, with B^T inverted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

from .algmodel import BilinearOp, HomAlgebra, _opposite, _sparse, _summed
from .axioms import Violation, _sum_anti_associative, _Twisted, _view
from .errors import DimensionMismatch, NotACocycle, NotAntiAssociative
from .exactlin import F0, Matrix, _cleared, _forward, _kernel, invert, rank
from .operators import _transported, _transposed


@dataclass(frozen=True, eq=False, repr=False, init=False)
class VectorForm(BilinearOp):
    """Algebra-valued bilinear form; same storage, constructors, equality and repr as a product."""


# --- the conditions, as integer rows and their scale ------------------------
# Each row is its condition read off the algebra's integer view
# (``axioms._view``), whose products, twist and further matrices are all
# cleared by one D, so every row is an integer row, at D to the condition's
# degree; the rows that read only alpha carry it at D^2 too.  Scaling a row by
# a nonzero constant leaves the kernel unchanged, and with it the canonical
# basis.  The cyclic rows go to the elimination as they are, dense; the second
# condition's rows are sparse, since they are only spread into the kernel's
# coordinates (``_spread``) or substituted into (``_violations``).


def _add_form_terms(row: list[int], u, w, n: int) -> None:
    """Add to ``row`` the coefficient of B[p][q] (column p*n + q) in B(u, w), for sparse integer vectors
    u and w."""
    for p, up in u:
        for q, wq in w:
            row[p * n + q] += up * wq


def _cyclic_rows(view: _Twisted, strict: bool = False) -> tuple[dict[tuple[int, int, int], list[int]], int]:
    """The scalar cyclic condition of the working product in the unknowns B[p][q], at D^2, at each
    rotation orbit {(i, j, k), (j, k, i), (k, i, j)}, on which its three terms rotate into one row:
    (n^3 + 2n)/3 rows, keyed by the orbit's least triple, lexicographic.  The working product is the
    sum of the products of ``view`` (``star_product``), so its integer table is the sum of theirs.
    With ``strict``, it must be anti-associative, read off the same view."""
    n = len(view.twist)
    if strict and not _sum_anti_associative(view):
        raise NotAntiAssociative("the working product is not anti-associative")
    table, images = _summed(view.tables, n), view.twist
    rows = {}
    for i, j, k in product(range(n), repeat=3):
        if (i, j, k) <= (j, k, i) and (i, j, k) <= (k, i, j):
            row = rows[i, j, k] = [0] * (n * n)
            _add_form_terms(row, table[i][j], images[k], n)
            _add_form_terms(row, table[j][k], images[i], n)
            _add_form_terms(row, table[k][i], images[j], n)
    return rows, view.d * view.d


def _invariance_rows(view: _Twisted) -> tuple[list[list[tuple[int, int]]], int]:
    """B(alpha e_i, alpha e_j) - B[i][j] at each (i, j), as sparse rows in the unknowns B[p][q]; at D^2.
    Of the terms of B(alpha e_i, alpha e_j), only the one at B[i][j] meets -B[i][j]."""
    n, images, dd = len(view.twist), view.twist, view.d * view.d
    diag = [dict(image).get(i, 0) for i, image in enumerate(images)]  # component i of alpha(e_i)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [(p * n + q, x * y) for p, x in images[i] for q, y in images[j] if p != i or q != j]
            if own := diag[i] * diag[j] - dd:
                row.append((i * n + j, own))
            rows.append(row)
    return rows, dd


def _twist_rows(view: _Twisted) -> tuple[list[list[tuple[int, int]]], int]:
    """Component c of alpha(w(e_i, e_j)) - w(alpha e_i, alpha e_j) at each (i, j, c), lexicographic,
    as sparse rows in the unknowns w[p][q][r] (column (p*n + q)*n + r); at D^2.  The two parts meet
    only at w[i][j][c]."""
    n, images, d = len(view.twist), view.twist, view.d
    diag = [dict(image).get(i, 0) for i, image in enumerate(images)]  # component i of alpha(e_i)
    lifted = [[] for _ in range(n)]  # lifted[c]: the nonzero (r, component c of alpha(e_r)) for r != c, at D^2
    for r, image in enumerate(images):
        for c, x in image:
            if c != r:
                lifted[c].append((r, x * d))
    rows = []
    for i in range(n):
        for j in range(n):
            cell = (i * n + j) * n
            minus = [((p * n + q) * n, -x * y) for p, x in images[i] for q, y in images[j] if p != i or q != j]
            for c in range(n):
                row = [(cell + r, x) for r, x in lifted[c]]
                row += [(col + c, x) for col, x in minus]
                if own := diag[c] * d - diag[i] * diag[j]:
                    row.append((cell + c, own))
                rows.append(row)
    return rows, d * d


def _violations(view: _Twisted, flat, d: int, width: int, ident: str, second) -> list[Violation]:
    """Direct substitution of one flat form (column (p*n + q)*width + s), ``flat`` over ``d`` (its
    entries ints or Fractions, cleared once), into the rows of ``view``: each cyclic row goes to each
    of the form's ``width`` components once per rotation orbit, and its residual is reported at each
    triple of the orbit; the rows of ``second`` (named ``ident``) go to the whole form.  The rows of
    one basis tuple, in lexicographic order, give its residual."""
    n = len(view.twist)
    if len(flat) != n * n * width:
        raise DimensionMismatch("form and algebra dimensions differ")
    (form,), d_flat = _cleared([flat])
    orbits, cyclic_scale = _cyclic_rows(view)
    components = [form[s::width] for s in range(width)]
    by_orbit = {t: [sum(map(mul, row, f)) for f in components] for t, row in orbits.items()}
    cyclic = [by_orbit[min(t, t[1:] + t[:1], t[2:] + t[:2])] for t in product(range(n), repeat=3)]
    rows, second_scale = second(view)
    per = len(rows) // (n * n)
    pairs = [[sum(form[col] * x for col, x in row) for row in rows[t * per : (t + 1) * per]] for t in range(n * n)]
    out = []
    for name, residuals, scale, arity in (("cyclic", cyclic, cyclic_scale, 3), (ident, pairs, second_scale, 2)):
        for where, r in zip(product(range(1, n + 1), repeat=arity), residuals):
            if any(r):
                out.append(Violation(name, where, r, scale * d * d_flat))
    return out


def _spread(entries, sparse: list, width: int, size: int) -> list[int]:
    """The size*width vector with sum_a x[a*width + s] * y at column b*width + s, over (b, y) in
    ``sparse[a]``, for the (column, x) pairs ``entries`` of a vector x: each strided column of x times
    the sparse rows, from its nonzero entries."""
    out = [0] * (size * width)
    for col, x in entries:
        if x:
            a, s = divmod(col, width)
            for b, y in sparse[a]:
                out[b * width + s] += x * y
    return out


def _reduced_system(view: _Twisted, strict: bool, width: int, second) -> tuple[int, list, int, list[list[int]]]:
    """For the kernel b_1..b_d of the scalar cyclic rows of ``view``, cleared as one block by the lcm D
    of the D_t that ``_kernel`` clears each b_t by: d, the block's sparse rows (the nonzero (pq, b_t[pq])
    for each t) and D; and the rows of ``second`` in the d*width unknowns c[t][s] (column t*width + s);
    see ``_solved``.  Strict needs anti-associativity.

    Each cyclic row is a sum of u (x) alpha(e_k) over the columns p*n + q, so it lies in
    R^n (x) im(alpha), and the system has rank at most n * rank(alpha): its forward pass stops there."""
    n = len(view.twist)
    twist_rank = len(_forward([[dict(image).get(c, 0) for c in range(n)] for image in view.twist]))
    kernel = _kernel(list(_cyclic_rows(view, strict)[0].values()), n * n, n * twist_rank)
    d = lcm(*(d_t for _, d_t in kernel))
    block = [[(pq, x * (d // d_t)) for pq, x in enumerate(b) if x] for b, d_t in kernel]
    at = [[] for _ in range(n * n)]  # column pq of the block: the nonzero (t, b_t[pq])
    for t, b in enumerate(block):
        for pq, x in b:
            at[pq].append((t, x))
    return len(block), block, d, [_spread(row, at, width, len(block)) for row in second(view)[0]]


def _solved(view: _Twisted, strict: bool, width: int, second) -> list[tuple[list[int], int]]:
    """Kernel basis of the cyclic condition on each of ``width`` components plus ``second``, as flat
    integer forms in the n^2 * width unknowns B[p][q][s] (column (p*n + q)*width + s) and their scales.

    This is the basis ``nullspace_basis`` gives for both conditions stacked
    (one form per free column, in column order), found by two smaller
    eliminations.  Component s of the cyclic condition is the scalar one on
    B[.][.][s], so B is cyclic exactly when B[.][.][s] = sum_t c[t][s] b_t,
    with unique c, for the kernel b_1..b_d of one (n^3 + 2n)/3 x n^2
    system.  The rows of ``second`` are then solved in the d*width unknowns
    c[t][s] (column t*width + s): the coefficient x of B[p][q][s] becomes
    x b_t[p][q] on c[t][s].  The b_t are cleared as one block, by one D,
    which scales every row alike; clearing each b_t by its own D would
    rescale the columns of c and change its canonical basis.

    The injective map c -> B carries the kernel in c onto the solution space,
    and its canonical basis onto the canonical one: b_t is 1 at its free
    column f_t, 0 at the other free columns and past f_t, and f_t increases
    with t.  So B is c[t][s] at column f_t*width + s, its last nonzero entry
    is the image of c's, and t*width + s -> f_t*width + s keeps column order;
    a basis that is 1 at its own free column and 0 at the others and past it
    is unique.  Each c comes from ``_kernel`` cleared by its own D_c, and B,
    spread over int from each nonzero c[t][s] times the sparse row of b_t,
    is at D D_c.
    """
    size, block, d, rows = _reduced_system(view, strict, width, second)
    n2 = len(view.twist) ** 2
    return [(_spread(enumerate(c), block, width, n2), d * d_c) for c, d_c in _kernel(rows, size * width)]


def scalar_cocycle_residuals(a: HomAlgebra, b: Matrix) -> list[Violation]:
    """Direct substitution of one form, its Gram matrix ``b``, into the cyclic and invariance rows."""
    if b.rows != b.cols:  # n^2 entries in another shape are no form on the algebra
        raise DimensionMismatch("form and algebra dimensions differ")
    return _violations(_view(a), b.entries, 1, 1, "invariance", _invariance_rows)


def vector_cocycle_residuals(a: HomAlgebra, w: VectorForm) -> list[Violation]:
    """The same for an algebra-valued form, with the twist rows: the cyclic residual lists its n components."""
    form = [dict(cell).get(r, 0) for row in w.table for cell in row for r in range(w.dim)]
    return _violations(_view(a), form, w.d, a.dim, "compat", _twist_rows)


def scalar_cocycle_space(a: HomAlgebra, strict: bool = False) -> list[Matrix]:
    """Kernel basis of the scalar cyclic + invariance conditions (n^2 unknowns, column p*n + q), as Gram
    matrices."""
    n = a.dim
    forms = _solved(_view(a), strict, 1, _invariance_rows)
    return [Matrix(n, n, [Fraction(x, d) if x else F0 for x in v]) for v, d in forms]


def vector_cocycle_space(a: HomAlgebra, strict: bool = False) -> list[VectorForm]:
    """Kernel basis of the algebra-valued cyclic + twist conditions (n^3 unknowns, column (p*n + q)*n + r)."""
    n = a.dim
    forms = _solved(_view(a), strict, n, _twist_rows)
    # each flat form cut into its n^2 cells of n
    cells = [([_sparse(cell) if any(cell) else () for cell in zip(*[iter(v)] * n)], d) for v, d in forms]
    return [VectorForm._from_table([c[p * n : (p + 1) * n] for p in range(n)], d) for c, d in cells]


def _vector_cocycle_dim(view: _Twisted) -> int:
    """len(vector_cocycle_space(a)) for the view of a, from two ranks without building the basis: the
    map c -> B of ``_solved`` is injective, so the space has the dimension of the kernel in c."""
    n = len(view.twist)
    size, _, _, rows = _reduced_system(view, False, n, _twist_rows)
    return size * n - len(_forward(rows))


def is_nondegenerate(b: Matrix) -> bool:
    """True exactly when the Gram matrix ``b`` is square and has full rank."""
    return b.rows == b.cols == rank(b)


def rhizaform_from_cocycle(a: HomAlgebra, b: Matrix, strict: bool = True) -> HomAlgebra:
    """Solve B(x succ y, z) = B(y, z*x) and B(x prec y, z) = B(x, y*z) for the splits.

    Needs b nondegenerate (Singular otherwise); in strict mode b must lie in
    the scalar cocycle space of the algebra (NotACocycle otherwise).  The
    splits are those of the invertible O-operator T = (B^T)^-1 on the
    coregular bimodule (the dual of the regular one) of the working product:
    x succ y = T(R(x)^T B^T y) and x prec y = T(L(y)^T B^T x).  Over int, one
    view of the algebra with B^T and T (``axioms._view``) serves the strict
    residual check and the splitting: the working product's table is the sum
    of the products', the coregular actions are its transposed regular ones
    (``operators._transposed``), and every cell is at D^3.
    """
    n = a.dim
    if (b.rows, b.cols) != (n, n):
        raise DimensionMismatch("form and algebra dimensions differ")
    bt = b.transpose()
    t = _view(a, bt, invert(bt))  # Singular for degenerate forms
    if strict:
        bad = _violations(t, b.entries, 1, 1, "invariance", _invariance_rows)
        if bad:
            raise NotACocycle(f"form violates {sorted({v.identity_id for v in bad})}")
    back, images = t.mats
    table = _summed(t.tables, n)
    coregular = _transposed(_opposite(table)), _transposed(table)
    return HomAlgebra.rhizaform(*_transported(*coregular, images, back, t.d**3), a.alpha)
