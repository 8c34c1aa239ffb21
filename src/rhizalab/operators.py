"""Two-sided actions, their duals, and the operator-induced splittings.

A bimodule stores one m x m matrix per algebra basis vector for each side;
``left[i]`` is the action of e_i from the left, ``right[i]`` from the right.
The dual module is realized concretely by matrix transposition (dual-basis
identification), so double-dualizing returns the original object bit for
bit.

An averaging (weight-zero Rota-Baxter) operator is the O-operator of the
regular bimodule (left action the product, right action its opposite), so
one O-identity residual and one induced splitting serve both, plain and in
families.  A nondegenerate cyclic form B gives the invertible O-operator
(B^T)^-1 of the coregular bimodule, the dual of the regular one (``cocycles``).

Bimodule report identity ids are ``bm1`` .. ``bm5`` in the printed order
(left-left, right-right, mixed, twist-left, twist-right), plus
``bm3_swapped`` for the mixed identity with the two algebra arguments
exchanged: the source states the mixed compatibility with two different
placements of the twist, so both readings' residuals are recorded (over all
basis pairs they coincide).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algmodel import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    _apply_into,
    _divided,
    _integers,
    _left_columns,
    _opposite,
    _product_into,
    _sparse,
    sum_product,
)
from .axioms import (
    CheckReport,
    Violation,
    _column_violations,
    check_hom_anti_associative,
    check_rhizaform,
)
from .errors import (
    DimensionMismatch,
    NotAnOOperator,
    NotARotaBaxterOperator,
    Singular,
)
from .exactlin import Matrix, invert


@dataclass(frozen=True)
class LinearOperator:
    """Linear map between (possibly different) spaces; matrix is target x source."""

    source_dim: int
    target_dim: int
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.target_dim or self.matrix.cols != self.source_dim:
            raise DimensionMismatch(
                f"operator matrix must be {self.target_dim}x{self.source_dim}, "
                f"got {self.matrix.rows}x{self.matrix.cols}"
            )

    @classmethod
    def from_rows(cls, rows) -> LinearOperator:
        m = Matrix.from_rows(rows)
        return cls(m.cols, m.rows, m)

    @classmethod
    def identity(cls, dim: int) -> LinearOperator:
        return cls(dim, dim, Matrix.identity(dim))

    @classmethod
    def zero(cls, source_dim: int, target_dim: int) -> LinearOperator:
        return cls(source_dim, target_dim, Matrix.zero(target_dim, source_dim))


@dataclass(frozen=True)
class Bimodule:
    """Module data (M, left, right, beta) over an algebra of dimension alg_dim."""

    alg_dim: int
    mod_dim: int
    left: tuple[Matrix, ...]
    right: tuple[Matrix, ...]
    beta: LinearMap

    def __post_init__(self):
        if len(self.left) != self.alg_dim or len(self.right) != self.alg_dim:
            raise DimensionMismatch("need one action matrix per algebra basis vector")
        for m in (*self.left, *self.right):
            if m.rows != self.mod_dim or m.cols != self.mod_dim:
                raise DimensionMismatch("action matrices must be mod_dim x mod_dim")
        if self.beta.dim != self.mod_dim:
            raise DimensionMismatch("beta must act on the module")


def _bimodule_from_products(left_op: BilinearOp, right_op: BilinearOp, alpha: LinearMap) -> Bimodule:
    """Actions L(x)(y) = x left_op y and R(x)(y) = y right_op x on the algebra itself."""
    n = alpha.dim
    left = tuple(
        Matrix.from_rows([[left_op.coeffs[i][j][k] for j in range(n)] for k in range(n)])
        for i in range(n)
    )
    right = tuple(
        Matrix.from_rows([[right_op.coeffs[j][i][k] for j in range(n)] for k in range(n)])
        for i in range(n)
    )
    return Bimodule(n, n, left, right, alpha)


def regular_bimodule(a: HomAlgebra) -> Bimodule:
    """Left/right multiplication actions of a mono algebra on itself."""
    return _bimodule_from_products(a.mul, a.mul, a.alpha)


def rhizaform_bimodule(a: HomAlgebra) -> Bimodule:
    """Actions L(x)(y) = x succ y and R(x)(y) = y prec x on the algebra itself."""
    return _bimodule_from_products(a.succ, a.prec, a.alpha)


def dual_bimodule(m: Bimodule) -> Bimodule:
    """Dual actions under the dual-basis identification: transpose and swap sides."""
    return Bimodule(
        m.alg_dim,
        m.mod_dim,
        tuple(mat.transpose() for mat in m.right),
        tuple(mat.transpose() for mat in m.left),
        LinearMap(m.mod_dim, m.beta.matrix.transpose()),
    )


def _transposed(table) -> list:
    """The integer table of the actions L(e_i)^T, for that of L (table[i][w] = L(e_i) e_w): with the
    sides swapped, the regular tables (table, _opposite(table)) give the coregular ones."""
    return [[_sparse([dict(col).get(w, 0) for col in cols]) for w in range(len(cols))] for cols in table]


def _products_sum(rows: int, *terms) -> list[list[int]]:
    """The sum of c A B over the terms (c, A, B), for integer matrices given by sparse columns,
    as dense columns."""
    out = [[0] * rows for _ in terms[0][2]]
    for c, a, b in terms:
        for col, b_col in zip(out, b):
            _apply_into(col, a, b_col, c)
    return out


def _equivariance_violations(rows: int, f, g, h, k, scale: int, prefix=()):
    """The nonzero columns of f g - h k, of ``rows`` rows, for integer columns cleared by one D (D^2 = ``scale``)."""
    return _column_violations("equivariance", _products_sum(rows, (1, f, g), (-1, h, k)), scale, prefix)


def check_bimodule(a: HomAlgebra, m: Bimodule) -> CheckReport:
    """The five action compatibilities over all algebra basis pairs.

    Violations are recorded per (algebra pair, module basis vector); the
    basis tuple is (i, j, u) with u the module index, or (i, u) for the
    twist identities.  Over int the product, the twists and the actions are
    cleared by one D, so every term of bm1-bm3 is at D^3; in bm4 and bm5,
    beta l(a) is at D^2 and is lifted by D to l(alpha(a)) beta's D^3.
    """
    mul = a.mul
    if m.alg_dim != a.dim:
        raise DimensionMismatch("bimodule is over an algebra of different dimension")
    n, md = a.dim, m.mod_dim
    (table, twist, beta, *actions), d = _integers(mul, a.alpha.matrix, m.beta.matrix, *m.left, *m.right)
    left, right = actions[:n], actions[n:]
    # left[i][w] is column w of l(e_i), so left is an integer table of the action
    l_alpha = [_left_columns(left, twist[i], md) for i in range(n)]  # l(alpha(e_i)), at D^2
    r_alpha = [_left_columns(right, twist[i], md) for i in range(n)]
    scale = d**3
    violations = []
    for i in range(n):
        for j in range(n):
            l_star = _left_columns(left, table[i][j], md)  # l(e_i * e_j), at D^2
            r_star = _left_columns(right, table[i][j], md)
            for ident, terms in (
                # bm1: l(alpha(a)) l(b) = -l(a*b) beta ;  bm2: r(alpha(b)) r(a) = -r(a*b) beta
                ("bm1", ((1, l_alpha[i], left[j]), (1, l_star, beta))),
                ("bm2", ((1, r_alpha[j], right[i]), (1, r_star, beta))),
                # bm3: l(alpha(a)) r(b) = -r(alpha(b)) l(a), then with the two algebra slots exchanged
                ("bm3", ((1, l_alpha[i], right[j]), (1, r_alpha[j], left[i]))),
                ("bm3_swapped", ((1, r_alpha[i], left[j]), (1, l_alpha[j], right[i]))),
            ):
                violations.extend(_column_violations(ident, _products_sum(md, *terms), scale, (i + 1, j + 1)))
        # bm4: beta l(a) = l(alpha(a)) beta ;  bm5: beta r(a) = r(alpha(a)) beta
        for ident, act, act_alpha in (("bm4", left[i], l_alpha[i]), ("bm5", right[i], r_alpha[i])):
            cols = _products_sum(md, (d, beta, act), (-1, act_alpha, beta))
            violations.extend(_column_violations(ident, cols, scale, (i + 1,)))
    return CheckReport.collect("bimodule", violations)


def _require_o_shapes(t: LinearOperator, a: HomAlgebra, m: Bimodule) -> None:
    if t.source_dim != m.mod_dim or t.target_dim != a.dim:
        raise DimensionMismatch("operator must map the module into the algebra")
    if m.alg_dim != a.dim:
        raise DimensionMismatch("bimodule is over an algebra of different dimension")


def _o_violations(ident: str, table, left, right, t_x, t_y, t_xy, scale: int, prefix=()):
    """Residual T_x(u)*T_y(v) - T_xy(L(T_x(u))v + R(T_y(v))u) on module basis pairs.

    ``table`` is the product's integer table, ``left`` and ``right`` those of
    the actions (left[i][w] = L(e_i) e_w) and the operators integer columns,
    all cleared by one D, so every term is at ``scale``, D^3.
    """
    n, md = len(table), len(t_x)
    for u in range(md):
        x_u, e_u = t_x[u], ((u, 1),)
        for v in range(md):
            y_v = t_y[v]
            inner = [0] * md  # L(T_x(u)) e_v + R(T_y(v)) e_u, at D^2
            _product_into(inner, left, x_u, ((v, 1),))
            _product_into(inner, right, y_v, e_u)
            r = [0] * n
            _product_into(r, table, x_u, y_v)
            _apply_into(r, t_xy, _sparse(inner), -1)
            if any(r):
                yield Violation(ident, (*prefix, u + 1, v + 1), r, scale)


def check_o_operator(t: LinearOperator, a: HomAlgebra, m: Bimodule) -> CheckReport:
    """T beta = alpha T and T(u)*T(v) = T(L(T(u))v + R(T(v))u) on module pairs.

    Over int, with the product, T, both twists and the actions cleared by one
    D, both sides of the first identity are at D^2 and of the second at D^3.
    """
    mul = a.mul
    _require_o_shapes(t, a, m)
    n = a.dim
    parts, d = _integers(mul, t.matrix, m.beta.matrix, a.alpha.matrix, *m.left, *m.right)
    table, images, beta, twist, *actions = parts
    violations = list(_equivariance_violations(n, images, beta, twist, images, d * d))
    violations.extend(_o_violations("o_identity", table, actions[:n], actions[n:], images, images, images, d**3))
    return CheckReport.collect("o_operator", violations)


def _require_rb_shape(r: LinearOperator, a: HomAlgebra) -> None:
    if r.source_dim != a.dim or r.target_dim != a.dim:
        raise DimensionMismatch("operator must act on the algebra")


def check_rota_baxter(r: LinearOperator, a: HomAlgebra) -> CheckReport:
    """Weight-zero averaging identity R(x)*R(y) = R(R(x)*y + x*R(y)), with R alpha = alpha R."""
    mul = a.mul
    _require_rb_shape(r, a)
    (table, cols, twist), d = _integers(mul, r.matrix, a.alpha.matrix)
    violations = list(_equivariance_violations(a.dim, cols, twist, twist, cols, d * d))
    violations.extend(_o_violations("rb_identity", table, table, _opposite(table), cols, cols, cols, d**3))
    return CheckReport.collect("rota_baxter", violations)


def _split(left, right, images, scale: int) -> tuple[BilinearOp, BilinearOp]:
    """u succ v = L(T(u))v and u prec v = R(T(v))u on the module, for the integer tables of
    the two actions (left[i][w] = L(e_i) e_w) and the integer columns of T; every cell is at
    ``scale``.

    On the regular bimodule, with left the product's table and right its opposite, this is
    the averaging-operator splitting x succ y = R(x)*y, x prec y = x*R(y).
    """
    md = len(images)
    succ, prec = ([[[0] * md for _ in range(md)] for _ in range(md)] for _ in range(2))
    for u in range(md):
        for v in range(md):
            _product_into(succ[u][v], left, images[u], ((v, 1),))
            _product_into(prec[u][v], right, images[v], ((u, 1),))
    return _divided(succ, scale), _divided(prec, scale)


def induced_rhizaform_from_o_operator(
    t: LinearOperator, a: HomAlgebra, m: Bimodule, strict: bool = True
) -> HomAlgebra:
    """Split products on the module: u succ v = L(T(u))v, u prec v = R(T(v))u.

    Over int, with T and the actions cleared by one D, every cell is at D^2.
    """
    _require_o_shapes(t, a, m)
    if strict:
        rep = check_o_operator(t, a, m)
        if not rep.passed:
            raise NotAnOOperator(f"operator fails {rep.failed_ids()}")
    n = a.dim
    (images, *actions), d = _integers(t.matrix, *m.left, *m.right)
    return HomAlgebra.rhizaform(*_split(actions[:n], actions[n:], images, d * d), m.beta)


def induced_rhizaform_from_rb(r: LinearOperator, a: HomAlgebra, strict: bool = True) -> HomAlgebra:
    """Split products x succ y = R(x)*y and x prec y = x*R(y) on the algebra.

    Over int, with the product and R cleared by one D, every cell is at D^2.
    """
    _require_rb_shape(r, a)
    if strict:
        rep = check_rota_baxter(r, a)
        if not rep.passed:
            raise NotARotaBaxterOperator(f"operator fails {rep.failed_ids()}")
    (table, cols), d = _integers(a.mul, r.matrix)
    return HomAlgebra.rhizaform(*_split(table, _opposite(table), cols, d * d), a.alpha)


def check_homomorphism(f: LinearOperator, a1: HomAlgebra, a2: HomAlgebra) -> CheckReport:
    """f(x o1 y) = f(x) o2 f(y) for every named product, and alpha2 f = f alpha1.

    Over int, with both algebras' products and twists and f cleared by one D,
    f(x o1 y) is at D^2 and is lifted by D to the right side's D^3.
    """
    if f.source_dim != a1.dim or f.target_dim != a2.dim:
        raise DimensionMismatch("map endpoints do not match the two algebras")
    if set(a1.products) != set(a2.products):
        raise DimensionMismatch("algebras of different kinds admit no product-wise comparison")
    names = sorted(a1.products)
    ops = (a.products[name] for a in (a1, a2) for name in names)
    (*tables, images, twist1, twist2), d = _integers(*ops, f.matrix, a1.alpha.matrix, a2.alpha.matrix)
    violations = list(_equivariance_violations(a2.dim, images, twist1, twist2, images, d * d))
    for p, name in enumerate(names):
        op1, op2 = tables[p], tables[len(names) + p]
        for i in range(a1.dim):
            for j in range(a1.dim):
                r = [0] * a2.dim
                _apply_into(r, images, op1[i][j], d)
                _product_into(r, op2, images[i], images[j], -1)
                if any(r):
                    violations.append(Violation(f"product_{name}", (i + 1, j + 1), r, d**3))
    return CheckReport.collect("homomorphism", violations)


def compatible_from_invertible_o_operator(
    t: LinearOperator, a: HomAlgebra, m: Bimodule, strict: bool = True
) -> HomAlgebra:
    """Transport the induced splitting along an invertible operator back to the algebra.

    x succ y = T(L(x)(T^-1 y)) and x prec y = T(R(y)(T^-1 x)); the sum of the
    two outputs recovers the original product exactly.  Over int, with T,
    T^-1 and the actions cleared by one D, every cell is at D^3.
    """
    if t.source_dim != t.target_dim:
        raise Singular("operator between spaces of different dimension is not invertible")
    t_inv = invert(t.matrix)  # raises Singular when degenerate
    _require_o_shapes(t, a, m)
    if strict:
        rep = check_o_operator(t, a, m)
        if not rep.passed:
            raise NotAnOOperator(f"operator fails {rep.failed_ids()}")
    n = a.dim
    (images, back, *actions), d = _integers(t.matrix, t_inv, *m.left, *m.right)
    return HomAlgebra.rhizaform(*_transported(actions[:n], actions[n:], images, back, d**3), a.alpha)


def _transported(left, right, images, back, scale: int) -> tuple[BilinearOp, BilinearOp]:
    """x succ y = T(L(x)(T^-1 y)) and x prec y = T(R(y)(T^-1 x)), for the integer tables of the two
    actions and the integer columns of T and T^-1; every cell is at ``scale``."""
    n = len(images)
    succ, prec = ([[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(2))
    for i in range(n):
        for j in range(n):
            l_inner, r_inner = [0] * n, [0] * n  # L(e_i)(T^-1 e_j) and R(e_j)(T^-1 e_i)
            _product_into(l_inner, left, ((i, 1),), back[j])
            _product_into(r_inner, right, ((j, 1),), back[i])
            _apply_into(succ[i][j], images, _sparse(l_inner))
            _apply_into(prec[i][j], images, _sparse(r_inner))
    return _divided(succ, scale), _divided(prec, scale)


def rhizaform_equivalence_verdict(a: HomAlgebra) -> tuple[bool, bool]:
    """(split check, anti-associativity of the sum AND bimodule check) for one algebra.

    The two booleans agree for every input; tests exercise both directions.
    """
    split_ok = check_rhizaform(a).passed
    summed = HomAlgebra.mono(sum_product(a), a.alpha)
    route_ok = (
        check_hom_anti_associative(summed.mul, summed.alpha).passed
        and check_bimodule(summed, rhizaform_bimodule(a)).passed
    )
    return split_ok, route_ok
