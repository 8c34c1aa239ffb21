"""Two-sided actions, their duals, and the operator-induced splittings.

A bimodule stores one m x m matrix per algebra basis vector for each side;
``left[i]`` is the action of e_i from the left, ``right[i]`` from the right.
The dual module is realized concretely by matrix transposition (dual-basis
identification), so double-dualizing returns the original object bit for
bit.

Bimodule report identity ids are ``bm1`` .. ``bm5`` in the printed order
(left-left, right-right, mixed, twist-left, twist-right), plus
``bm3_swapped`` for the mixed identity with the two algebra arguments
exchanged: the source states the mixed compatibility with two different
placements of the twist, so both readings' residuals are recorded (over all
basis pairs they coincide).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algmodel import BilinearOp, HomAlgebra, LinearMap, eval_product, sum_product
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
from .exactlin import Matrix, Vector, basis_vec, invert, vec_add, vec_is_zero, vec_sub


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

    def apply(self, x: Vector) -> Vector:
        return self.matrix.apply(x)


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

    def act_left(self, x: Vector) -> Matrix:
        """Matrix of l(x) for an algebra vector x."""
        return self._act(self.left, x)

    def act_right(self, x: Vector) -> Matrix:
        return self._act(self.right, x)

    def _act(self, mats: tuple[Matrix, ...], x: Vector) -> Matrix:
        out = Matrix.zero(self.mod_dim, self.mod_dim)
        for xi, mat in zip(x, mats):
            if xi:
                out = out.add(mat.scale(xi))
        return out


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


def check_bimodule(a: HomAlgebra, m: Bimodule) -> CheckReport:
    """The five action compatibilities over all algebra basis pairs.

    Violations are recorded per (algebra pair, module basis vector); the
    basis tuple is (i, j, u) with u the module index, or (i, u) for the
    twist identities.
    """
    mul = a.mul
    if m.alg_dim != a.dim:
        raise DimensionMismatch("bimodule is over an algebra of different dimension")
    n = a.dim
    alpha, beta = a.alpha, m.beta
    violations = []
    for i in range(n):
        l_ai = m.act_left(alpha.image_of_basis(i))
        r_ai = m.act_right(alpha.image_of_basis(i))
        for j in range(n):
            l_aj = m.act_left(alpha.image_of_basis(j))
            r_aj = m.act_right(alpha.image_of_basis(j))
            star = mul.entry(i, j)
            l_star = m.act_left(star)
            r_star = m.act_right(star)
            # bm1: l(alpha(a)) l(b) = -l(a*b) beta
            bm1 = l_ai.times(m.left[j]).add(l_star.times(beta.matrix))
            # bm2: r(alpha(b)) r(a) = -r(a*b) beta
            bm2 = r_aj.times(m.right[i]).add(r_star.times(beta.matrix))
            # bm3: l(alpha(a)) r(b) = -r(alpha(b)) l(a)
            bm3 = l_ai.times(m.right[j]).add(r_aj.times(m.left[i]))
            # bm3 with the roles of the two algebra slots exchanged
            bm3s = r_ai.times(m.left[j]).add(l_aj.times(m.right[i]))
            for ident, mat in (("bm1", bm1), ("bm2", bm2), ("bm3", bm3), ("bm3_swapped", bm3s)):
                violations.extend(_column_violations(ident, mat, (i + 1, j + 1)))
        # bm4: beta l(a) = l(alpha(a)) beta ;  bm5: beta r(a) = r(alpha(a)) beta
        bm4 = beta.matrix.times(m.left[i]).sub(l_ai.times(beta.matrix))
        bm5 = beta.matrix.times(m.right[i]).sub(r_ai.times(beta.matrix))
        for ident, mat in (("bm4", bm4), ("bm5", bm5)):
            violations.extend(_column_violations(ident, mat, (i + 1,)))
    return CheckReport.collect("bimodule", violations)


def check_o_operator(t: LinearOperator, a: HomAlgebra, m: Bimodule) -> CheckReport:
    """T beta = alpha T and T(u)*T(v) = T(L(T(u))v + R(T(v))u) on module pairs."""
    mul = a.mul
    if t.source_dim != m.mod_dim or t.target_dim != a.dim:
        raise DimensionMismatch("operator must map the module into the algebra")
    inter = t.matrix.times(m.beta.matrix).sub(a.alpha.matrix.times(t.matrix))
    violations = list(_column_violations("equivariance", inter))
    for u in range(m.mod_dim):
        tu = t.apply(basis_vec(m.mod_dim, u))
        for v in range(m.mod_dim):
            tv = t.apply(basis_vec(m.mod_dim, v))
            lhs = eval_product(mul, tu, tv)
            inner = vec_add(
                m.act_left(tu).apply(basis_vec(m.mod_dim, v)),
                m.act_right(tv).apply(basis_vec(m.mod_dim, u)),
            )
            resid = vec_sub(lhs, t.apply(inner))
            if not vec_is_zero(resid):
                violations.append(Violation("o_identity", (u + 1, v + 1), resid))
    return CheckReport.collect("o_operator", violations)


def _rb_violations(
    mul: BilinearOp, r_x: LinearOperator, r_y: LinearOperator, r_xy: LinearOperator, prefix=()
):
    """Residual R_x(x)*R_y(y) - R_xy(R_x(x)*y + x*R_y(y)) on basis pairs."""
    n = mul.dim
    for i in range(n):
        ri = r_x.apply(basis_vec(n, i))
        for j in range(n):
            rj = r_y.apply(basis_vec(n, j))
            lhs = eval_product(mul, ri, rj)
            inner = vec_add(
                eval_product(mul, ri, basis_vec(n, j)),
                eval_product(mul, basis_vec(n, i), rj),
            )
            resid = vec_sub(lhs, r_xy.apply(inner))
            if not vec_is_zero(resid):
                yield Violation("rb_identity", (*prefix, i + 1, j + 1), resid)


def check_rota_baxter(r: LinearOperator, a: HomAlgebra) -> CheckReport:
    """Weight-zero averaging identity R(x)*R(y) = R(R(x)*y + x*R(y)), with R alpha = alpha R."""
    mul = a.mul
    if r.source_dim != a.dim or r.target_dim != a.dim:
        raise DimensionMismatch("operator must act on the algebra")
    inter = r.matrix.times(a.alpha.matrix).sub(a.alpha.matrix.times(r.matrix))
    violations = list(_column_violations("equivariance", inter))
    violations.extend(_rb_violations(mul, r, r, r))
    return CheckReport.collect("rota_baxter", violations)


def _rb_splitting(r: LinearOperator, mul: BilinearOp) -> tuple[BilinearOp, BilinearOp]:
    """x succ y = R(x)*y and x prec y = x*R(y)."""
    n = mul.dim
    basis = [basis_vec(n, i) for i in range(n)]
    images = [r.apply(e) for e in basis]
    succ = BilinearOp(n, [[eval_product(mul, images[i], basis[j]) for j in range(n)] for i in range(n)])
    prec = BilinearOp(n, [[eval_product(mul, basis[i], images[j]) for j in range(n)] for i in range(n)])
    return succ, prec


def induced_rhizaform_from_o_operator(
    t: LinearOperator, a: HomAlgebra, m: Bimodule, strict: bool = True
) -> HomAlgebra:
    """Split products on the module: u succ v = L(T(u))v, u prec v = R(T(v))u."""
    if strict:
        rep = check_o_operator(t, a, m)
        if not rep.passed:
            raise NotAnOOperator(f"operator fails {rep.failed_ids()}")
    md = m.mod_dim
    images = [t.apply(basis_vec(md, u)) for u in range(md)]
    lefts = [m.act_left(x) for x in images]
    rights = [m.act_right(x) for x in images]
    # u succ v = L(T(u)) v and u prec v = R(T(v)) u
    succ = BilinearOp(md, [[lefts[u].column(v) for v in range(md)] for u in range(md)])
    prec = BilinearOp(md, [[rights[v].column(u) for v in range(md)] for u in range(md)])
    return HomAlgebra.rhizaform(succ, prec, m.beta)


def induced_rhizaform_from_rb(r: LinearOperator, a: HomAlgebra, strict: bool = True) -> HomAlgebra:
    """Split products x succ y = R(x)*y and x prec y = x*R(y) on the algebra."""
    if strict:
        rep = check_rota_baxter(r, a)
        if not rep.passed:
            raise NotARotaBaxterOperator(f"operator fails {rep.failed_ids()}")
    succ, prec = _rb_splitting(r, a.mul)
    return HomAlgebra.rhizaform(succ, prec, a.alpha)


def check_homomorphism(f: LinearOperator, a1: HomAlgebra, a2: HomAlgebra) -> CheckReport:
    """f(x o1 y) = f(x) o2 f(y) for every named product, and alpha2 f = f alpha1."""
    if f.source_dim != a1.dim or f.target_dim != a2.dim:
        raise DimensionMismatch("map endpoints do not match the two algebras")
    if set(a1.products) != set(a2.products):
        raise DimensionMismatch("algebras of different kinds admit no product-wise comparison")
    inter = f.matrix.times(a1.alpha.matrix).sub(a2.alpha.matrix.times(f.matrix))
    violations = list(_column_violations("equivariance", inter))
    for name in sorted(a1.products):
        op1, op2 = a1.products[name], a2.products[name]
        for i in range(a1.dim):
            fi = f.apply(basis_vec(a1.dim, i))
            for j in range(a1.dim):
                lhs = f.apply(op1.entry(i, j))
                rhs = eval_product(op2, fi, f.apply(basis_vec(a1.dim, j)))
                resid = vec_sub(lhs, rhs)
                if not vec_is_zero(resid):
                    violations.append(Violation(f"product_{name}", (i + 1, j + 1), resid))
    return CheckReport.collect("homomorphism", violations)


def compatible_from_invertible_o_operator(
    t: LinearOperator, a: HomAlgebra, m: Bimodule, strict: bool = True
) -> HomAlgebra:
    """Transport the induced splitting along an invertible operator back to the algebra.

    x succ y = T(L(x)(T^-1 y)) and x prec y = T(R(y)(T^-1 x)); the sum of the
    two outputs recovers the original product exactly.
    """
    if t.source_dim != t.target_dim:
        raise Singular("operator between spaces of different dimension is not invertible")
    t_inv = invert(t.matrix)  # raises Singular when degenerate
    if strict:
        rep = check_o_operator(t, a, m)
        if not rep.passed:
            raise NotAnOOperator(f"operator fails {rep.failed_ids()}")
    n = a.dim
    back = [t_inv.column(j) for j in range(n)]
    succ = BilinearOp(n, [[t.apply(m.left[i].apply(back[j])) for j in range(n)] for i in range(n)])
    prec = BilinearOp(n, [[t.apply(m.right[j].apply(back[i])) for j in range(n)] for i in range(n)])
    return HomAlgebra.rhizaform(succ, prec, a.alpha)


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
