"""Two-sided actions, their duals, and the operator-induced splittings.

A bimodule stores one m x m matrix per algebra basis vector for each side;
``left[i]`` is the action of e_i from the left, ``right[i]`` from the right.
The dual module is realized concretely by matrix transposition (dual-basis
identification), so double-dualizing returns the original object bit for
bit.

An averaging (weight-zero Rota-Baxter) operator is the O-operator of the regular bimodule (left
action the product, right action its opposite), and a plain operator is the one-element family: one
clearing (``_cleared``), one induced splitting (``_split``) and one report (``_o_report``) serve
every O-operator and averaging check and induction, plain and in families.  The O-identity is the
homomorphism residual (``axioms._homomorphism_violations``) of T from the summed splitting into the
algebra, so a strict induction checks the tables it outputs.  A nondegenerate cyclic form B gives the
invertible O-operator (B^T)^-1 of the coregular bimodule, the dual of the regular one (``cocycles``).

Bimodule report identity ids are ``bm1`` .. ``bm5`` in the printed order (left-left, right-right,
mixed, twist-left, twist-right), plus ``bm3_swapped`` for the mixed identity with the two algebra
arguments exchanged: the source states the mixed compatibility with two different placements of the
twist, so both readings' residuals are recorded.  Over all basis pairs they coincide: ``bm3_swapped``
at (i, j) is ``bm3`` at (j, i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algmodel import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    _apply_into,
    _left_columns,
    _opposite,
    _sparse,
    _summed,
    sum_product,
)
from .axioms import (
    CheckReport,
    _column_violations,
    _homomorphism_violations,
    _require_rb_shape,
    _twisted,
    check_hom_anti_associative,
    check_rhizaform,
)
from .errors import (
    DimensionMismatch,
    NotAnOOperator,
    NotARotaBaxterOperator,
    Singular,
)
from .exactlin import F0, Matrix, invert


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
    """Actions L(x)(y) = x left_op y and R(x)(y) = y right_op x on the algebra itself, read off the
    integer tables of left_op and of the opposite of right_op."""
    n, sides = alpha.dim, []
    for table, d in ((left_op.table, left_op.d), (_opposite(right_op.table), right_op.d)):
        mats = []
        for cells in table:  # cells[j] holds e_i o e_j, column j of the action of e_i
            entries = [F0] * (n * n)
            for j, cell in enumerate(cells):
                for k, c in cell:
                    entries[k * n + j] = Fraction(c, d)
            mats.append(Matrix(n, n, entries))
        sides.append(tuple(mats))
    return Bimodule(n, n, *sides, alpha)


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


def check_bimodule(a: HomAlgebra, m: Bimodule) -> CheckReport:
    """The five action compatibilities over all algebra basis pairs.

    Violations are recorded per (algebra pair, module basis vector); the
    basis tuple is (i, j, u) with u the module index, or (i, u) for the
    twist identities.  Over int, with the product, the twists and the actions
    cleared by one D (``_cleared``), every term of bm1-bm3 is at D^3; in bm4
    and bm5, beta l(a) is at D^2, lifted by D to l(alpha(a)) beta's D^3.
    """
    c = _cleared(a.mul, a.alpha, [], m)
    n, md, d = a.dim, m.mod_dim, c.d
    table, twist, left, right, beta = c.table, c.twist, c.left, c.right, c.beta
    l_alpha = [_left_columns(left, twist[i], md) for i in range(n)]  # l(alpha(e_i)), at D^2
    r_alpha = [_left_columns(right, twist[i], md) for i in range(n)]
    scale = d**3
    # bm3: l(alpha(a)) r(b) = -r(alpha(b)) l(a); with the two algebra slots exchanged it is bm3 at (b, a)
    bm3 = [[_products_sum(md, (1, l_alpha[i], right[j]), (1, r_alpha[j], left[i])) for j in range(n)] for i in range(n)]
    violations = []
    for i in range(n):
        for j in range(n):
            l_star = _left_columns(left, table[i][j], md)  # l(e_i * e_j), at D^2
            r_star = _left_columns(right, table[i][j], md)
            for ident, cols in (
                # bm1: l(alpha(a)) l(b) = -l(a*b) beta ;  bm2: r(alpha(b)) r(a) = -r(a*b) beta
                ("bm1", _products_sum(md, (1, l_alpha[i], left[j]), (1, l_star, beta))),
                ("bm2", _products_sum(md, (1, r_alpha[j], right[i]), (1, r_star, beta))),
                ("bm3", bm3[i][j]),
                ("bm3_swapped", bm3[j][i]),
            ):
                violations.extend(_column_violations(ident, cols, scale, (i + 1, j + 1)))
        # bm4: beta l(a) = l(alpha(a)) beta ;  bm5: beta r(a) = r(alpha(a)) beta
        for ident, act, act_alpha in (("bm4", left[i], l_alpha[i]), ("bm5", right[i], r_alpha[i])):
            cols = _products_sum(md, (d, beta, act), (-1, act_alpha, beta))
            violations.extend(_column_violations(ident, cols, scale, (i + 1,)))
    return CheckReport.collect("bimodule", violations)


def _require_o_shapes(t: Matrix, a: HomAlgebra, m: Bimodule) -> None:
    if t.cols != m.mod_dim or t.rows != a.dim:
        raise DimensionMismatch("operator must map the module into the algebra")


@dataclass(frozen=True)
class _Cleared:
    """The product's table (None when not read), alpha, the operators' columns and a bimodule's tables
    (left[i][w] = L(e_i) e_w) and beta, read off one view (``axioms._twisted``), in integer form."""

    table: list | None
    twist: list
    ops: list  # ops[lam]: the columns of operator lam, then those of any further matrix
    left: list
    right: list
    beta: list
    d: int


def _cleared(mul: BilinearOp | None, alpha: LinearMap, mats, m: Bimodule | None = None) -> _Cleared:
    """One view (``axioms._twisted``) of the product ``mul`` (None when not read: an O-operator
    splitting without its check), ``alpha``, the matrices ``mats`` and the bimodule ``m``, which must
    be over an algebra of alpha's dimension, or else the regular bimodule."""
    if m is None:
        t = _twisted([mul], alpha, *mats)
        return _Cleared(t.tables[0], t.twist, t.mats, t.tables[0], _opposite(t.tables[0]), t.twist, t.d)
    if m.alg_dim != alpha.dim:
        raise DimensionMismatch("bimodule is over an algebra of different dimension")
    k, n = len(mats), m.alg_dim
    t = _twisted([] if mul is None else [mul], alpha, *mats, *m.left, *m.right, m.beta.matrix)
    *ops, beta = t.mats
    return _Cleared(t.tables[0] if t.tables else None, t.twist, ops[:k], ops[k : k + n], ops[k + n :], beta, t.d)


def _o_report(name: str, ident: str, c: _Cleared, splits, s=None) -> CheckReport:
    """T_lam beta = alpha T_lam for each operator (at D^2), then, as ``ident``, for each (lam, omega) the
    O-identity T_lam(u)*T_omega(v) - T_{lam.omega}(u succ_lam v + u prec_omega v) on module basis pairs
    (at D^3): the homomorphism residual of T_{lam.omega}, lifted by -1, read off ``c`` and ``splits``
    (splits[lam]: the tables of succ_lam and prec_lam, ``_split``).  Over the semigroup ``s`` violations
    are prefixed with (lam,) and (lam, omega); without one T_0 is the one-element family, no prefix."""
    size, n, md = s.size if s else 1, len(c.twist), len(c.beta)
    violations = []
    for lam in range(size):
        cols = _products_sum(n, (1, c.ops[lam], c.beta), (-1, c.twist, c.ops[lam]))  # T_lam beta - alpha T_lam
        violations.extend(_column_violations("equivariance", cols, c.d**2, (lam,) if s else ()))
    t_left = [[_left_columns(c.table, x, n) for x in c.ops[lam]] for lam in range(size)]  # T_lam(e_u) * -
    for lam in range(size):
        for omega in range(size):
            lo, prefix = (s.mul(lam, omega), (lam, omega)) if s else (0, ())
            src = _summed([splits[lam][0], splits[omega][1]], md)
            terms = [(1, t_left[lam], c.ops[omega])]
            violations.extend(_homomorphism_violations(ident, c.ops[lo], src, terms, -1, c.d**3, prefix))
    return CheckReport.collect(name, violations)


def check_o_operator(t: Matrix, a: HomAlgebra, m: Bimodule) -> CheckReport:
    """T beta = alpha T and T(u)*T(v) = T(L(T(u))v + R(T(v))u) on module pairs."""
    mul = a.mul
    _require_o_shapes(t, a, m)
    c = _cleared(mul, a.alpha, [t], m)
    return _o_report("o_operator", "o_identity", c, [_split(c.left, c.right, c.ops[0])])


def check_rota_baxter(r: Matrix, a: HomAlgebra) -> CheckReport:
    """Weight-zero averaging identity R(x)*R(y) = R(R(x)*y + x*R(y)), with R alpha = alpha R."""
    mul = a.mul
    _require_rb_shape(r, a)
    c = _cleared(mul, a.alpha, [r])
    return _o_report("rota_baxter", "rb_identity", c, [_split(c.left, c.right, c.ops[0])])


def _split(left, right, images) -> tuple[list, list]:
    """The integer tables, at D^2, of u succ v = L(T(u))v and u prec v = R(T(v))u on the module, for
    the integer tables of the two actions (left[i][w] = L(e_i) e_w) and the integer columns of T, all
    at D.  Row u of succ holds the columns of L(T(u)), column v of prec those of R(T(v)).

    On the regular bimodule, with left the product's table and right its opposite, this is
    the averaging-operator splitting x succ y = R(x)*y, x prec y = x*R(y).
    """
    md = len(images)
    return [_left_columns(left, x, md) for x in images], _opposite([_left_columns(right, x, md) for x in images])


def induced_rhizaform_from_o_operator(
    t: Matrix, a: HomAlgebra, m: Bimodule, strict: bool = True
) -> HomAlgebra:
    """Split products on the module: u succ v = L(T(u))v, u prec v = R(T(v))u.

    One clearing serves the strict check and the splitting; every cell is at D^2.
    """
    _require_o_shapes(t, a, m)
    c = _cleared(a.mul if strict else None, a.alpha, [t], m)
    split = _split(c.left, c.right, c.ops[0])
    if strict and not (rep := _o_report("o_operator", "o_identity", c, [split])).passed:
        raise NotAnOOperator(f"operator fails {rep.failed_ids()}")
    return HomAlgebra.rhizaform(*(BilinearOp._from_table(tb, c.d**2) for tb in split), m.beta)


def induced_rhizaform_from_rb(r: Matrix, a: HomAlgebra, strict: bool = True) -> HomAlgebra:
    """Split products x succ y = R(x)*y and x prec y = x*R(y) on the algebra.

    One clearing serves the strict check and the splitting; every cell is at D^2.
    """
    _require_rb_shape(r, a)
    c = _cleared(a.mul, a.alpha, [r])
    split = _split(c.left, c.right, c.ops[0])
    if strict and not (rep := _o_report("rota_baxter", "rb_identity", c, [split])).passed:
        raise NotARotaBaxterOperator(f"operator fails {rep.failed_ids()}")
    return HomAlgebra.rhizaform(*(BilinearOp._from_table(tb, c.d**2) for tb in split), a.alpha)


def check_homomorphism(f: Matrix, a1: HomAlgebra, a2: HomAlgebra) -> CheckReport:
    """f(x o1 y) = f(x) o2 f(y) for every named product, and alpha2 f = f alpha1.

    Over int, with both algebras' products and twists and f cleared by one D,
    f(x o1 y) is at D^2 and is lifted by D to the right side's D^3.
    """
    if f.cols != a1.dim or f.rows != a2.dim:
        raise DimensionMismatch("map endpoints do not match the two algebras")
    if set(a1.products) != set(a2.products):
        raise DimensionMismatch("algebras of different kinds admit no product-wise comparison")
    names = sorted(a1.products)
    t = _twisted([a.products[name] for a in (a1, a2) for name in names], a1.alpha, f, a2.alpha.matrix)
    images, twist2 = t.mats
    cols = _products_sum(a2.dim, (1, images, t.twist), (-1, twist2, images))  # f alpha1 - alpha2 f
    violations = list(_column_violations("equivariance", cols, t.d**2))
    for p, name in enumerate(names):
        dst_left = [_left_columns(t.tables[len(names) + p], x, a2.dim) for x in images]
        terms = [(-1, dst_left, images)]
        violations.extend(_homomorphism_violations(f"product_{name}", images, t.tables[p], terms, t.d, t.scale))
    return CheckReport.collect("homomorphism", violations)


def compatible_from_invertible_o_operator(
    t: Matrix, a: HomAlgebra, m: Bimodule, strict: bool = True
) -> HomAlgebra:
    """Transport the induced splitting along an invertible operator back to the algebra.

    x succ y = T(L(x)(T^-1 y)) and x prec y = T(R(y)(T^-1 x)); the sum of the
    two outputs recovers the original product exactly.  One clearing, T^-1
    included, serves the strict check and the transport; every cell is at D^3.
    """
    if t.rows != t.cols:
        raise Singular("operator between spaces of different dimension is not invertible")
    t_inv = invert(t)  # raises Singular when degenerate
    _require_o_shapes(t, a, m)
    c = _cleared(a.mul if strict else None, a.alpha, [t, t_inv], m)
    if strict and not (rep := _o_report("o_operator", "o_identity", c, [_split(c.left, c.right, c.ops[0])])).passed:
        raise NotAnOOperator(f"operator fails {rep.failed_ids()}")
    return HomAlgebra.rhizaform(*_transported(c.left, c.right, *c.ops, c.d**3), a.alpha)


def _transported(left, right, images, back, scale: int) -> tuple[BilinearOp, BilinearOp]:
    """x succ y = T(L(x)(T^-1 y)) and x prec y = T(R(y)(T^-1 x)), for the integer tables of the two
    actions and the integer columns of T and T^-1; every cell is at ``scale``.  Row i of succ holds
    the columns of T L(e_i) T^-1, column j of prec those of T R(e_j) T^-1."""
    n = len(images)

    def conjugated(action):  # the sparse columns of T action T^-1
        t_action = [_sparse(col) for col in _products_sum(n, (1, images, action))]
        return [_sparse(col) for col in _products_sum(n, (1, t_action, back))]

    succ = [conjugated(action) for action in left]
    prec = _opposite([conjugated(action) for action in right])
    return BilinearOp._from_table(succ, scale), BilinearOp._from_table(prec, scale)


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
