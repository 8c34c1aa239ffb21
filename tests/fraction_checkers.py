"""Reference arithmetic and reference checkers over Fractions, for differential tests only.

The ``Fraction`` evaluator the library used before its integer kernel lives
here: ``eval_product``, matrix ``apply`` and ``times``, ``form_value`` and
the vector helpers.  The reference checkers are the checkers as they were
before the integer residual engine: every residual is assembled from
``eval_product`` and ``Fraction`` matrix arithmetic, one basis tuple at a
time.  They return the same ``CheckReport`` objects, so a test can require
``==`` reports (violation order and residuals) from both routes, and their
verdicts are the reference for the oracle's.  ``nilpotency_analysis`` is the
reference for the series, and ``scalar_cocycle_space`` and
``vector_cocycle_space`` for the cyclic-form spaces.  The reference
constructions at the end are the operator, cocycle and inner-derivation
constructions as they were on ``Fraction``s; ``combination`` is the signed
sum of products as it was.  The readers at the end are the
file readers as they were before each document remembered its resolved
coefficient texts: every cell goes through ``_resolve_coefficient``, and a
product sums its ``Fraction`` entries before it is cleared (``entry_table``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import add, neg, sub

from math import lcm

from rhizalab.algmodel import _NAME_RE, _PARAM_NAME, BilinearOp, HomAlgebra, LinearMap, _field, star_product
from rhizalab.axioms import CheckReport, Violation
from rhizalab.errors import DimensionMismatch, ParseError, Singular, UnboundParameter
from rhizalab.exactlin import F0, F1, Matrix, _cleared, _kernel, invert, rational
from rhizalab.family import FamilyAlgebra, RBFamily
from rhizalab.files import _per_element, read_semigroup
from rhizalab.nilpotency import NilpotencyAnalysis, NilpotencyVerdict, Subspace
from rhizalab.cocycles import VectorForm
from rhizalab.operators import Bimodule
from rhizalab.operators import _require_o_shapes as _require_operator_shape


def _require_o_shapes(t, a: HomAlgebra, m) -> None:
    """The library's refusals, in its order: the operator's shape, then a bimodule over another dimension
    (which the library makes where it clears, ``operators._cleared``)."""
    _require_operator_shape(t, a, m)
    if m.alg_dim != a.dim:
        raise DimensionMismatch("bimodule is over an algebra of different dimension")


def eval_product(op: BilinearOp, x, y) -> tuple:
    """Bilinear extension of the basis products to arbitrary vectors."""
    if len(x) != op.dim or len(y) != op.dim:
        raise DimensionMismatch(f"vectors of length {len(x)},{len(y)} fed to dim-{op.dim} product")
    out = [F0] * op.dim
    coeffs = op.coeffs
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = coeffs[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            s = xi * yj
            for k, ck in enumerate(row[j]):
                if ck:
                    out[k] += s * ck
    return tuple(out)


def apply(f, x) -> tuple:
    """Matrix-vector product, for a Matrix or a LinearMap (through its matrix)."""
    m = getattr(f, "matrix", f)
    if len(x) != m.cols:
        raise DimensionMismatch(f"cannot apply {m.rows}x{m.cols} to len-{len(x)} vector")
    out = []
    for i in range(m.rows):
        s = F0
        base = i * m.cols
        for j, xj in enumerate(x):
            if xj:
                s += m.entries[base + j] * xj
        out.append(s)
    return tuple(out)


def times(p: Matrix, q: Matrix) -> Matrix:
    if p.cols != q.rows:
        raise DimensionMismatch(f"cannot multiply {p.rows}x{p.cols} by {q.rows}x{q.cols}")
    ent = []
    for i in range(p.rows):
        for j in range(q.cols):
            s = F0
            for k in range(p.cols):
                a = p.at(i, k)
                if a:
                    s += a * q.at(k, j)
            ent.append(s)
    return Matrix(p.rows, q.cols, ent)


def form_value(b, x, y) -> Fraction:
    """B(x, y) for the Gram matrix b of a scalar form."""
    out = F0
    for i, xi in enumerate(x):
        if xi:
            row = b.row(i)
            for j, yj in enumerate(y):
                if yj:
                    out += xi * yj * row[j]
    return out


def combination(*terms) -> BilinearOp:
    """The signed sum of products, some with swapped arguments, as ``algmodel._combination`` built
    it over Fractions: each cell e_i o e_j combined coordinate-wise, in term order."""
    n = terms[0][1].dim
    grids = [(sign, tuple(zip(*op.coeffs)) if swapped else op.coeffs) for sign, op, swapped in terms]

    def cell(i, j):
        (sign, grid), *rest = grids
        out = grid[i][j] if sign > 0 else map(neg, grid[i][j])
        for sign, grid in rest:
            out = map(add if sign > 0 else sub, out, grid[i][j])
        return list(out)

    return BilinearOp(n, [[cell(i, j) for j in range(n)] for i in range(n)])


def scaled(op: BilinearOp, c) -> BilinearOp:
    """The product c times ``op``, coefficient by coefficient."""
    return BilinearOp(op.dim, [[[c * x for x in cell] for cell in row] for row in op.coeffs])


def basis_vec(n: int, i: int) -> tuple:
    return tuple(F1 if j == i else F0 for j in range(n))


def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vec_is_zero(x) -> bool:
    return not any(x)


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _madd(p: Matrix, q: Matrix, c=1) -> Matrix:
    return Matrix(p.rows, p.cols, [x + c * y for x, y in zip(p.entries, q.entries)])


def _act(mats, x, size: int) -> Matrix:
    out = Matrix.zero(size, size)
    for xi, mat in zip(x, mats):
        if xi:
            out = _madd(out, mat, xi)
    return out


def _column_violations(ident, mat: Matrix, prefix=()):
    for u in range(mat.cols):
        resid = mat.column(u)
        if not vec_is_zero(resid):
            yield Violation(ident, (*prefix, u + 1), resid)


def _equivariance(f: Matrix, g: Matrix, h: Matrix, k: Matrix, prefix=()):
    return _column_violations("equivariance", _madd(times(f, g), times(h, k), -1), prefix)


def _anti_assoc_violations(first, outer, inner, mixed, alpha: LinearMap, prefix=()):
    n = alpha.dim
    for i in range(n):
        ai = alpha.image_of_basis(i)
        for j in range(n):
            fij = first.entry(i, j)
            for k in range(n):
                resid = vec_add(
                    eval_product(mixed, ai, inner.entry(j, k)),
                    eval_product(outer, fij, alpha.image_of_basis(k)),
                )
                if not vec_is_zero(resid):
                    yield Violation("anti_assoc", (*prefix, i + 1, j + 1, k + 1), resid)


def hom_anti_associative(mul: BilinearOp, alpha: LinearMap) -> CheckReport:
    return CheckReport.collect("hom_anti_associative", _anti_assoc_violations(mul, mul, mul, mul, alpha))


def multiplicativity(op: BilinearOp, alpha: LinearMap, name: str = "mult") -> CheckReport:
    n = op.dim
    violations = []
    for i in range(n):
        ai = alpha.image_of_basis(i)
        for j in range(n):
            resid = vec_sub(apply(alpha, op.entry(i, j)), eval_product(op, ai, alpha.image_of_basis(j)))
            if not vec_is_zero(resid):
                violations.append(Violation(name, (i + 1, j + 1), resid))
    return CheckReport.collect(f"multiplicativity[{name}]", violations)


def _split_residuals(succ_l, succ_o, succ_lo, prec_l, prec_o, prec_lo, alpha: LinearMap, sign):
    combine = vec_add if sign < 0 else vec_sub
    n = alpha.dim
    for i in range(n):
        ai = alpha.image_of_basis(i)
        for j in range(n):
            s_l_ij = succ_l.entry(i, j)
            p_l_ij = prec_l.entry(i, j)
            star_ij = vec_add(prec_o.entry(i, j), s_l_ij)
            for k in range(n):
                ak = alpha.image_of_basis(k)
                p_o_jk = prec_o.entry(j, k)
                r1 = combine(eval_product(succ_lo, star_ij, ak), eval_product(succ_l, ai, succ_o.entry(j, k)))
                r2 = combine(
                    eval_product(prec_lo, ai, vec_add(p_o_jk, succ_l.entry(j, k))),
                    eval_product(prec_o, p_l_ij, ak),
                )
                r3 = combine(eval_product(succ_l, ai, p_o_jk), eval_product(prec_o, s_l_ij, ak))
                yield i, j, k, r1, r2, r3


def _split(a: HomAlgebra, signed: bool, name: str) -> CheckReport:
    succ, prec = a.succ, a.prec
    ids = ("req1", "req2", "req3") if signed else ("den1", "den2", "den3")
    violations = []
    for i, j, k, *resids in _split_residuals(succ, succ, succ, prec, prec, prec, a.alpha, -1 if signed else 1):
        for ident, r in zip(ids, resids):
            if not vec_is_zero(r):
                violations.append(Violation(ident, (i + 1, j + 1, k + 1), r))
    for p in ("succ", "prec"):
        violations.extend(multiplicativity(a.product(p), a.alpha, name=f"mult_{p}").violations)
    return CheckReport.collect(name, violations)


def rhizaform(a: HomAlgebra) -> CheckReport:
    return _split(a, True, "rhizaform")


def dendriform(a: HomAlgebra) -> CheckReport:
    return _split(a, False, "dendriform")


def jacobi_jordan(mul: BilinearOp, alpha: LinearMap) -> CheckReport:
    n = mul.dim
    violations = []
    for i in range(n):
        for j in range(n):
            resid = vec_sub(mul.entry(i, j), mul.entry(j, i))
            if not vec_is_zero(resid):
                violations.append(Violation("comm", (i + 1, j + 1), resid))
    for i in range(n):
        ai = alpha.image_of_basis(i)
        for j in range(n):
            aj = alpha.image_of_basis(j)
            for k in range(n):
                ak = alpha.image_of_basis(k)
                resid = vec_add(
                    vec_add(eval_product(mul, ai, mul.entry(j, k)), eval_product(mul, aj, mul.entry(k, i))),
                    eval_product(mul, ak, mul.entry(i, j)),
                )
                if not vec_is_zero(resid):
                    violations.append(Violation("cyclic", (i + 1, j + 1, k + 1), resid))
    return CheckReport.collect("jacobi_jordan", violations)


def pre_jacobi_jordan(mul: BilinearOp, alpha: LinearMap) -> CheckReport:
    n = mul.dim
    violations = []
    for i in range(n):
        ai = alpha.image_of_basis(i)
        for j in range(n):
            aj = alpha.image_of_basis(j)
            for k in range(n):
                ak = alpha.image_of_basis(k)
                resid = vec_add(
                    vec_add(eval_product(mul, mul.entry(i, j), ak), eval_product(mul, ai, mul.entry(j, k))),
                    vec_add(eval_product(mul, mul.entry(j, i), ak), eval_product(mul, aj, mul.entry(i, k))),
                )
                if not vec_is_zero(resid):
                    violations.append(Violation("pre_jj", (i + 1, j + 1, k + 1), resid))
    return CheckReport.collect("pre_jacobi_jordan", violations)


def alpha_derivation(d: Matrix, a: HomAlgebra, product_name: str) -> CheckReport:
    op = a.product(product_name)
    n = a.dim
    violations = []
    for i in range(n):
        di = d.column(i)
        ai = a.alpha.image_of_basis(i)
        for j in range(n):
            rhs = vec_add(
                eval_product(op, di, a.alpha.image_of_basis(j)),
                eval_product(op, ai, d.column(j)),
            )
            resid = vec_sub(apply(d, op.entry(i, j)), rhs)
            if not vec_is_zero(resid):
                violations.append(Violation("leibniz", (i + 1, j + 1), resid))
    return CheckReport.collect(f"alpha_derivation[{product_name}]", violations)


def bimodule(a: HomAlgebra, m) -> CheckReport:
    mul = a.mul
    n, md = a.dim, m.mod_dim
    alpha, beta = a.alpha, m.beta.matrix
    violations = []
    for i in range(n):
        l_ai = _act(m.left, alpha.image_of_basis(i), md)
        r_ai = _act(m.right, alpha.image_of_basis(i), md)
        for j in range(n):
            l_aj = _act(m.left, alpha.image_of_basis(j), md)
            r_aj = _act(m.right, alpha.image_of_basis(j), md)
            l_star = _act(m.left, mul.entry(i, j), md)
            r_star = _act(m.right, mul.entry(i, j), md)
            bm1 = _madd(times(l_ai, m.left[j]), times(l_star, beta))
            bm2 = _madd(times(r_aj, m.right[i]), times(r_star, beta))
            bm3 = _madd(times(l_ai, m.right[j]), times(r_aj, m.left[i]))
            bm3s = _madd(times(r_ai, m.left[j]), times(l_aj, m.right[i]))
            for ident, mat in (("bm1", bm1), ("bm2", bm2), ("bm3", bm3), ("bm3_swapped", bm3s)):
                violations.extend(_column_violations(ident, mat, (i + 1, j + 1)))
        bm4 = _madd(times(beta, m.left[i]), times(l_ai, beta), -1)
        bm5 = _madd(times(beta, m.right[i]), times(r_ai, beta), -1)
        for ident, mat in (("bm4", bm4), ("bm5", bm5)):
            violations.extend(_column_violations(ident, mat, (i + 1,)))
    return CheckReport.collect("bimodule", violations)


def o_operator(t, a: HomAlgebra, m) -> CheckReport:
    mul = a.mul
    md = m.mod_dim
    violations = list(_equivariance(t, m.beta.matrix, a.alpha.matrix, t))
    for u in range(md):
        tu = apply(t, basis_vec(md, u))
        for v in range(md):
            tv = apply(t, basis_vec(md, v))
            inner = vec_add(
                apply(_act(m.left, tu, md), basis_vec(md, v)),
                apply(_act(m.right, tv, md), basis_vec(md, u)),
            )
            resid = vec_sub(eval_product(mul, tu, tv), apply(t, inner))
            if not vec_is_zero(resid):
                violations.append(Violation("o_identity", (u + 1, v + 1), resid))
    return CheckReport.collect("o_operator", violations)


def _rb_violations(mul: BilinearOp, r_x, r_y, r_xy, prefix=()):
    n = mul.dim
    for i in range(n):
        ri = apply(r_x, basis_vec(n, i))
        for j in range(n):
            rj = apply(r_y, basis_vec(n, j))
            inner = vec_add(eval_product(mul, ri, basis_vec(n, j)), eval_product(mul, basis_vec(n, i), rj))
            resid = vec_sub(eval_product(mul, ri, rj), apply(r_xy, inner))
            if not vec_is_zero(resid):
                yield Violation("rb_identity", (*prefix, i + 1, j + 1), resid)


def rota_baxter(r, a: HomAlgebra) -> CheckReport:
    violations = list(_equivariance(r, a.alpha.matrix, a.alpha.matrix, r))
    violations.extend(_rb_violations(a.mul, r, r, r))
    return CheckReport.collect("rota_baxter", violations)


def homomorphism(f, a1: HomAlgebra, a2: HomAlgebra) -> CheckReport:
    violations = list(_equivariance(f, a1.alpha.matrix, a2.alpha.matrix, f))
    for name in sorted(a1.products):
        op1, op2 = a1.products[name], a2.products[name]
        for i in range(a1.dim):
            fi = apply(f, basis_vec(a1.dim, i))
            for j in range(a1.dim):
                resid = vec_sub(apply(f, op1.entry(i, j)), eval_product(op2, fi, apply(f, basis_vec(a1.dim, j))))
                if not vec_is_zero(resid):
                    violations.append(Violation(f"product_{name}", (i + 1, j + 1), resid))
    return CheckReport.collect("homomorphism", violations)


def rhizaform_family(f) -> CheckReport:
    s = f.semigroup
    violations = []
    for lam in range(s.size):
        for omega in range(s.size):
            lo = s.mul(lam, omega)
            triples = _split_residuals(
                f.succ[lam], f.succ[omega], f.succ[lo], f.prec[lam], f.prec[omega], f.prec[lo], f.alpha, -1
            )
            for i, j, k, r1, r2, r3 in triples:
                for ident, r in (("req2", r2), ("req3", r3), ("req1", r1)):
                    if not vec_is_zero(r):
                        violations.append(Violation(ident, (lam, omega, i + 1, j + 1, k + 1), r))
    for lam in range(s.size):
        for name, ops in (("succ", f.succ), ("prec", f.prec)):
            for v in multiplicativity(ops[lam], f.alpha, name=f"mult_{name}").violations:
                violations.append(Violation(v.identity_id, (lam, *v.basis_tuple), v.residual))
    return CheckReport.collect("rhizaform_family", violations)


def anti_associative_family(products, alpha: LinearMap, semigroup) -> CheckReport:
    violations = []
    for lam in range(semigroup.size):
        for omega in range(semigroup.size):
            for gam in range(semigroup.size):
                violations.extend(
                    _anti_assoc_violations(
                        products[(lam, omega)],
                        products[(semigroup.mul(lam, omega), gam)],
                        products[(omega, gam)],
                        products[(lam, semigroup.mul(omega, gam))],
                        alpha,
                        (lam, omega, gam),
                    )
                )
    return CheckReport.collect("anti_associative_family", violations)


def rb_family(rf, a: HomAlgebra) -> CheckReport:
    s, ops = rf.semigroup, rf.operators
    violations = []
    for lam in range(s.size):
        violations.extend(_equivariance(ops[lam], a.alpha.matrix, a.alpha.matrix, ops[lam], (lam,)))
    for lam in range(s.size):
        for omega in range(s.size):
            violations.extend(_rb_violations(a.mul, ops[lam], ops[omega], ops[s.mul(lam, omega)], (lam, omega)))
    return CheckReport.collect("rb_family", violations)


def two_nilpotent(a: HomAlgebra) -> CheckReport:
    names = sorted(a.products)
    n = a.dim
    alpha = a.alpha
    violations = []
    for p in names:
        op_p = a.products[p]
        for q in names:
            op_q = a.products[q]
            for i in range(n):
                ai = alpha.image_of_basis(i)
                for j in range(n):
                    for k in range(n):
                        out_r = eval_product(op_q, op_p.entry(i, j), alpha.image_of_basis(k))
                        if not vec_is_zero(out_r):
                            violations.append(Violation(f"out:{p},{q}", (i + 1, j + 1, k + 1), out_r))
                        in_r = eval_product(op_q, ai, op_p.entry(j, k))
                        if not vec_is_zero(in_r):
                            violations.append(Violation(f"in:{p},{q}", (i + 1, j + 1, k + 1), in_r))
    return CheckReport.collect("2_nilpotent", violations)


def diamond(m: Subspace, n: Subspace, a: HomAlgebra) -> Subspace:
    out = []
    for u in m.vectors():
        for v in n.vectors():
            for name in sorted(a.products):
                w = eval_product(a.products[name], u, v)
                if not vec_is_zero(w):
                    out.append(w)
    return Subspace.from_vectors(a.dim, out)



def _series(a: HomAlgebra, kind: str, terms, length: int | None = None) -> list[Subspace]:
    """``terms`` carried on by ``diamond`` to ``length`` terms, or without a length up to zero or
    stability, cut after the first repeat of the stable term.  A right or left series is stable
    at its first repeat; a full series once its current run S_m = ... = S_k has k >= 2m - 1."""
    terms = list(terms)
    while length is None or len(terms) < length:
        k = len(terms) + 1
        if kind == "right":
            nxt = diamond(terms[-1], terms[0], a)
        elif kind == "left":
            nxt = diamond(terms[0], terms[-1], a)
        else:
            parts = [diamond(terms[i - 1], terms[k - i - 1], a) for i in range(1, k)]
            nxt = Subspace.from_vectors(a.dim, [w for part in parts for w in part.vectors()])
        terms.append(nxt)
        if length is None:
            start = terms.index(nxt)  # S_(start + 1) is the first term of the current run
            repeat = start < len(terms) - 1
            if nxt.is_zero() or repeat and (kind != "full" or len(terms) >= 2 * start + 1):
                return terms[: start + 2]
    return terms


def _witness(x: Subspace, y: Subspace):
    missing = [v for v in x.vectors() if not y.contains_vector(v)]
    missing += [v for v in y.vectors() if not x.contains_vector(v)]
    return missing[0] if missing else (0,) * x.ambient_dim


def nilpotency_analysis(a: HomAlgebra) -> tuple[NilpotencyAnalysis, dict[str, NilpotencyVerdict]]:
    """The record ``nilpotency.analyze`` gives, built by the Fraction ``diamond``, with each
    single-product reduct as an algebra of its own; and the verdicts, read off the series here."""
    kinds = ("right", "left", "full")
    start = [Subspace.full(a.dim)]
    series = {kind: tuple(_series(a, kind, start)) for kind in kinds}
    length = max(len(terms) for terms in series.values())
    r, l, f = (_series(a, kind, series[kind], length) for kind in kinds)
    violations = []
    for g in range(length):
        for ident, x, y in (("right_ne_full", r, f), ("left_ne_full", l, f), ("right_ne_left", r, l)):
            if x[g] != y[g]:
                violations.append(Violation(ident, (g + 1,), _witness(x[g], y[g])))
    verdicts = {}
    for kind, terms in series.items():
        zero = [g for g, term in enumerate(terms, start=1) if term.is_zero()]
        verdicts[kind] = NilpotencyVerdict(bool(zero), zero[0] if zero else None)
    reducts = [HomAlgebra.mono(a.products[name], a.alpha) for name in sorted(a.products)]
    whole = verdicts["full"].nilpotent
    parts = all(any(t.is_zero() for t in _series(m, "full", start)) for m in reducts)
    stability = None
    if all(multiplicativity(op, a.alpha).passed for op in a.products.values()):
        stability = _alpha_stability(series["full"], a.alpha)
    analysis = NilpotencyAnalysis(
        series=series,
        series_equality=CheckReport.collect("series_equality", violations),
        onesided=CheckReport.collect(
            "onesided_nilpotency", [] if whole == parts else [Violation("biconditional", (), ())]
        ),
        two_nilpotent=two_nilpotent(a),
        alpha_stability=stability,
    )
    return analysis, verdicts

def scalar_cocycle_residuals(a: HomAlgebra, b) -> list[Violation]:
    star, alpha = star_product(a), a.alpha
    n = a.dim
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = (
                    form_value(b, star.entry(i, j), alpha.image_of_basis(k))
                    + form_value(b, star.entry(j, k), alpha.image_of_basis(i))
                    + form_value(b, star.entry(k, i), alpha.image_of_basis(j))
                )
                if r:
                    out.append(Violation("cyclic", (i + 1, j + 1, k + 1), (r,)))
    for i in range(n):
        for j in range(n):
            r = form_value(b, alpha.image_of_basis(i), alpha.image_of_basis(j)) - b.at(i, j)
            if r:
                out.append(Violation("invariance", (i + 1, j + 1), (r,)))
    return out


def vector_cocycle_residuals(a: HomAlgebra, w: BilinearOp) -> list[Violation]:
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
            r = vec_sub(apply(alpha, w.entry(i, j)), eval_product(w, ai, alpha.image_of_basis(j)))
            if not vec_is_zero(r):
                out.append(Violation("compat", (i + 1, j + 1), r))
    return out


# --- cyclic-form spaces ---------------------------------------------------------
# The whole cyclic system, a row at every triple with no rank bound, and the second condition
# (invariance or the twist) as dense rows, all over int from the working product and the twist
# cleared by one D.  Stacked for an algebra-valued form, the two are n^4 + n^3 rows; so the second
# condition is solved in the coordinates c[t][s] of the cyclic kernel b_1..b_d (B[.][.][s] =
# sum_t c[t][s] b_t), a map that carries the canonical kernel basis in c onto the stacked system's.


def _add_form_terms(row, u, w, n: int, width: int = 1, s: int = 0) -> None:
    """Add to ``row`` the coefficient of B[p][q][s] (column (p*n + q)*width + s) in B(u, w)."""
    for p, up in enumerate(u):
        if up:
            for q, wq in enumerate(w):
                if wq:
                    row[(p * n + q) * width + s] += up * wq


def _cleared_algebra(a: HomAlgebra) -> tuple[list[list[int]], list[list[int]], int]:
    """The twist's images alpha e_i and the working product's cells e_i*e_j (at i*n + j), as integer
    vectors cleared by one D; and D."""
    n, star = a.dim, star_product(a)
    columns = [a.alpha.image_of_basis(i) for i in range(n)]
    vectors, d = _cleared(columns + [star.entry(i, j) for i in range(n) for j in range(n)])
    return vectors[:n], vectors[n:], d


def cyclic_rows(a: HomAlgebra) -> tuple[dict[tuple[int, int, int], list[int]], int]:
    """The scalar cyclic row B(e_i*e_j, alpha e_k) + B(e_j*e_k, alpha e_i) + B(e_k*e_i, alpha e_j) at every
    (i, j, k), in the unknowns B[p][q] (column p*n + q), as an integer row; and its scale D^2."""
    images, cells, d = _cleared_algebra(a)
    n = a.dim
    rows = {}
    for i, j, k in product(range(n), repeat=3):
        row = rows[i, j, k] = [0] * (n * n)
        for u, w in ((cells[i * n + j], images[k]), (cells[j * n + k], images[i]), (cells[k * n + i], images[j])):
            _add_form_terms(row, u, w, n)
    return rows, d * d


def _invariance_rows(images: list[list[int]], d: int) -> list[list[int]]:
    """B(alpha e_i, alpha e_j) - B[i][j] at each (i, j), at D^2, for the images alpha e_i at D."""
    n = len(images)
    rows = []
    for i, j in product(range(n), repeat=2):
        row = [0] * (n * n)
        _add_form_terms(row, images[i], images[j], n)
        row[i * n + j] -= d * d
        rows.append(row)
    return rows


def _twist_rows(images: list[list[int]], d: int) -> list[list[int]]:
    """Component c of alpha(w(e_i, e_j)) - w(alpha e_i, alpha e_j) at each (i, j, c), at D^2, in the unknowns
    w[p][q][r] (column (p*n + q)*n + r)."""
    n = len(images)
    rows = []
    for i, j, c in product(range(n), repeat=3):
        row = [0] * n**3
        for r in range(n):
            row[(i * n + j) * n + r] = images[r][c] * d
        _add_form_terms(row, [-x for x in images[i]], images[j], n, n, c)
        rows.append(row)
    return rows


def _cocycle_forms(a: HomAlgebra, width: int, second) -> list[tuple[list[int], int]]:
    """The kernel basis of the cyclic condition on each of ``width`` components and of the rows
    ``second(images, D)``, as flat integer forms (column (p*n + q)*width + s) and their scales.  The b_t
    are cleared as one block, by one D: each by its own would rescale the columns of c."""
    n2 = a.dim**2
    kernel = _kernel(list(cyclic_rows(a)[0].values()), n2)
    d = lcm(*(d_t for _, d_t in kernel))
    block = [[x * (d // d_t) for x in b] for b, d_t in kernel]
    size = len(block) * width
    images, _, d_twist = _cleared_algebra(a)
    reduced = []  # each row of ``second`` in the unknowns c[t][s] (column t*width + s)
    for row in second(images, d_twist):
        reduced.append([0] * size)
        for col, x in enumerate(row):
            if x:
                pq, s = divmod(col, width)
                for t, b in enumerate(block):
                    reduced[-1][t * width + s] += x * b[pq]
    forms = []
    for c, d_c in _kernel(reduced, size):
        form = [0] * (n2 * width)
        for col, x in enumerate(c):
            if x:
                t, s = divmod(col, width)
                for pq, y in enumerate(block[t]):
                    form[pq * width + s] += x * y
        forms.append((form, d * d_c))
    return forms


def scalar_cocycle_space(a: HomAlgebra) -> list[Matrix]:
    n = a.dim
    return [Matrix(n, n, [Fraction(x, d) for x in form]) for form, d in _cocycle_forms(a, 1, _invariance_rows)]


def vector_cocycle_space(a: HomAlgebra) -> list[VectorForm]:
    n = a.dim
    tables = []
    for form, d in _cocycle_forms(a, n, _twist_rows):
        cells = [tuple((r, x) for r, x in enumerate(form[pq * n : (pq + 1) * n]) if x) for pq in range(n * n)]
        tables.append(VectorForm._from_table([cells[p * n : (p + 1) * n] for p in range(n)], d))
    return tables


# --- reference constructions --------------------------------------------------
# The constructions as they were on Fractions, without their ``strict`` checks
# (those call the library's checkers, which have references of their own above).


def image_under(s: Subspace, f: LinearMap) -> Subspace:
    return Subspace.from_vectors(s.ambient_dim, [apply(f, v) for v in s.vectors()])


def rb_splitting(r, mul: BilinearOp) -> tuple[BilinearOp, BilinearOp]:
    """x succ y = R(x)*y and x prec y = x*R(y)."""
    n = mul.dim
    basis = [basis_vec(n, i) for i in range(n)]
    images = [apply(r, e) for e in basis]
    succ = BilinearOp(n, [[eval_product(mul, images[i], basis[j]) for j in range(n)] for i in range(n)])
    prec = BilinearOp(n, [[eval_product(mul, basis[i], images[j]) for j in range(n)] for i in range(n)])
    return succ, prec


def induced_rhizaform_from_rb(r, a: HomAlgebra) -> HomAlgebra:
    succ, prec = rb_splitting(r, a.mul)
    return HomAlgebra.rhizaform(succ, prec, a.alpha)


def induced_rhizaform_from_o_operator(t, a: HomAlgebra, m) -> HomAlgebra:
    """Split products on the module: u succ v = L(T(u))v, u prec v = R(T(v))u."""
    _require_o_shapes(t, a, m)
    md = m.mod_dim
    images = [apply(t, basis_vec(md, u)) for u in range(md)]
    lefts = [_act(m.left, x, md) for x in images]
    rights = [_act(m.right, x, md) for x in images]
    # u succ v = L(T(u)) v and u prec v = R(T(v)) u
    succ = BilinearOp(md, [[lefts[u].column(v) for v in range(md)] for u in range(md)])
    prec = BilinearOp(md, [[rights[v].column(u) for v in range(md)] for u in range(md)])
    return HomAlgebra.rhizaform(succ, prec, m.beta)


def compatible_from_invertible_o_operator(t, a: HomAlgebra, m) -> HomAlgebra:
    """x succ y = T(L(x)(T^-1 y)) and x prec y = T(R(y)(T^-1 x))."""
    if t.rows != t.cols:
        raise Singular("operator between spaces of different dimension is not invertible")
    t_inv = invert(t)  # raises Singular when degenerate
    _require_o_shapes(t, a, m)
    n = a.dim
    back = [t_inv.column(j) for j in range(n)]
    succ = BilinearOp(n, [[apply(t, apply(m.left[i], back[j])) for j in range(n)] for i in range(n)])
    prec = BilinearOp(n, [[apply(t, apply(m.right[j], back[i])) for j in range(n)] for i in range(n)])
    return HomAlgebra.rhizaform(succ, prec, a.alpha)


def rhizaform_from_cocycle(a: HomAlgebra, b) -> HomAlgebra:
    """Solve B(x succ y, z) = B(y, z*x) and B(x prec y, z) = B(x, y*z) for the splits."""
    star = star_product(a)
    n = a.dim
    if (b.rows, b.cols) != (n, n):
        raise DimensionMismatch("form and algebra dimensions differ")
    bt_inv = invert(b.transpose())  # Singular for degenerate forms
    basis = [basis_vec(n, i) for i in range(n)]
    succ = BilinearOp(n, [
        [apply(bt_inv, tuple(form_value(b, basis[j], star.entry(k, i)) for k in range(n))) for j in range(n)]
        for i in range(n)
    ])
    prec = BilinearOp(n, [
        [apply(bt_inv, tuple(form_value(b, basis[i], star.entry(j, k)) for k in range(n))) for j in range(n)]
        for i in range(n)
    ])
    return HomAlgebra.rhizaform(succ, prec, a.alpha)


def inner_derivation(z, a: HomAlgebra, convention: str = "star") -> Matrix:
    """Matrix of ad_z: z * x - x * z (``star``) or z prec x - x succ z (``mixed``)."""
    n = a.dim
    if len(z) != n:
        raise DimensionMismatch("z has wrong length")
    if convention == "star":
        star = star_product(a)
        cols = [
            vec_sub(eval_product(star, z, basis_vec(n, i)), eval_product(star, basis_vec(n, i), z))
            for i in range(n)
        ]
    elif convention == "mixed":
        cols = [
            vec_sub(
                eval_product(a.prec, z, basis_vec(n, i)),
                eval_product(a.succ, basis_vec(n, i), z),
            )
            for i in range(n)
        ]
    else:
        raise ValueError(f"unknown convention {convention!r}; use 'star' or 'mixed'")
    return Matrix.from_rows(cols).transpose()


def _alpha_stability(full, alpha: LinearMap) -> CheckReport:
    violations = []
    for g, term in enumerate(full, start=1):
        image = image_under(term, alpha)
        if not term.contains(image):
            violations.append(Violation("alpha_stability", (g,), _witness(image, term)))
    return CheckReport.collect("alpha_stability", violations)


def alpha_stability(a: HomAlgebra) -> CheckReport:
    """The alpha-stability report along the full series built by ``diamond``, for any twist."""
    return _alpha_stability(_series(a, "full", [Subspace.full(a.dim)]), a.alpha)


# --- readers ----------------------------------------------------------------


def entry_table(dim: int, entries) -> tuple[list, int]:
    """The integer table of the sum of the 0-based (i, j, k, coefficient) entries, and its denominator:
    each cell summed over Fractions, then cleared by the lcm of the sums' denominators."""
    cells: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j, k, co in entries:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise DimensionMismatch(f"index ({i},{j},{k}) outside [0,{dim})")
        cell, q = cells.setdefault((i, j), {}), rational(co)
        cell[k] = cell[k] + q if k in cell else q
    d = lcm(*(q.denominator for cell in cells.values() for q in cell.values()))
    table = [[()] * dim for _ in range(dim)]
    for (i, j), cell in cells.items():
        table[i][j] = tuple((k, q.numerator * (d // q.denominator)) for k, q in sorted(cell.items()) if q)
    return table, d


def _resolve_coefficient(token, params, where: str, *path: int) -> Fraction:
    s = token.strip() if isinstance(token, str) else ""
    if params is not None and _NAME_RE.match(s):
        name = s.lstrip("-")
        if name not in params:
            raise UnboundParameter(name, where + "".join(f"[{i}]" for i in path))
        return -params[name] if s.startswith("-") else params[name]
    try:
        return rational(token)
    except ParseError as exc:
        raise ParseError(where + "".join(f"[{i}]" for i in path) + f": {exc}") from None


def _read_matrix(doc, where: str, params) -> Matrix:
    if not isinstance(doc, list) or not all(isinstance(row, list) and len(row) == len(doc[0]) for row in doc):
        raise ParseError(f"{where} must be a list of rows of equal length")
    return Matrix.from_rows(
        [[_resolve_coefficient(e, params, where, r, c) for c, e in enumerate(row)] for r, row in enumerate(doc)]
    )


def _twist(doc, key: str, where: str, dim: int, params) -> LinearMap:
    m = _read_matrix(_field(doc, key, where, list), f"{where}.{key}", params)
    if (m.rows, m.cols) != (dim, dim):
        raise ParseError(f"{where}.{key} must be a {dim}x{dim} array of rows")
    return LinearMap(dim, m)


def _parse_product(doc, dim: int, where: str, params) -> BilinearOp:
    if not isinstance(doc, list):
        raise ParseError(f"{where} must be a list of [i, j, k, coefficient] entries")
    entries = []
    for e, item in enumerate(doc):
        if not isinstance(item, list) or len(item) != 4:
            raise ParseError(f"{where}[{e}]: {item!r} is not [i, j, k, coefficient]")
        i, j, k, co = item
        if not all(isinstance(t, int) and not isinstance(t, bool) for t in (i, j, k)):
            raise ParseError(f"{where}[{e}]: {item!r} has non-integer indices")
        if not all(1 <= t <= dim for t in (i, j, k)):
            raise ParseError(f"{where}[{e}]: {item!r} outside basis range 1..{dim}")
        entries.append((i - 1, j - 1, k - 1, _resolve_coefficient(co, params, where, e, 3)))
    return BilinearOp._from_table(*entry_table(dim, entries))


def _read_header(doc, where: str, bindings):
    dim = _field(doc, "dim", where, int)
    if dim < 1:
        raise ParseError(f"{where}.dim: 'dim' must be positive")
    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict) or not all(map(_PARAM_NAME.fullmatch, params_doc)):
        raise ParseError(f"{where}.params: 'params' must be a JSON object of name: rational")
    params = {name: _resolve_coefficient(v, None, f"{where}.params.{name}") for name, v in params_doc.items()}
    params.update((name, rational(v)) for name, v in (bindings or {}).items())
    return dim, params, _twist(doc, "alpha", where, dim, params)


def parse_algebra_obj(doc, bindings=None) -> HomAlgebra:
    dim, params, alpha = _read_header(doc, "algebra", bindings)
    kind = doc.get("kind")
    if kind not in ("rhizaform", "mono"):
        raise ParseError(f"algebra.kind: 'kind' must be 'rhizaform' or 'mono', got {kind!r}")
    beta = None if doc.get("beta") is None else _twist(doc, "beta", "algebra", dim, params)
    wanted = ("succ", "prec") if kind == "rhizaform" else ("mul",)
    stray = [n for n in ("succ", "prec", "mul") if n not in wanted and doc.get(n)]
    if stray:
        raise ParseError(f"kind {kind!r} does not take product section(s) {stray}")
    products = {name: _parse_product(doc.get(name, []), dim, f"algebra.{name}", params) for name in wanted}
    return HomAlgebra(dim, products, alpha, params, beta)


def read_operator(doc) -> Matrix:
    for key in ("T", "R", "D", "matrix"):
        if isinstance(doc, dict) and key in doc:
            return _read_matrix(doc[key], f"operator.{key}", None)
    raise ParseError("operator: no operator section ('T')")


def read_bimodule(doc) -> Bimodule:
    left, right = (
        tuple(_read_matrix(m, f"bimodule.{side}[{i}]", None) for i, m in enumerate(_field(doc, side, "bimodule", list)))
        for side in ("left", "right")
    )
    beta = _read_matrix(_field(doc, "beta", "bimodule", list), "bimodule.beta", None)
    alg_dim, mod_dim = (_field(doc, key, "bimodule", int) for key in ("alg_dim", "mod_dim"))
    return Bimodule(alg_dim, mod_dim, left, right, LinearMap(beta.rows, beta))


def read_form(doc) -> Matrix:
    m = _read_matrix(_field(doc, "B", "form", list), "form.B", None)
    if m.rows != m.cols:
        raise DimensionMismatch("form matrix must be dim x dim")
    return m


def read_family(doc, bindings) -> FamilyAlgebra:
    s = read_semigroup(doc, "family")
    dim, params, alpha = _read_header(doc, "family", bindings)
    succ, prec = (
        {
            lam: _parse_product(p, dim, f"family.{name}.{lam}", params)
            for lam, p in enumerate(_per_element(doc, name, "family", s.size))
        }
        for name in ("succ", "prec")
    )
    return FamilyAlgebra(dim, s, succ, prec, alpha, params)


def read_rb_family(doc) -> RBFamily:
    s = read_semigroup(doc, "rb_family")
    ops = {}
    for lam, rows in enumerate(_per_element(doc, "operators", "rb_family", s.size)):
        ops[lam] = _read_matrix(rows, f"rb_family.operators.{lam}", None)
    return RBFamily(s, ops)
