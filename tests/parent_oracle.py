"""Reference oracle for differential tests only: the oracle as it was before it
owned its evaluator.

Every product goes through ``eval_product`` and every twist through the
matrix ``apply``, both from ``tests/fraction_checkers.py``, recomputed inside
the loops over basis tuples.  It has the same public functions as ``rhizalab.oracle``, so a
test can require the same verdict from both routes.
"""

from __future__ import annotations

from fractions import Fraction

from rhizalab.algmodel import BilinearOp, HomAlgebra, LinearMap
from rhizalab.exactlin import Matrix
from tests.fraction_checkers import apply, basis_vec, eval_product, times

F1 = Fraction(1)


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _neg(x):
    return tuple(-a for a in x)


def _basis(n):
    return [basis_vec(n, i) for i in range(n)]


def anti_associative(mul: BilinearOp, alpha: LinearMap) -> bool:
    n = mul.dim
    es = _basis(n)
    for x in es:
        for y in es:
            for z in es:
                lhs = eval_product(mul, apply(alpha, x), eval_product(mul, y, z))
                rhs = eval_product(mul, eval_product(mul, x, y), apply(alpha, z))
                if lhs != _neg(rhs):
                    return False
    return True


def multiplicative(op: BilinearOp, alpha: LinearMap) -> bool:
    es = _basis(op.dim)
    for x in es:
        for y in es:
            if apply(alpha, eval_product(op, x, y)) != eval_product(op, apply(alpha, x), apply(alpha, y)):
                return False
    return True


def rhizaform_identities(a: HomAlgebra) -> dict[str, bool]:
    """Per-identity verdicts, keyed like the checker's identity ids."""
    succ, prec, alpha = a.succ, a.prec, a.alpha
    es = _basis(a.dim)
    out = {"req1": True, "req2": True, "req3": True}
    for x in es:
        ax = apply(alpha, x)
        for y in es:
            for z in es:
                az = apply(alpha, z)
                star_xy = _add(eval_product(succ, x, y), eval_product(prec, x, y))
                star_yz = _add(eval_product(succ, y, z), eval_product(prec, y, z))
                if eval_product(succ, star_xy, az) != _neg(
                    eval_product(succ, ax, eval_product(succ, y, z))
                ):
                    out["req1"] = False
                if eval_product(prec, ax, star_yz) != _neg(
                    eval_product(prec, eval_product(prec, x, y), az)
                ):
                    out["req2"] = False
                if eval_product(succ, ax, eval_product(prec, y, z)) != _neg(
                    eval_product(prec, eval_product(succ, x, y), az)
                ):
                    out["req3"] = False
    out["mult_succ"] = multiplicative(succ, alpha)
    out["mult_prec"] = multiplicative(prec, alpha)
    return out


def rhizaform(a: HomAlgebra) -> bool:
    return all(rhizaform_identities(a).values())


def dendriform_identities(a: HomAlgebra) -> dict[str, bool]:
    succ, prec, alpha = a.succ, a.prec, a.alpha
    es = _basis(a.dim)
    out = {"den1": True, "den2": True, "den3": True}
    for x in es:
        ax = apply(alpha, x)
        for y in es:
            for z in es:
                az = apply(alpha, z)
                star_xy = _add(eval_product(succ, x, y), eval_product(prec, x, y))
                star_yz = _add(eval_product(succ, y, z), eval_product(prec, y, z))
                if eval_product(succ, star_xy, az) != eval_product(
                    succ, ax, eval_product(succ, y, z)
                ):
                    out["den1"] = False
                if eval_product(prec, ax, star_yz) != eval_product(
                    prec, eval_product(prec, x, y), az
                ):
                    out["den2"] = False
                if eval_product(succ, ax, eval_product(prec, y, z)) != eval_product(
                    prec, eval_product(succ, x, y), az
                ):
                    out["den3"] = False
    out["mult_succ"] = multiplicative(succ, alpha)
    out["mult_prec"] = multiplicative(prec, alpha)
    return out


def dendriform(a: HomAlgebra) -> bool:
    return all(dendriform_identities(a).values())


def jacobi_jordan(mul: BilinearOp, alpha: LinearMap) -> bool:
    es = _basis(mul.dim)
    for x in es:
        for y in es:
            if eval_product(mul, x, y) != eval_product(mul, y, x):
                return False
    for x in es:
        for y in es:
            for z in es:
                s = _add(
                    _add(
                        eval_product(mul, apply(alpha, x), eval_product(mul, y, z)),
                        eval_product(mul, apply(alpha, y), eval_product(mul, z, x)),
                    ),
                    eval_product(mul, apply(alpha, z), eval_product(mul, x, y)),
                )
                if any(s):
                    return False
    return True


def pre_jacobi_jordan(mul: BilinearOp, alpha: LinearMap) -> bool:
    es = _basis(mul.dim)
    for x in es:
        for y in es:
            for z in es:
                s = _add(
                    _add(
                        eval_product(mul, eval_product(mul, x, y), apply(alpha, z)),
                        eval_product(mul, apply(alpha, x), eval_product(mul, y, z)),
                    ),
                    _add(
                        eval_product(mul, eval_product(mul, y, x), apply(alpha, z)),
                        eval_product(mul, apply(alpha, y), eval_product(mul, x, z)),
                    ),
                )
                if any(s):
                    return False
    return True


def alpha_derivation(d: LinearMap, a: HomAlgebra, product_name: str) -> bool:
    op = a.product(product_name)
    es = _basis(a.dim)
    for x in es:
        for y in es:
            lhs = apply(d, eval_product(op, x, y))
            rhs = _add(
                eval_product(op, apply(d, x), apply(a.alpha, y)),
                eval_product(op, apply(a.alpha, x), apply(d, y)),
            )
            if lhs != rhs:
                return False
    return True


def two_nilpotent(a: HomAlgebra) -> bool:
    ops = [a.products[name] for name in sorted(a.products)]
    es = _basis(a.dim)
    for x in es:
        for y in es:
            for z in es:
                for p in ops:
                    for q in ops:
                        if any(eval_product(q, eval_product(p, x, y), apply(a.alpha, z))):
                            return False
                        if any(eval_product(q, apply(a.alpha, x), eval_product(p, y, z))):
                            return False
    return True


def _act(mats: tuple[Matrix, ...], x, m):
    """Action of algebra vector x on module vector m via per-basis matrices."""
    out = tuple(Fraction(0) for _ in range(mats[0].rows)) if mats else ()
    for i, xi in enumerate(x):
        if xi:
            out = _add(out, tuple(xi * c for c in apply(mats[i], m)))
    return out


def bimodule(mul: BilinearOp, alpha: LinearMap, left, right, beta: LinearMap) -> bool:
    """The five compatibility identities of a two-sided action, checked raw."""
    n = mul.dim
    m_dim = beta.dim
    es = _basis(n)
    ms = _basis(m_dim)
    for x in es:
        ax = apply(alpha, x)
        for y in es:
            ay = apply(alpha, y)
            xy = eval_product(mul, x, y)
            for m in ms:
                bm = apply(beta, m)
                if _act(left, ax, _act(left, y, m)) != _neg(_act(left, xy, bm)):
                    return False
                if _act(right, ay, _act(right, x, m)) != _neg(_act(right, xy, bm)):
                    return False
                if _act(left, ax, _act(right, y, m)) != _neg(_act(right, ay, _act(left, x, m))):
                    return False
        for m in ms:
            if apply(beta, _act(left, x, m)) != _act(left, ax, apply(beta, m)):
                return False
            if apply(beta, _act(right, x, m)) != _act(right, ax, apply(beta, m)):
                return False
    return True


def rota_baxter(r: Matrix, mul: BilinearOp, alpha: LinearMap) -> bool:
    n = mul.dim
    es = _basis(n)
    if times(r, alpha.matrix) != times(alpha.matrix, r):
        return False
    for x in es:
        rx = apply(r, x)
        for y in es:
            ry = apply(r, y)
            lhs = eval_product(mul, rx, ry)
            rhs = apply(r, _add(eval_product(mul, rx, y), eval_product(mul, x, ry)))
            if lhs != rhs:
                return False
    return True


def o_operator(t: Matrix, mul: BilinearOp, alpha: LinearMap, left, right, beta: LinearMap) -> bool:
    m_dim = beta.dim
    ms = _basis(m_dim)
    if times(t, beta.matrix) != times(alpha.matrix, t):
        return False
    for u in ms:
        tu = apply(t, u)
        for v in ms:
            tv = apply(t, v)
            lhs = eval_product(mul, tu, tv)
            rhs = apply(t, _add(_act(left, tu, v), _act(right, tv, u)))
            if lhs != rhs:
                return False
    return True
