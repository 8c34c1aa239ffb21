"""Brute-force re-evaluation of every identity, exactly, with its own evaluator.

This module is the independent second opinion for the checkers: it shares no
code with axioms/operators/nilpotency and imports only the data classes from
the library.  Its vectors are sparse and exact: a dict {index: value} holding
only the nonzero coordinates, so the zero vector is {} and two vectors are
equal when their dicts are.  It reads each structure constant and matrix entry
as an int when it is integral and as a Fraction otherwise.  Python's mixed
int/Fraction arithmetic is exact, and a Fraction equals the int of the same
value, so the evaluator clears no common denominator and never divides; its
cost follows the nonzero structure constants, not the n^3 cells of a table.

The evaluator is four short functions: the basis products c[i][j] = e_i o e_j
read off a product's structure constants, the bilinear extension of such a
table to any two vectors, the images of the basis vectors under a matrix read
off its entries, and a linear combination of those images.  A bimodule action
is a table of the same shape, with t[i][w] = l(e_i) e_w.  Each public function
builds its tables and images once and quantifies its identity with its own
loops over basis tuples, returning bare booleans.  Keep it dumb; its value is
that it is too simple to be wrong in the same way twice.
"""

from __future__ import annotations

from .algmodel import BilinearOp, HomAlgebra, LinearMap
from .exactlin import Matrix


def _exact(v):
    """v as an int when it is integral, else v itself."""
    return v.numerator if v.denominator == 1 else v


def _vector(coords) -> dict:
    """The sparse exact vector of the coordinates ``coords``."""
    return {k: _exact(v) for k, v in enumerate(coords) if v}


def _table(op: BilinearOp):
    """The basis products: c[i][j] holds the vector e_i o e_j, read off the nonzero structure constants."""
    c = [[{} for _ in range(op.dim)] for _ in range(op.dim)]
    for i, j, k, v in op.nonzero_entries():
        c[i][j][k] = _exact(v)
    return c


def _product(c, x, y) -> dict:
    """x o y for the bilinear map with basis products c[i][j]; {} at once when x or y is {}."""
    if not x or not y:
        return {}
    out = {}
    get = out.get
    for i, xi in x.items():
        row = c[i]
        for j, yj in y.items():
            s = xi * yj
            for k, ck in row[j].items():
                out[k] = get(k, 0) + s * ck
    return {k: v for k, v in out.items() if v}


def _images(m: Matrix) -> list[dict]:
    """m e_0, ..., m e_{cols-1}: the columns of m, read off its row-major entries."""
    return [_vector(m.entries[i :: m.cols]) for i in range(m.cols)]


def _apply(images, x) -> dict:
    """The image of x under the linear map that sends e_k to images[k]."""
    out = {}
    get = out.get
    for k, xk in x.items():
        for r, v in images[k].items():
            out[r] = get(r, 0) + xk * v
    return {r: v for r, v in out.items() if v}


def _actions(mats: tuple[Matrix, ...]):
    """The table t[i][w] = mats[i] e_w of an action given by one matrix per basis vector."""
    return [_images(m) for m in mats]


def _basis(n: int) -> list[dict]:
    return [{i: 1} for i in range(n)]


def _add(x, y) -> dict:
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _neg(x) -> dict:
    return {k: -v for k, v in x.items()}


def anti_associative(mul: BilinearOp, alpha: LinearMap) -> bool:
    c, al, n = _table(mul), _images(alpha.matrix), mul.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _product(c, al[i], c[j][k])
                rhs = _product(c, c[i][j], al[k])
                if lhs != _neg(rhs):
                    return False
    return True


def multiplicative(op: BilinearOp, alpha: LinearMap) -> bool:
    return _multiplicative(_table(op), _images(alpha.matrix), op.dim)


def _multiplicative(c, al, n: int) -> bool:
    """alpha(e_i o e_j) = alpha(e_i) o alpha(e_j) for the basis products c and the images al of alpha."""
    for i in range(n):
        for j in range(n):
            if _apply(al, c[i][j]) != _product(c, al[i], al[j]):
                return False
    return True


def _split_identities(a: HomAlgebra, ids: tuple[str, str, str], sign) -> dict[str, bool]:
    """The three split identities and multiplicativity; ``sign`` maps each identity's
    second side to what the first must equal (``_neg``, or ``dict`` to keep it)."""
    s, p, al, n = _table(a.succ), _table(a.prec), _images(a.alpha.matrix), a.dim
    star = [[_add(s[i][j], p[i][j]) for j in range(n)] for i in range(n)]
    out = dict.fromkeys(ids, True)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if out[ids[0]] and _product(s, star[i][j], al[k]) != sign(_product(s, al[i], s[j][k])):
                    out[ids[0]] = False
                if out[ids[1]] and _product(p, al[i], star[j][k]) != sign(_product(p, p[i][j], al[k])):
                    out[ids[1]] = False
                if out[ids[2]] and _product(s, al[i], p[j][k]) != sign(_product(p, s[i][j], al[k])):
                    out[ids[2]] = False
    out["mult_succ"] = _multiplicative(s, al, n)
    out["mult_prec"] = _multiplicative(p, al, n)
    return out


def rhizaform_identities(a: HomAlgebra) -> dict[str, bool]:
    """Per-identity verdicts, keyed like the checker's identity ids."""
    return _split_identities(a, ("req1", "req2", "req3"), _neg)


def rhizaform(a: HomAlgebra) -> bool:
    return all(rhizaform_identities(a).values())


def dendriform_identities(a: HomAlgebra) -> dict[str, bool]:
    return _split_identities(a, ("den1", "den2", "den3"), dict)


def dendriform(a: HomAlgebra) -> bool:
    return all(dendriform_identities(a).values())


def jacobi_jordan(mul: BilinearOp, alpha: LinearMap) -> bool:
    c, al, n = _table(mul), _images(alpha.matrix), mul.dim
    for i in range(n):
        for j in range(n):
            if c[i][j] != c[j][i]:
                return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = _add(
                    _add(_product(c, al[i], c[j][k]), _product(c, al[j], c[k][i])),
                    _product(c, al[k], c[i][j]),
                )
                if s:
                    return False
    return True


def pre_jacobi_jordan(mul: BilinearOp, alpha: LinearMap) -> bool:
    c, al, n = _table(mul), _images(alpha.matrix), mul.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = _add(
                    _add(_product(c, c[i][j], al[k]), _product(c, al[i], c[j][k])),
                    _add(_product(c, c[j][i], al[k]), _product(c, al[j], c[i][k])),
                )
                if s:
                    return False
    return True


def alpha_derivation(d: Matrix, a: HomAlgebra, product_name: str) -> bool:
    c, al, di, n = _table(a.product(product_name)), _images(a.alpha.matrix), _images(d), a.dim
    for i in range(n):
        for j in range(n):
            lhs = _apply(di, c[i][j])
            rhs = _add(_product(c, di[i], al[j]), _product(c, al[i], di[j]))
            if lhs != rhs:
                return False
    return True


def two_nilpotent(a: HomAlgebra) -> bool:
    tables = [_table(a.products[name]) for name in sorted(a.products)]
    al, n = _images(a.alpha.matrix), a.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for p in tables:
                    for q in tables:
                        if _product(q, p[i][j], al[k]):
                            return False
                        if _product(q, al[i], p[j][k]):
                            return False
    return True


def bimodule(mul: BilinearOp, alpha: LinearMap, left, right, beta: LinearMap) -> bool:
    """The five compatibility identities of a two-sided action, checked raw."""
    c, al, be = _table(mul), _images(alpha.matrix), _images(beta.matrix)
    lt, rt = _actions(left), _actions(right)
    n, m_dim = mul.dim, beta.dim
    for i in range(n):
        ax = al[i]
        for j in range(n):
            ay, xy = al[j], c[i][j]
            for w in range(m_dim):
                bm = be[w]
                if _product(lt, ax, lt[j][w]) != _neg(_product(lt, xy, bm)):
                    return False
                if _product(rt, ay, rt[i][w]) != _neg(_product(rt, xy, bm)):
                    return False
                if _product(lt, ax, rt[j][w]) != _neg(_product(rt, ay, lt[i][w])):
                    return False
        for w in range(m_dim):
            if _apply(be, lt[i][w]) != _product(lt, ax, be[w]):
                return False
            if _apply(be, rt[i][w]) != _product(rt, ax, be[w]):
                return False
    return True


def rota_baxter(r: Matrix, mul: BilinearOp, alpha: LinearMap) -> bool:
    c, al, ri, es = _table(mul), _images(alpha.matrix), _images(r), _basis(mul.dim)
    if any(_apply(ri, al[i]) != _apply(al, ri[i]) for i in range(len(es))):
        return False
    for rx, x in zip(ri, es):
        for ry, y in zip(ri, es):
            lhs = _product(c, rx, ry)
            rhs = _apply(ri, _add(_product(c, rx, y), _product(c, x, ry)))
            if lhs != rhs:
                return False
    return True


def o_operator(t: Matrix, mul: BilinearOp, alpha: LinearMap, left, right, beta: LinearMap) -> bool:
    c, al, be, ti = _table(mul), _images(alpha.matrix), _images(beta.matrix), _images(t)
    lt, rt, ms = _actions(left), _actions(right), _basis(beta.dim)
    if any(_apply(ti, be[w]) != _apply(al, ti[w]) for w in range(len(ms))):
        return False
    for tu, u in zip(ti, ms):
        for tv, v in zip(ti, ms):
            lhs = _product(c, tu, tv)
            rhs = _apply(ti, _add(_product(lt, tu, v), _product(rt, tv, u)))
            if lhs != rhs:
                return False
    return True
