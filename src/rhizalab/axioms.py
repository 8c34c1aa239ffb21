"""Identity checkers for the twisted structures, with exact residual reports.

Every checker walks all basis tuples (multilinearity makes that equivalent
to quantifying over all vectors) and records the exact left-minus-right
vector of each failed instance.  Reports carry 1-based basis indices to
match the file format and the usual ``e_1, e_2, ...`` notation.

Identity ids used in reports:

* anti-associativity: ``anti_assoc``
* multiplicativity of a named product: ``mult``
* split-product triple (rhizaform): ``req1``, ``req2``, ``req3`` plus
  ``mult_succ`` / ``mult_prec``
* split-product triple (dendriform): ``den1``, ``den2``, ``den3`` plus
  ``mult_succ`` / ``mult_prec``
* commutative twisted-Jacobi pair: ``comm``, ``cyclic``
* pre-Jacobi-Jordan: ``pre_jj``
* derivation rule: ``leibniz``
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .algmodel import BilinearOp, HomAlgebra, LinearMap, eval_product, sum_product
from .errors import DimensionMismatch, MissingProduct
from .exactlin import Matrix, Vector, basis_vec, rational_str, vec_add, vec_is_zero, vec_sub


@dataclass(frozen=True)
class Violation:
    identity_id: str
    basis_tuple: tuple[int, ...]
    residual: tuple[Fraction, ...]

    def to_obj(self) -> dict:
        return {
            "identity": self.identity_id,
            "basis": list(self.basis_tuple),
            "residual": [rational_str(c) for c in self.residual],
        }


@dataclass(frozen=True)
class CheckReport:
    structure_name: str
    passed: bool
    violations: tuple[Violation, ...]

    @classmethod
    def collect(cls, name: str, violations) -> CheckReport:
        vs = tuple(violations)
        return cls(name, not vs, vs)

    def failed_ids(self) -> tuple[str, ...]:
        seen = []
        for v in self.violations:
            if v.identity_id not in seen:
                seen.append(v.identity_id)
        return tuple(seen)

    def identity_passed(self, identity_id: str) -> bool:
        return all(v.identity_id != identity_id for v in self.violations)

    def to_obj(self) -> dict:
        return {
            "structure": self.structure_name,
            "passed": self.passed,
            "violations": [v.to_obj() for v in self.violations],
        }

    def to_text(self) -> str:
        return json.dumps(self.to_obj(), indent=2)


def _require_same_dim(*dims: int):
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"dimensions disagree: {dims}")


def _column_violations(ident: str, mat: Matrix, prefix: tuple[int, ...] = ()):
    """One violation per nonzero column u of ``mat``, at ``(*prefix, u + 1)``."""
    for u in range(mat.cols):
        resid = mat.column(u)
        if not vec_is_zero(resid):
            yield Violation(ident, (*prefix, u + 1), resid)


def _anti_assoc_violations(first, outer, inner, mixed, alpha: LinearMap, prefix=()):
    """Residual (x first y) outer alpha(z) + alpha(x) mixed (y inner z) on basis triples."""
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


def check_hom_anti_associative(mul: BilinearOp, alpha: LinearMap) -> CheckReport:
    """alpha(x)(yz) = -(xy)alpha(z) on all basis triples."""
    _require_same_dim(mul.dim, alpha.dim)
    return CheckReport.collect(
        "hom_anti_associative", _anti_assoc_violations(mul, mul, mul, mul, alpha)
    )


def check_multiplicativity(op: BilinearOp, alpha: LinearMap, name: str = "mult") -> CheckReport:
    """alpha(x o y) = alpha(x) o alpha(y) on all basis pairs."""
    _require_same_dim(op.dim, alpha.dim)
    n = op.dim
    violations = []
    for i in range(n):
        ai = alpha.image_of_basis(i)
        for j in range(n):
            lhs = alpha.apply(op.entry(i, j))
            rhs = eval_product(op, ai, alpha.image_of_basis(j))
            resid = vec_sub(lhs, rhs)
            if not vec_is_zero(resid):
                violations.append(Violation(name, (i + 1, j + 1), resid))
    return CheckReport.collect(f"multiplicativity[{name}]", violations)


def _split_residuals(succ_l, succ_o, succ_lo, prec_l, prec_o, prec_lo, alpha: LinearMap, sign):
    """Yield (i, j, k, r1, r2, r3) over all basis triples for the three split identities.

    With index-coupled products (lam, omega, lam.omega) the identities read

    * r1: (x prec_omega y + x succ_lam y) succ_{lam.omega} alpha(z)
      - sign alpha(x) succ_lam (y succ_omega z)
    * r2: alpha(x) prec_{lam.omega} (y prec_omega z + y succ_lam z)
      - sign (x prec_lam y) prec_omega alpha(z)
    * r3: alpha(x) succ_lam (y prec_omega z) - sign (x succ_lam y) prec_omega alpha(z)

    ``sign=-1`` is the anti-associative splitting, ``sign=1`` the associative
    one; a plain algebra passes its one succ and one prec three times each.
    """
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


def _split_triple_violations(a: HomAlgebra, signed: bool) -> list[Violation]:
    """The three split identities of a plain algebra, in the order r1, r2, r3 per triple.

    ``signed=True`` is the anti-associative splitting (right sides carry a
    minus), ``signed=False`` the associative one (no minus).
    """
    succ, prec = a.succ, a.prec
    ids = ("req1", "req2", "req3") if signed else ("den1", "den2", "den3")
    violations = []
    triples = _split_residuals(succ, succ, succ, prec, prec, prec, a.alpha, -1 if signed else 1)
    for i, j, k, *resids in triples:
        for ident, r in zip(ids, resids):
            if not vec_is_zero(r):
                violations.append(Violation(ident, (i + 1, j + 1, k + 1), r))
    return violations


def _both_products_multiplicative(a: HomAlgebra) -> list[Violation]:
    out = []
    for name in ("succ", "prec"):
        rep = check_multiplicativity(a.product(name), a.alpha, name=f"mult_{name}")
        out.extend(rep.violations)
    return out


def check_rhizaform(a: HomAlgebra) -> CheckReport:
    """Anti-associative splitting: the three signed identities + twist
    compatibility of both products."""
    if not a.is_rhizaform:
        raise MissingProduct("rhizaform check needs products succ and prec")
    violations = _split_triple_violations(a, signed=True)
    violations.extend(_both_products_multiplicative(a))
    return CheckReport.collect("rhizaform", violations)


def check_dendriform(a: HomAlgebra) -> CheckReport:
    """Associative splitting: the three sign-free identities + twist
    compatibility of both products."""
    if not a.is_rhizaform:
        raise MissingProduct("dendriform check needs products succ and prec")
    violations = _split_triple_violations(a, signed=False)
    violations.extend(_both_products_multiplicative(a))
    return CheckReport.collect("dendriform", violations)


def check_jacobi_jordan(mul: BilinearOp, alpha: LinearMap) -> CheckReport:
    """Commutativity plus the twisted cyclic identity
    alpha(x)(yz) + alpha(y)(zx) + alpha(z)(xy) = 0."""
    _require_same_dim(mul.dim, alpha.dim)
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
                    vec_add(
                        eval_product(mul, ai, mul.entry(j, k)),
                        eval_product(mul, aj, mul.entry(k, i)),
                    ),
                    eval_product(mul, ak, mul.entry(i, j)),
                )
                if not vec_is_zero(resid):
                    violations.append(Violation("cyclic", (i + 1, j + 1, k + 1), resid))
    return CheckReport.collect("jacobi_jordan", violations)


def check_pre_jacobi_jordan(mul: BilinearOp, alpha: LinearMap) -> CheckReport:
    """(xy)alpha(z) + alpha(x)(yz) + (yx)alpha(z) + alpha(y)(xz) = 0."""
    _require_same_dim(mul.dim, alpha.dim)
    n = mul.dim
    violations = []
    for i in range(n):
        ai = alpha.image_of_basis(i)
        for j in range(n):
            aj = alpha.image_of_basis(j)
            for k in range(n):
                ak = alpha.image_of_basis(k)
                resid = vec_add(
                    vec_add(
                        eval_product(mul, mul.entry(i, j), ak),
                        eval_product(mul, ai, mul.entry(j, k)),
                    ),
                    vec_add(
                        eval_product(mul, mul.entry(j, i), ak),
                        eval_product(mul, aj, mul.entry(i, k)),
                    ),
                )
                if not vec_is_zero(resid):
                    violations.append(Violation("pre_jj", (i + 1, j + 1, k + 1), resid))
    return CheckReport.collect("pre_jacobi_jordan", violations)


def pre_jacobi_jordan_product(a: HomAlgebra) -> BilinearOp:
    """x o y = x succ y - y prec x."""
    succ, prec = a.succ, a.prec
    n = a.dim
    return BilinearOp(
        n,
        [
            [
                [succ.coeffs[i][j][k] - prec.coeffs[j][i][k] for k in range(n)]
                for j in range(n)
            ]
            for i in range(n)
        ],
    )


def subadjacent_bracket(a: HomAlgebra) -> BilinearOp:
    """[x, y] = x succ y + x prec y + y succ x + y prec x (symmetric)."""
    succ, prec = a.succ, a.prec
    n = a.dim
    return BilinearOp(
        n,
        [
            [
                [
                    succ.coeffs[i][j][k]
                    + prec.coeffs[i][j][k]
                    + succ.coeffs[j][i][k]
                    + prec.coeffs[j][i][k]
                    for k in range(n)
                ]
                for j in range(n)
            ]
            for i in range(n)
        ],
    )


def inner_derivation(z: Vector, a: HomAlgebra, convention: str = "star") -> LinearMap:
    """Matrix of ad_z under either printed convention.

    ``star``:  ad_z(x) = z * x - x * z  with * the working single product;
    ``mixed``: ad_z(x) = z prec x - x succ z  (needs the split products).
    """
    n = a.dim
    if len(z) != n:
        raise DimensionMismatch("z has wrong length")
    if convention == "star":
        star = a.mul if a.kind == "mono" else sum_product(a)
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
    return LinearMap.from_columns(cols)


def check_alpha_derivation(d: LinearMap, a: HomAlgebra, product_name: str) -> CheckReport:
    """Twisted Leibniz rule D(x o y) = D(x) o alpha(y) + alpha(x) o D(y)."""
    op = a.product(product_name)
    _require_same_dim(op.dim, d.dim, a.alpha.dim)
    n = a.dim
    violations = []
    for i in range(n):
        di = d.image_of_basis(i)
        ai = a.alpha.image_of_basis(i)
        for j in range(n):
            lhs = d.apply(op.entry(i, j))
            rhs = vec_add(
                eval_product(op, di, a.alpha.image_of_basis(j)),
                eval_product(op, ai, d.image_of_basis(j)),
            )
            resid = vec_sub(lhs, rhs)
            if not vec_is_zero(resid):
                violations.append(Violation("leibniz", (i + 1, j + 1), resid))
    return CheckReport.collect(f"alpha_derivation[{product_name}]", violations)
