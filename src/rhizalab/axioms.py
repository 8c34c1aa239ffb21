"""Identity checkers for the twisted structures, with exact residual reports.

Every checker walks all basis tuples (multilinearity makes that equivalent
to quantifying over all vectors) and records the exact left-minus-right
vector of each failed instance.  Reports carry 1-based basis indices to
match the file format and the usual ``e_1, e_2, ...`` notation.  A report
keeps each residual as the integer vector the checker computed and its
scale, and writes it from them.

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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .algmodel import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    _add_into,
    _apply_into,
    _combination,
    _encode_json,
    _integers,
    _left_columns,
    _opposite,
    _product_into,
    _summed,
)
from .errors import DimensionMismatch, MissingProduct
from .exactlin import Vector


@dataclass(frozen=True, eq=False)
class Violation:
    """A failed instance of an identity: its residual at ``basis_tuple`` is ``values`` over ``scale``
    (a checker's integer residual at D^degree).  Equality and hashing go through the normalized
    ``residual``, so one built from those Fractions at scale 1 is equal."""

    identity_id: str
    basis_tuple: tuple[int, ...]
    values: list | tuple  # the integer residual, or Fractions at scale 1
    scale: int = 1  # positive

    @property
    def residual(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.values)

    def _key(self):
        return self.identity_id, self.basis_tuple, self.residual

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Violation) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def residual_text(self) -> list[str]:
        """Each residual coordinate as "p" or "p/q" in lowest terms, the text ``exactlin.rational_str``
        gives its Fraction: one gcd per coordinate, none at scale 1."""
        d = self.scale
        if d == 1:
            return [str(v) for v in self.values]
        return [str(v // g) if (g := gcd(v, d)) == d else f"{v // g}/{d // g}" for v in self.values]

    def to_obj(self) -> dict:
        return {"identity": self.identity_id, "basis": list(self.basis_tuple), "residual": self.residual_text()}


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
        return _encode_json(self.to_obj())


def _require_same_dim(*dims: int):
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"dimensions disagree: {dims}")


# Every checker evaluates over int (see algmodel's integer kernel): it clears
# all the structures of its identity by one D, so a term that reads k of them
# is at D^k.  Most identities are homogeneous, with every term of degree 3,
# for example a product of a product with a twisted argument; where one side
# has degree 2 (alpha(x o y) against alpha(x) o alpha(y)), that side is lifted
# by D.  A failing tuple is reported as its integer residual at D^degree
# (``Violation``), with no Fraction built.


def _column_violations(ident: str, cols: list[list[int]], scale: int, prefix: tuple[int, ...] = ()):
    """One violation per nonzero integer column u of ``cols`` (at ``scale``), at ``(*prefix, u + 1)``."""
    for u, col in enumerate(cols):
        if any(col):
            yield Violation(ident, (*prefix, u + 1), col, scale)


class _Twisted(NamedTuple):
    """Products, a twist and any further matrices, all cleared by one D, in integer form."""

    tables: list  # tables[p]: the integer table of product p
    left: list  # left[p][i]: the columns of alpha(e_i) o_p -
    right: list  # right[p][k]: the columns of - o_p alpha(e_k)
    twist: list  # the integer columns of alpha
    mats: list  # mats[m]: the integer columns of further matrix m
    d: int

    @property
    def scale(self) -> int:
        """D^3, the scale of a term of degree 3."""
        return self.d**3


def _twisted(ops, alpha: LinearMap, *mats) -> _Twisted:
    """The integer view of ``ops``, ``alpha`` and the matrices ``mats``.

    left and right hold the matrices of alpha(e_i) o - and - o alpha(e_i), at
    D^2, so a checker evaluates each product with one twisted argument as one
    of these matrices applied to the other argument.
    """
    parts, d = _integers(*ops, alpha.matrix, *mats)
    tables, twist = parts[: len(ops)], parts[len(ops)]
    n = alpha.dim
    left = [[_left_columns(t, a_i, n) for a_i in twist] for t in tables]
    right = [[_left_columns(_opposite(t), a_i, n) for a_i in twist] for t in tables]
    return _Twisted(tables, left, right, twist, parts[len(ops) + 1 :], d)


def _anti_assoc_violations(first, outer_right, inner, mixed_left, scale: int, prefix=()):
    """Residual (x first y) outer alpha(z) + alpha(x) mixed (y inner z) on basis triples.

    ``first`` and ``inner`` are integer tables, ``outer_right`` and
    ``mixed_left`` the twisted columns of outer and mixed (``_Twisted``).
    """
    n = len(first)
    for i in range(n):
        m_i = mixed_left[i]
        for j in range(n):
            f_ij = first[i][j]
            for k in range(n):
                r = [0] * n
                _apply_into(r, outer_right[k], f_ij)
                _apply_into(r, m_i, inner[j][k])
                if any(r):
                    yield Violation("anti_assoc", (*prefix, i + 1, j + 1, k + 1), r, scale)


def check_hom_anti_associative(mul: BilinearOp, alpha: LinearMap) -> CheckReport:
    """alpha(x)(yz) = -(xy)alpha(z) on all basis triples."""
    _require_same_dim(mul.dim, alpha.dim)
    t = _twisted([mul], alpha)
    return CheckReport.collect(
        "hom_anti_associative",
        _anti_assoc_violations(t.tables[0], t.right[0], t.tables[0], t.left[0], t.scale),
    )


def _sum_anti_associative(t: _Twisted) -> bool:
    """``check_hom_anti_associative`` passes on the sum of the products of ``t``, read off ``t`` up to the
    first failing triple: the sum's table and twisted columns are the sums of the products' own."""
    n = len(t.twist)
    table, left, right = (_summed(grid, n) for grid in (t.tables, t.left, t.right))
    return next(_anti_assoc_violations(table, right, table, left, t.scale), None) is None


def check_multiplicativity(op: BilinearOp, alpha: LinearMap, name: str = "mult") -> CheckReport:
    """alpha(x o y) = alpha(x) o alpha(y) on all basis pairs.

    The left side is at D^2 and is lifted by D to the right side's D^3.
    """
    _require_same_dim(op.dim, alpha.dim)
    violations = _multiplicativity_violations(_twisted([op], alpha), 0, name)
    return CheckReport.collect(f"multiplicativity[{name}]", violations)


def _multiplicativity_violations(t: _Twisted, p: int, name: str, prefix: tuple[int, ...] = ()):
    """Residual alpha(x o_p y) - alpha(x) o_p alpha(y) on basis pairs, for product p of ``t``."""
    n = len(t.twist)
    table, left = t.tables[p], t.left[p]
    for i in range(n):
        for j in range(n):
            r = [0] * n
            _apply_into(r, t.twist, table[i][j], t.d)
            _apply_into(r, left[i], t.twist[j], -1)
            if any(r):
                yield Violation(name, (*prefix, i + 1, j + 1), r, t.scale)


def _split_residuals(succ_l, succ_o, succ_lo, prec_l, prec_o, prec_lo, t: _Twisted, sign):
    """Yield (i, j, k, r1, r2, r3) over all basis triples for the three split identities.

    The products are indices into ``t``; each r is an integer residual at
    D^3.  With index-coupled products (lam, omega, lam.omega) the identities
    read

    * r1: (x prec_omega y + x succ_lam y) succ_{lam.omega} alpha(z)
      - sign alpha(x) succ_lam (y succ_omega z)
    * r2: alpha(x) prec_{lam.omega} (y prec_omega z + y succ_lam z)
      - sign (x prec_lam y) prec_omega alpha(z)
    * r3: alpha(x) succ_lam (y prec_omega z) - sign (x succ_lam y) prec_omega alpha(z)

    ``sign=-1`` is the anti-associative splitting, ``sign=1`` the associative
    one; a plain algebra passes its one succ and one prec three times each.
    """
    s_l, s_o, p_l, p_o = (t.tables[p] for p in (succ_l, succ_o, prec_l, prec_o))
    s_lo_right, p_o_right = t.right[succ_lo], t.right[prec_o]
    s_l_left, p_lo_left = t.left[succ_l], t.left[prec_lo]
    n = len(s_l)
    star = _summed([p_o, s_l], n)  # x prec_omega y + x succ_lam y
    m = -sign
    for i in range(n):
        s_l_i, p_lo_i = s_l_left[i], p_lo_left[i]
        for j in range(n):
            star_ij, p_l_ij, s_l_ij = star[i][j], p_l[i][j], s_l[i][j]
            for k in range(n):
                r1, r2, r3 = [0] * n, [0] * n, [0] * n
                _apply_into(r1, s_lo_right[k], star_ij)
                _apply_into(r1, s_l_i, s_o[j][k], m)
                _apply_into(r2, p_lo_i, star[j][k])
                _apply_into(r2, p_o_right[k], p_l_ij, m)
                _apply_into(r3, s_l_i, p_o[j][k])
                _apply_into(r3, p_o_right[k], s_l_ij, m)
                yield i, j, k, r1, r2, r3


def _split_violations(t: _Twisted, succ: int, prec: int, signed: bool) -> list[Violation]:
    """The three split identities of a plain algebra, whose products succ and prec are those at
    these indices of ``t``, in the order r1, r2, r3 per triple, then twist compatibility of both
    products.

    ``signed=True`` is the anti-associative splitting (right sides carry a
    minus), ``signed=False`` the associative one (no minus).
    """
    ids = ("req1", "req2", "req3") if signed else ("den1", "den2", "den3")
    violations = []
    for i, j, k, *resids in _split_residuals(succ, succ, succ, prec, prec, prec, t, -1 if signed else 1):
        for ident, r in zip(ids, resids):
            if any(r):
                violations.append(Violation(ident, (i + 1, j + 1, k + 1), r, t.scale))
    for p, name in ((succ, "succ"), (prec, "prec")):
        violations.extend(_multiplicativity_violations(t, p, f"mult_{name}"))
    return violations


def _split_report(a: HomAlgebra, signed: bool, view: tuple[list[str], _Twisted] | None = None) -> CheckReport:
    """``check_rhizaform`` (signed) or ``check_dendriform``; ``view`` is an integer view of the
    products of ``a`` already at hand, as the names of its products in order and the view."""
    name = "rhizaform" if signed else "dendriform"
    if not a.is_rhizaform:
        raise MissingProduct(f"{name} check needs products succ and prec")
    names, t = view or (["succ", "prec"], _twisted([a.succ, a.prec], a.alpha))
    return CheckReport.collect(name, _split_violations(t, names.index("succ"), names.index("prec"), signed))


def check_rhizaform(a: HomAlgebra) -> CheckReport:
    """Anti-associative splitting: the three signed identities + twist
    compatibility of both products."""
    return _split_report(a, signed=True)


def check_dendriform(a: HomAlgebra) -> CheckReport:
    """Associative splitting: the three sign-free identities + twist
    compatibility of both products."""
    return _split_report(a, signed=False)


def check_jacobi_jordan(mul: BilinearOp, alpha: LinearMap) -> CheckReport:
    """Commutativity plus the twisted cyclic identity
    alpha(x)(yz) + alpha(y)(zx) + alpha(z)(xy) = 0."""
    _require_same_dim(mul.dim, alpha.dim)
    n = mul.dim
    t = _twisted([mul], alpha)
    table, left = t.tables[0], t.left[0]
    violations = []
    for i in range(n):
        for j in range(n):
            r = [0] * n
            _add_into(r, table[i][j])
            _add_into(r, table[j][i], -1)
            if any(r):
                violations.append(Violation("comm", (i + 1, j + 1), r, t.d))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = [0] * n
                _apply_into(r, left[i], table[j][k])
                _apply_into(r, left[j], table[k][i])
                _apply_into(r, left[k], table[i][j])
                if any(r):
                    violations.append(Violation("cyclic", (i + 1, j + 1, k + 1), r, t.scale))
    return CheckReport.collect("jacobi_jordan", violations)


def check_pre_jacobi_jordan(mul: BilinearOp, alpha: LinearMap) -> CheckReport:
    """(xy)alpha(z) + alpha(x)(yz) + (yx)alpha(z) + alpha(y)(xz) = 0."""
    _require_same_dim(mul.dim, alpha.dim)
    n = mul.dim
    t = _twisted([mul], alpha)
    table, left, right = t.tables[0], t.left[0], t.right[0]
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = [0] * n
                _apply_into(r, right[k], table[i][j])
                _apply_into(r, left[i], table[j][k])
                _apply_into(r, right[k], table[j][i])
                _apply_into(r, left[j], table[i][k])
                if any(r):
                    violations.append(Violation("pre_jj", (i + 1, j + 1, k + 1), r, t.scale))
    return CheckReport.collect("pre_jacobi_jordan", violations)


def pre_jacobi_jordan_product(a: HomAlgebra) -> BilinearOp:
    """x o y = x succ y - y prec x, the circle product."""
    return _combination((1, a.succ, False), (-1, a.prec, True))


def subadjacent_bracket(a: HomAlgebra) -> BilinearOp:
    """[x, y] = x succ y + x prec y + y succ x + y prec x (symmetric)."""
    return _combination((1, a.succ, False), (1, a.prec, False), (1, a.succ, True), (1, a.prec, True))


def inner_derivation(z: Vector, a: HomAlgebra, convention: str = "star") -> LinearMap:
    """Matrix of ad_z under either printed convention.

    ``star``:  ad_z(x) = z * x - x * z  with * the working single product;
    ``mixed``: ad_z(x) = z prec x - x succ z  (needs the split products).

    Over int, with the products and z cleared by one D, every column is at
    D^2.
    """
    n = a.dim
    if len(z) != n:
        raise DimensionMismatch("z has wrong length")
    if convention == "star":  # the working product's table is the sum of the products' tables
        (*tables, zs), d = _integers(*a.products.values(), z)
        left = right = _summed(tables, n)
    elif convention == "mixed":
        (left, right, zs), d = _integers(a.prec, a.succ, z)
    else:
        raise ValueError(f"unknown convention {convention!r}; use 'star' or 'mixed'")
    cols = []
    for i in range(n):
        col = [0] * n
        _product_into(col, left, zs, ((i, 1),))
        _product_into(col, right, ((i, 1),), zs, -1)
        cols.append([Fraction(v, d * d) for v in col])
    return LinearMap.from_columns(cols)


def check_alpha_derivation(d: LinearMap, a: HomAlgebra, product_name: str) -> CheckReport:
    """Twisted Leibniz rule D(x o y) = D(x) o alpha(y) + alpha(x) o D(y).

    The left side is at D^2 and is lifted by D to the right side's D^3.
    """
    op = a.product(product_name)
    _require_same_dim(op.dim, d.dim, a.alpha.dim)
    n = a.dim
    t = _twisted([op], a.alpha, d.matrix)
    table, left, right, (dcols,) = t.tables[0], t.left[0], t.right[0], t.mats
    violations = []
    for i in range(n):
        for j in range(n):
            r = [0] * n
            _apply_into(r, dcols, table[i][j], t.d)
            _apply_into(r, right[j], dcols[i], -1)
            _apply_into(r, left[i], dcols[j], -1)
            if any(r):
                violations.append(Violation("leibniz", (i + 1, j + 1), r, t.scale))
    return CheckReport.collect(f"alpha_derivation[{product_name}]", violations)
