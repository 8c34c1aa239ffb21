"""Semigroup-indexed splittings, operator families, and the collapse to one space.

A finite semigroup is an explicit multiplication table over indices
0..size-1.  A family algebra carries one (succ, prec) pair per semigroup
element; the family identities couple the indices through the table.  The
plain checkers and constructions are the one-element case by construction:
the split-identity residuals, the anti-associativity residual, the
O-identity residual and the operator-induced splitting each exist once
(in ``axioms`` and ``operators``), and the plain code passes its single
product or operator at every index with an empty violation prefix.  The
tensor collapse turns an operator family into a single operator on
dim * size coordinates (basis ordered algebra-index major:
(i, lam) -> i * size + lam).

Family report identity ids reuse the plain ones (``req1``/``req2``/``req3``,
``mult_succ``/``mult_prec``, ``anti_assoc``, ``equivariance``,
``rb_identity``); violation basis tuples are prefixed with the semigroup
indices involved, e.g. (lam, omega, i, j, k) with lam/omega 0-based and
basis indices 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algmodel import BilinearOp, HomAlgebra, LinearMap
from .algmodel import _combination, _integers, _opposite
from .axioms import (
    CheckReport,
    Violation,
    _anti_assoc_violations,
    _multiplicativity_violations,
    _require_same_dim,
    _split_residuals,
    _twisted,
)
from .errors import DimensionMismatch, NotARotaBaxterOperator
from .exactlin import Matrix
from .operators import LinearOperator, _equivariance_violations, _o_violations, _split


@dataclass(frozen=True)
class Semigroup:
    """Finite magma table; table[lam][omega] is the product index lam.omega."""

    size: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.table) != self.size or any(len(r) != self.size for r in self.table):
            raise DimensionMismatch("table must be size x size")
        for row in self.table:
            for v in row:
                if not (0 <= v < self.size):
                    raise DimensionMismatch(f"table value {v} outside 0..{self.size - 1}")

    @classmethod
    def from_rows(cls, rows) -> Semigroup:
        rows = tuple(tuple(int(v) for v in r) for r in rows)
        return cls(len(rows), rows)

    @classmethod
    def trivial(cls) -> Semigroup:
        return cls(1, ((0,),))

    @classmethod
    def cyclic(cls, n: int) -> Semigroup:
        return cls(n, tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))

    def mul(self, lam: int, omega: int) -> int:
        return self.table[lam][omega]


def check_semigroup(s: Semigroup) -> CheckReport:
    """Associativity of the table over all index triples."""
    violations = []
    for a in range(s.size):
        for b in range(s.size):
            ab = s.mul(a, b)
            for c in range(s.size):
                if s.mul(ab, c) != s.mul(a, s.mul(b, c)):
                    violations.append(Violation("assoc", (a, b, c), ()))
    return CheckReport.collect("semigroup", violations)


@dataclass(frozen=True)
class FamilyAlgebra:
    """One (succ, prec) pair per semigroup element, sharing a twist map."""

    dim: int
    semigroup: Semigroup
    succ: dict[int, BilinearOp]
    prec: dict[int, BilinearOp]
    alpha: LinearMap
    params: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        keys = set(range(self.semigroup.size))
        if set(self.succ) != keys or set(self.prec) != keys:
            raise DimensionMismatch("need one succ and one prec per semigroup element")
        for op in (*self.succ.values(), *self.prec.values()):
            if op.dim != self.dim:
                raise DimensionMismatch("family product dimension differs from the algebra")
        if self.alpha.dim != self.dim:
            raise DimensionMismatch("twist map dimension differs from the algebra")

    @classmethod
    def from_plain(cls, a: HomAlgebra, semigroup: Semigroup | None = None) -> FamilyAlgebra:
        """Constant family: the same split pair at every index."""
        semigroup = semigroup or Semigroup.trivial()
        return cls(
            a.dim,
            semigroup,
            {lam: a.succ for lam in range(semigroup.size)},
            {lam: a.prec for lam in range(semigroup.size)},
            a.alpha,
            dict(a.params),
        )

    def plain(self, lam: int = 0) -> HomAlgebra:
        return HomAlgebra.rhizaform(self.succ[lam], self.prec[lam], self.alpha, self.params)


@dataclass(frozen=True)
class RBFamily:
    """One weight-zero averaging operator per semigroup element."""

    semigroup: Semigroup
    operators: dict[int, LinearOperator]

    def __post_init__(self):
        if set(self.operators) != set(range(self.semigroup.size)):
            raise DimensionMismatch("need one operator per semigroup element")
        dims = {(t.source_dim, t.target_dim) for t in self.operators.values()}
        if len(dims) > 1 or any(s != t for s, t in dims):
            raise DimensionMismatch("family operators must be square and equal-dimensional")

    @property
    def dim(self) -> int:
        return next(iter(self.operators.values())).source_dim


def check_rhizaform_family(f: FamilyAlgebra) -> CheckReport:
    """The three index-coupled split identities plus twist compatibility."""
    s = f.semigroup
    # products 0..size-1 are the succ family, size..2 size-1 the prec family, all cleared by one D
    t = _twisted([f.succ[lam] for lam in range(s.size)] + [f.prec[lam] for lam in range(s.size)], f.alpha)
    violations = []
    for lam in range(s.size):
        for omega in range(s.size):
            lo = s.mul(lam, omega)
            triples = _split_residuals(lam, omega, lo, s.size + lam, s.size + omega, s.size + lo, t, -1)
            for i, j, k, r1, r2, r3 in triples:
                where = (lam, omega, i + 1, j + 1, k + 1)
                for ident, r in (("req2", r2), ("req3", r3), ("req1", r1)):
                    if any(r):
                        violations.append(Violation(ident, where, r, t.scale))
    for lam in range(s.size):
        for name, p in (("succ", lam), ("prec", s.size + lam)):
            violations.extend(_multiplicativity_violations(t, p, f"mult_{name}", (lam,)))
    return CheckReport.collect("rhizaform_family", violations)


def check_anti_associative_family(
    products: dict[tuple[int, int], BilinearOp], alpha: LinearMap, semigroup: Semigroup
) -> CheckReport:
    """(x *_{lam,omega} y) *_{lam.omega,gam} alpha(z) = -alpha(x) *_{lam,omega.gam} (y *_{omega,gam} z)."""
    pairs = sorted((lam, omega) for lam in range(semigroup.size) for omega in range(semigroup.size))
    if set(products) != set(pairs):
        raise DimensionMismatch("need one product per semigroup index pair")
    _require_same_dim(alpha.dim, *(op.dim for op in products.values()))
    t = _twisted([products[pair] for pair in pairs], alpha)
    index = {pair: p for p, pair in enumerate(pairs)}
    violations = []
    for lam in range(semigroup.size):
        for omega in range(semigroup.size):
            for gam in range(semigroup.size):
                violations.extend(
                    _anti_assoc_violations(
                        t.tables[index[(lam, omega)]],
                        t.right[index[(semigroup.mul(lam, omega), gam)]],
                        t.tables[index[(omega, gam)]],
                        t.left[index[(lam, semigroup.mul(omega, gam))]],
                        t.scale,
                        (lam, omega, gam),
                    )
                )
    return CheckReport.collect("anti_associative_family", violations)


def associated_family(f: FamilyAlgebra) -> dict[tuple[int, int], BilinearOp]:
    """x *_{lam,omega} y = x prec_omega y + x succ_lam y."""
    size = f.semigroup.size
    return {
        (lam, omega): _combination((1, f.prec[omega], False), (1, f.succ[lam], False))
        for lam in range(size)
        for omega in range(size)
    }


def _require_family_shape(rf: RBFamily, a: HomAlgebra) -> None:
    if rf.dim != a.dim:
        raise DimensionMismatch("family operators do not act on the algebra")


def check_rb_family(rf: RBFamily, a: HomAlgebra) -> CheckReport:
    """R_lam(x) * R_omega(y) = R_{lam.omega}(R_lam(x) * y + x * R_omega(y)), each R twist-equivariant."""
    mul = a.mul
    _require_family_shape(rf, a)
    s = rf.semigroup
    ops = rf.operators
    (table, twist, *cols), d = _integers(mul, a.alpha.matrix, *(ops[lam].matrix for lam in range(s.size)))
    violations = []
    for lam in range(s.size):
        violations.extend(_equivariance_violations(a.dim, cols[lam], twist, twist, cols[lam], d * d, (lam,)))
    opposite = _opposite(table)
    for lam in range(s.size):
        for omega in range(s.size):
            r_x, r_y, r_xy = cols[lam], cols[omega], cols[s.mul(lam, omega)]
            violations.extend(_o_violations("rb_identity", table, table, opposite, r_x, r_y, r_xy, d**3, (lam, omega)))
    return CheckReport.collect("rb_family", violations)


def induced_family_rhizaform(rf: RBFamily, a: HomAlgebra, strict: bool = True) -> FamilyAlgebra:
    """x succ_lam y = R_lam(x) * y and x prec_lam y = x * R_lam(y).

    Over int, with the product and every R_lam cleared by one D, every cell is
    at D^2.
    """
    _require_family_shape(rf, a)
    if strict:
        rep = check_rb_family(rf, a)
        if not rep.passed:
            raise NotARotaBaxterOperator(f"family fails {rep.failed_ids()}")
    size = rf.semigroup.size
    (table, *cols), d = _integers(a.mul, *(rf.operators[lam].matrix for lam in range(size)))
    opposite = _opposite(table)
    succ, prec = {}, {}
    for lam in range(size):
        succ[lam], prec[lam] = _split(table, opposite, cols[lam], d * d)
    return FamilyAlgebra(a.dim, rf.semigroup, succ, prec, a.alpha, dict(a.params))


def tensor_collapse(a: HomAlgebra, rf: RBFamily) -> tuple[HomAlgebra, LinearOperator]:
    """One algebra on dim * size coordinates plus the stacked operator.

    Basis (i, lam) maps to index i * size + lam; the product multiplies
    algebra parts and semigroup labels independently, the twist acts on the
    algebra part only, and the operator applies R_lam on the lam slice.
    """
    mul = a.mul
    _require_family_shape(rf, a)
    n = a.dim
    s = rf.semigroup.size
    big = n * s

    def flat(i: int, lam: int) -> int:
        return i * s + lam

    entries = []
    for i in range(n):
        for j in range(n):
            prod = mul.entry(i, j)
            for lam in range(s):
                for mu in range(s):
                    lm = rf.semigroup.mul(lam, mu)
                    for k in range(n):
                        if prod[k]:
                            entries.append((flat(i, lam), flat(j, mu), flat(k, lm), prod[k]))
    big_mul = BilinearOp.from_entries(big, entries)

    def block_diagonal(blocks: list[Matrix]) -> Matrix:
        # block lam acts on the lam slice: entry (k, i) lands at (flat(k, lam), flat(i, lam))
        rows = [[Fraction(0)] * big for _ in range(big)]
        for lam, block in enumerate(blocks):
            for i in range(n):
                for k in range(n):
                    if block.at(k, i):
                        rows[flat(k, lam)][flat(i, lam)] = block.at(k, i)
        return Matrix.from_rows(rows)

    big_alpha = LinearMap(big, block_diagonal([a.alpha.matrix] * s))
    big_r = LinearOperator(big, big, block_diagonal([rf.operators[lam].matrix for lam in range(s)]))
    return HomAlgebra.mono(big_mul, big_alpha, dict(a.params)), big_r
