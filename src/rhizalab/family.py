"""Semigroup-indexed splittings, operator families, and the collapse to one space.

A finite semigroup is an explicit multiplication table over indices
0..size-1.  A family algebra carries one (succ, prec) pair per semigroup
element; the family identities couple the indices through the table.  A
plain algebra or operator is the one-element family: the split identities'
report (``axioms._split_violations``), the O-identity's clearing, splitting
and report (``operators._cleared``, ``_split``, ``_o_report``), the
anti-associativity terms (``axioms._anti_assoc``, written by
``axioms._triple_violations``) each exist once, and a plain caller passes no
semigroup, so its violations carry no index prefix.  The tensor collapse
turns an operator family into a single operator on dim * size coordinates
(basis ordered algebra-index major: (i, lam) -> i * size + lam).

Family report identity ids reuse the plain ones (``req1``/``req2``/``req3``,
``mult_succ``/``mult_prec``, ``anti_assoc``, ``equivariance``,
``rb_identity``); violation basis tuples are prefixed with the semigroup
indices involved, e.g. (lam, omega, i, j, k) with lam/omega 0-based and
basis indices 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .algmodel import BilinearOp, HomAlgebra, LinearMap
from .algmodel import _combination
from .axioms import (
    CheckReport,
    Violation,
    _anti_assoc,
    _require_same_dim,
    _split_violations,
    _triple_violations,
    _twisted,
)
from .errors import DimensionMismatch, NotARotaBaxterOperator
from .exactlin import Matrix
from .operators import LinearOperator, _cleared, _o_report, _split


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
    return CheckReport.collect("rhizaform_family", _split_violations(t, 0, s.size, -1, ("req2", "req3", "req1"), s))


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
    for lam, omega, gam in product(range(semigroup.size), repeat=3):
        first, inner = t.tables[index[(lam, omega)]], t.tables[index[(omega, gam)]]
        outer, mixed = index[(semigroup.mul(lam, omega), gam)], index[(lam, semigroup.mul(omega, gam))]
        idents = _anti_assoc(first, t.right[outer], inner, t.left[mixed])
        violations.extend(_triple_violations(idents, alpha.dim, t.scale, (lam, omega, gam)))
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
    c = _cleared(mul, a.alpha, [rf.operators[lam].matrix for lam in range(rf.semigroup.size)])
    return _o_report("rb_family", "rb_identity", c, [_split(c.left, c.right, op) for op in c.ops], rf.semigroup)


def induced_family_rhizaform(rf: RBFamily, a: HomAlgebra, strict: bool = True) -> FamilyAlgebra:
    """x succ_lam y = R_lam(x) * y and x prec_lam y = x * R_lam(y).

    One clearing serves the strict check and the splittings; every cell is at D^2.
    """
    _require_family_shape(rf, a)
    s = rf.semigroup
    c = _cleared(a.mul, a.alpha, [rf.operators[lam].matrix for lam in range(s.size)])
    splits = [_split(c.left, c.right, op) for op in c.ops]
    if strict and not (rep := _o_report("rb_family", "rb_identity", c, splits, s)).passed:
        raise NotARotaBaxterOperator(f"family fails {rep.failed_ids()}")
    succ, prec = ({lam: BilinearOp._from_table(split[p], c.d**2) for lam, split in enumerate(splits)} for p in (0, 1))
    return FamilyAlgebra(a.dim, s, succ, prec, a.alpha, dict(a.params))


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

    table = [[()] * big for _ in range(big)]
    for (i, row), lam, mu in product(enumerate(mul.table), range(s), range(s)):
        lm = rf.semigroup.mul(lam, mu)
        for j, cell in enumerate(row):
            table[flat(i, lam)][flat(j, mu)] = tuple((flat(k, lm), c) for k, c in cell)
    big_mul = BilinearOp._from_table(table, mul.d)

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
