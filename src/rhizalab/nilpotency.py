"""Descending power series of split-product algebras and nilpotency verdicts.

Subspaces are canonical: each is held as the integer rows of its reduced
row echelon form, each row cleared of denominators, so equality is a plain
comparison of rows.  The diamond of two subspaces is the span of all
products of their rows under every named product of the algebra.

Three series are computed:

* right:  S_1 = A,  S_{k+1} = S_k <> A
* left:   S_1 = A,  S_{k+1} = A <> S_k   (definitions of this series are
  sometimes written with the k+1 index repeated on the right, which cannot
  terminate; the k-th term is the coherent reading and is what is used)
* full:   S_1 = A,  S_{k+1} = sum over i+j = k+1 of S_i <> S_j

Each series is extended until it hits zero or provably stops changing, and
the returned list ends at the first repeat of its stable term, so
stabilization is visible, and every later term equals its last one.  A
right or left term that equals the one before it equals every later one.  The full series is decreasing (by induction: a
pair (i, j) of S_{k+1} has, say, i >= 2, and S_i <> S_j lies in S_{i-1} <> S_j,
a pair of S_k), but one repeat does not settle it: dimensions 5, 4, 3, 3, 2
occur.  It stops at the first k where S_k = 0 or S_m = ... = S_k with
m = ceil(k/2).  Then S_{k+1} = S_k: in a pair (i, j) of S_k, i + j = k, the
larger index i lies in [m, k-1], so S_i = S_{i+1} and S_i <> S_j lies in
S_{k+1}; and S_{k+1} lies in S_k.  So the whole run from S_m on is constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import NamedTuple

from .algmodel import HomAlgebra, _apply_into, _integers, _product_into, _sparse
from .axioms import CheckReport, Violation, _multiplicativity_violations, _twisted
from .errors import DimensionMismatch
from .exactlin import Matrix, Vector, _cleared, _echelon, _rref_rows


@dataclass(frozen=True)
class Subspace:
    """Span of ``rows``: the primitive integer pivot rows of ``exactlin._echelon``, each its reduced
    echelon row times the lcm of that row's denominators, so equal subspaces have equal rows."""

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> Subspace:
        """The span of Fraction or integer vectors."""
        rows = _cleared(list(vectors))[0]
        if any(len(row) != ambient_dim for row in rows):
            raise DimensionMismatch("vector length differs from ambient dimension")
        return _span(ambient_dim, rows)

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return _span(ambient_dim, [[int(i == j) for j in range(ambient_dim)] for i in range(ambient_dim)])

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def _sparse_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The rows as sparse integer vectors (``algmodel._sparse``), built once per subspace."""
        return tuple(map(_sparse, self.rows))

    @property
    def basis(self) -> Matrix:
        """The reduced row echelon basis, as Fractions."""
        return Matrix(self.dim, self.ambient_dim, [x for row in _rref_rows(self.rows) for x in row])

    def is_zero(self) -> bool:
        return not self.rows

    def vectors(self) -> list[Vector]:
        return [tuple(row) for row in _rref_rows(self.rows)]

    def contains_vector(self, v: Vector) -> bool:
        return self.contains(Subspace.from_vectors(self.ambient_dim, [v]))

    def contains(self, other: Subspace) -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("subspaces of different ambient dimensions")
        return len(_echelon([*self.rows, *other.rows])[1]) == self.dim


def _span(ambient_dim: int, rows) -> Subspace:
    """The span of integer rows."""
    return Subspace(ambient_dim, tuple(map(tuple, _echelon(rows)[0])))


def _tables(a: HomAlgebra) -> list:
    """The integer tables of the products of ``a``, in name order, all cleared by one D."""
    return _integers(*(a.products[name] for name in sorted(a.products)))[0]


def _twisted_view(a: HomAlgebra):
    """The product names of ``a`` in order, and its integer view (``axioms._twisted``)."""
    names = sorted(a.products)
    return names, _twisted([a.products[name] for name in names], a.alpha)


def diamond(m: Subspace, n: Subspace, a: HomAlgebra) -> Subspace:
    """Span of all products of basis vectors, over every named product."""
    if m.ambient_dim != a.dim or n.ambient_dim != a.dim:
        raise DimensionMismatch("subspace ambient dimension differs from the algebra")
    return _products_span([(m, n)], _tables(a))


def _products_span(pairs, tables) -> Subspace:
    """Span of the products of the rows of m and n, over every (m, n) in ``pairs`` and every integer
    product table; the tables are the products times D, which leaves the span unchanged."""
    dim = len(tables[0])
    out = []
    for m, n in pairs:
        for u in m._sparse_rows:
            for v in n._sparse_rows:
                for table in tables:
                    w = [0] * dim
                    _product_into(w, table, u, v)
                    if any(w):
                        out.append(w)
    return _span(dim, out)


# Series over integer product tables: all of an algebra's, or one for a reduct, cleared once.
_KINDS = ("right", "left", "full")


def _next_term(tables, kind: str, terms) -> Subspace:
    """The term after ``terms`` (S_1, ..., S_k) of the "right", "left" or "full" series."""
    if kind == "right":
        return _products_span([(terms[-1], terms[0])], tables)
    if kind == "left":
        return _products_span([(terms[0], terms[-1])], tables)
    return _products_span([(terms[i - 1], terms[-i]) for i in range(1, len(terms) + 1)], tables)


def _until_stable(tables, kind: str) -> tuple[Subspace, ...]:
    """Terms up to zero or the first repeat of the stable term (the stop rule in the module doc)."""
    terms = [Subspace.full(len(tables[0]))]
    while True:
        terms.append(_next_term(tables, kind, terms))
        k = len(terms)
        last = terms[-1]
        if last.is_zero():
            return tuple(terms)
        since = k - 1 if kind != "full" else (k + 1) // 2  # S_since = ... = S_k proves stability
        if all(term == last for term in terms[since - 1 :]):
            return tuple(terms[: terms.index(last) + 2])


def right_series(a: HomAlgebra) -> list[Subspace]:
    return list(_until_stable(_tables(a), "right"))


def left_series(a: HomAlgebra) -> list[Subspace]:
    return list(_until_stable(_tables(a), "left"))


def full_series(a: HomAlgebra) -> list[Subspace]:
    return list(_until_stable(_tables(a), "full"))


def series_term(a: HomAlgebra, kind: str, g: int) -> Subspace:
    """g-th term (1-based) of the named series, extending past stabilization."""
    if g < 1:
        raise ValueError("series terms are 1-based")
    if kind not in _KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    terms = _until_stable(_tables(a), kind)
    return terms[min(g, len(terms)) - 1]  # constant from the last term on (module doc)


class NilpotencyVerdict(NamedTuple):
    nilpotent: bool
    index: int | None


def _verdict(series) -> NilpotencyVerdict:
    for g, term in enumerate(series, start=1):
        if term.is_zero():
            return NilpotencyVerdict(True, g)
    return NilpotencyVerdict(False, None)


def is_nilpotent(a: HomAlgebra) -> NilpotencyVerdict:
    return _verdict(full_series(a))


def is_right_nilpotent(a: HomAlgebra) -> NilpotencyVerdict:
    return _verdict(right_series(a))


def is_left_nilpotent(a: HomAlgebra) -> NilpotencyVerdict:
    return _verdict(left_series(a))


def _difference_witness(x: Subspace, y: Subspace) -> tuple[tuple[int, ...], int]:
    """A basis vector of x missing from y, or vice versa (x != y): its integer echelon row and that
    row's pivot, whose quotient is its reduced echelon row."""
    for row, other in [(row, y) for row in x.rows] + [(row, x) for row in y.rows]:
        if len(_echelon([*other.rows, row])[1]) > other.dim:
            return row, next(v for v in row if v)


def _series_equality(series: dict) -> CheckReport:
    """Termwise comparison of the three series (``series`` maps each kind to its terms up to
    stabilization), each padded to the longest one's length with its last term (module doc)."""
    length = max(len(terms) for terms in series.values())
    padded = [(*series[kind], *[series[kind][-1]] * (length - len(series[kind]))) for kind in _KINDS]
    violations = []
    for g, (r, l, f) in enumerate(zip(*padded), start=1):
        for ident, x, y in (("right_ne_full", r, f), ("left_ne_full", l, f), ("right_ne_left", r, l)):
            if x != y:
                violations.append(Violation(ident, (g,), *_difference_witness(x, y)))
    return CheckReport.collect("series_equality", violations)


def check_series_equality(a: HomAlgebra) -> CheckReport:
    """Termwise comparison of the three series up to common stabilization."""
    tables = _tables(a)
    return _series_equality({kind: _until_stable(tables, kind) for kind in _KINDS})


def _two_nilpotent(t, names: list[str]) -> CheckReport:
    n = len(t.twist)
    violations = []
    for p, p_name in enumerate(names):
        for q, q_name in enumerate(names):
            for i, j, k in product(range(n), repeat=3):
                # (e_i o_p e_j) o_q alpha(e_k), then alpha(e_i) o_q (e_j o_p e_k)
                out_in = (("out", t.right[q][k], t.tables[p][i][j]), ("in", t.left[q][i], t.tables[p][j][k]))
                for side, cols, x in out_in:
                    if not x:  # a zero product: nothing to apply
                        continue
                    r = [0] * n
                    _apply_into(r, cols, x)
                    if any(r):
                        ident = f"{side}:{p_name},{q_name}"
                        violations.append(Violation(ident, (i + 1, j + 1, k + 1), r, t.scale))
    return CheckReport.collect("2_nilpotent", violations)


def check_2_nilpotent(a: HomAlgebra) -> CheckReport:
    """All out/in bracketings of two products vanish under every operation choice."""
    names, t = _twisted_view(a)
    return _two_nilpotent(t, names)


def _onesided(tables, full) -> CheckReport:
    """Whole algebra (full series ``full``) nilpotent iff every single-product reduct is; a
    reduct's full series is over its own table, so a mono algebra is its own reduct."""
    reducts = [full] if len(tables) == 1 else (_until_stable([table], "full") for table in tables)
    parts = all(_verdict(terms).nilpotent for terms in reducts)
    violations = [] if _verdict(full).nilpotent == parts else [Violation("biconditional", (), ())]
    return CheckReport.collect("onesided_nilpotency", violations)


def check_onesided_nilpotency_theorem(a: HomAlgebra) -> CheckReport:
    """Whole algebra nilpotent iff every single-product reduct is nilpotent."""
    tables = _tables(a)
    return _onesided(tables, _until_stable(tables, "full"))


def _alpha_stability(full, twist) -> CheckReport:
    """alpha(S_k) inside S_k along the full series, for the integer columns ``twist`` of alpha;
    each image is a span of integer vectors, so the scales do not matter."""
    violations = []
    for g, term in enumerate(full, start=1):
        image = []
        for u in term._sparse_rows:
            w = [0] * term.ambient_dim
            _apply_into(w, twist, u)
            image.append(w)
        image = _span(term.ambient_dim, image)
        if not term.contains(image):
            violations.append(Violation("alpha_stability", (g,), *_difference_witness(image, term)))
    return CheckReport.collect("alpha_stability", violations)


def check_alpha_stability(a: HomAlgebra) -> CheckReport:
    """alpha(S_k) inside S_k along the full series; meaningful when the twist is multiplicative
    for every product (``axioms.check_multiplicativity``), which the caller checks."""
    return _alpha_stability(full_series(a), _integers(a.alpha.matrix)[0][0])


def _multiplicative(t, names: list[str]) -> bool:
    return all(next(_multiplicativity_violations(t, p, name), None) is None for p, name in enumerate(names))


@dataclass(frozen=True)
class NilpotencyAnalysis:
    """Everything ``rhizalab nilpotency`` reports on one algebra."""

    series: dict[str, tuple[Subspace, ...]]  # "right", "left", "full": the terms up to stabilization
    series_equality: CheckReport
    onesided: CheckReport
    two_nilpotent: CheckReport
    alpha_stability: CheckReport | None  # None unless the twist is multiplicative for every product

    @property
    def verdicts(self) -> dict[str, NilpotencyVerdict]:
        return {kind: _verdict(terms) for kind, terms in self.series.items()}


def analyze(a: HomAlgebra) -> NilpotencyAnalysis:
    """The series of ``a``, their verdicts and every series check, from one clearing of its products."""
    return _analysis(*_twisted_view(a))


def _analysis(names: list[str], t) -> NilpotencyAnalysis:
    """``analyze`` on the integer view ``t`` of an algebra's products ``names`` (``_twisted_view``)."""
    series = {kind: _until_stable(t.tables, kind) for kind in _KINDS}
    return NilpotencyAnalysis(
        series=series,
        series_equality=_series_equality(series),
        onesided=_onesided(t.tables, series["full"]),
        two_nilpotent=_two_nilpotent(t, names),
        alpha_stability=_alpha_stability(series["full"], t.twist) if _multiplicative(t, names) else None,
    )
