"""Descending power series of split-product algebras and nilpotency verdicts.

Subspaces are canonical: each is held as the integer rows of its reduced
row echelon form, each row cleared of denominators, so equality is a plain
comparison of rows.  The diamond of two subspaces is the span of all
products of their rows under every named product of the algebra.

Within one call (``analyze`` or a public series or check) every product of
rows is built once: a dict of the call maps each (table, m, n) to the nonzero
products of the rows of m and n under that table, and each list of pairs to
its span.  So R_2 = L_2 = F_2 is one span, F_3 reads the products that R_3
and L_3 built, and a one-product reduct reads its table's rows; each term is
still one elimination.  The dict ends with the call: nothing is kept between
calls.

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

Each series stops within a proven number of terms, and exceeding it raises ``InternalError`` rather
than running on.  A right or left term lies in the one before it (S_{k+1} = S_k <> A lies in
S_{k-1} <> A = S_k), so while the series runs on, S_1, ..., S_k strictly decrease and S_k is nonzero:
k <= dim, and the series stops by k = dim + 2 (dim + 1 once dim >= 1).  The full series runs on at k
only if some S_{j-1} != S_j with ceil(k/2) < j <= k, a drop of at least one dimension inside
(k/2, k].  The intervals (2^(r-1), 2^r] for r = 1, 2, ... are disjoint, so running on at every
k = 2, 4, ..., 2^(dim+1) would need dim + 1 drops from dimension dim; it stops by k = 2^(dim+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import NamedTuple

from .algmodel import HomAlgebra, _apply_into, _product_into, _sparse
from .axioms import CheckReport, Violation, _mult_violations, _triple_violations, _Twisted, _view
from .errors import DimensionMismatch, InternalError
from .exactlin import Matrix, Vector, _cleared, _echelon, _forward, _rref_rows


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
        """The whole space: its canonical rows are the identity's."""
        return cls(ambient_dim, tuple(tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim)))

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
        return len(_forward([*self.rows, *other.rows])) == self.dim


def _span(ambient_dim: int, rows) -> Subspace:
    """The span of integer rows."""
    return Subspace(ambient_dim, tuple(map(tuple, _echelon(rows)[0])))


def diamond(m: Subspace, n: Subspace, a: HomAlgebra) -> Subspace:
    """Span of all products of basis vectors, over every named product."""
    if m.ambient_dim != a.dim or n.ambient_dim != a.dim:
        raise DimensionMismatch("subspace ambient dimension differs from the algebra")
    return _products_span([(m, n)], _view(a).tables, {})


def _products_span(pairs, tables, spans: dict) -> Subspace:
    """Span of the products of the rows of m and n, over every (m, n) in ``pairs`` and every integer
    product table; the tables are the products times D, which leaves the span unchanged.  ``spans``
    is the call's dict (module doc), keyed by the tables' identities and the subspaces' rows."""
    key = tuple(map(id, tables)), tuple([(m.rows, n.rows) for m, n in pairs])
    if (span := spans.get(key)) is None:
        dim, out = len(tables[0]), []
        for (m, n), table in product(pairs, tables):
            if (rows := spans.get((id(table), m.rows, n.rows))) is None:
                rows = spans[id(table), m.rows, n.rows] = []
                for u, v in product(m._sparse_rows, n._sparse_rows):
                    w = [0] * dim
                    _product_into(w, table, u, v)
                    if any(w):
                        rows.append(w)
            out += rows
        span = spans[key] = _span(dim, out)
    return span


# Series over integer product tables: all of an algebra's, or one for a reduct, cleared once.
_KINDS = ("right", "left", "full")


def _next_term(tables, kind: str, terms, spans: dict) -> Subspace:
    """The term after ``terms`` (S_1, ..., S_k) of the "right", "left" or "full" series."""
    if kind == "right":
        return _products_span([(terms[-1], terms[0])], tables, spans)
    if kind == "left":
        return _products_span([(terms[0], terms[-1])], tables, spans)
    return _products_span([(terms[i - 1], terms[-i]) for i in range(1, len(terms) + 1)], tables, spans)


def _until_stable(tables, kind: str, spans: dict) -> tuple[Subspace, ...]:
    """Terms up to zero or the first repeat of the stable term (the stop rule in the module doc);
    ``InternalError`` past the length the module doc proves."""
    dim = len(tables[0])
    limit = dim + 2 if kind != "full" else 2 ** (dim + 1)
    terms = [Subspace.full(dim)]
    while True:
        terms.append(_next_term(tables, kind, terms, spans))
        k = len(terms)
        last = terms[-1]
        if last.is_zero():
            return tuple(terms)
        since = k - 1 if kind != "full" else (k + 1) // 2  # S_since = ... = S_k proves stability
        if all(term == last for term in terms[since - 1 :]):
            return tuple(terms[: terms.index(last) + 2])
        if k >= limit:
            raise InternalError(f"the {kind} series of a dimension-{dim} algebra ran past {limit} terms")


def right_series(a: HomAlgebra) -> list[Subspace]:
    return list(_until_stable(_view(a).tables, "right", {}))


def left_series(a: HomAlgebra) -> list[Subspace]:
    return list(_until_stable(_view(a).tables, "left", {}))


def full_series(a: HomAlgebra) -> list[Subspace]:
    return list(_until_stable(_view(a).tables, "full", {}))


def series_term(a: HomAlgebra, kind: str, g: int) -> Subspace:
    """g-th term (1-based) of the named series, extending past stabilization."""
    if g < 1:
        raise ValueError("series terms are 1-based")
    if kind not in _KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    terms = _until_stable(_view(a).tables, kind, {})
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
        if len(_forward([*other.rows, row])) > other.dim:
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
    tables, spans = _view(a).tables, {}
    return _series_equality({kind: _until_stable(tables, kind, spans) for kind in _KINDS})


def _two_nilpotent(t: _Twisted) -> CheckReport:
    """(e_i o_p e_j) o_q alpha(e_k) ("out:p,q") and alpha(e_i) o_q (e_j o_p e_k) ("in:p,q") for every pair
    of products p, q of the view ``t``, each a one-term identity of ``axioms._triple_violations``."""
    violations = []
    for (p, p_name), (q, q_name) in product(enumerate(t.names), repeat=2):
        idents = [
            (f"out:{p_name},{q_name}", [(1, t.right[q], t.tables[p], 2, 0, 1)]),
            (f"in:{p_name},{q_name}", [(1, t.left[q], t.tables[p], 0, 1, 2)]),
        ]
        violations.extend(_triple_violations(idents, len(t.twist), t.scale))
    return CheckReport.collect("2_nilpotent", violations)


def check_2_nilpotent(a: HomAlgebra) -> CheckReport:
    """All out/in bracketings of two products vanish under every operation choice."""
    return _two_nilpotent(_view(a))


def _onesided(tables, full, spans: dict) -> CheckReport:
    """Whole algebra (full series ``full``) nilpotent iff every single-product reduct is; a
    reduct's full series is over its own table, so a mono algebra is its own reduct."""
    reducts = [full] if len(tables) == 1 else (_until_stable([table], "full", spans) for table in tables)
    parts = all(_verdict(terms).nilpotent for terms in reducts)
    violations = [] if _verdict(full).nilpotent == parts else [Violation("biconditional", (), ())]
    return CheckReport.collect("onesided_nilpotency", violations)


def check_onesided_nilpotency_theorem(a: HomAlgebra) -> CheckReport:
    """Whole algebra nilpotent iff every single-product reduct is nilpotent."""
    tables, spans = _view(a).tables, {}
    return _onesided(tables, _until_stable(tables, "full", spans), spans)


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
    t = _view(a)
    return _alpha_stability(_until_stable(t.tables, "full", {}), t.twist)


def _multiplicative(t: _Twisted) -> bool:
    return not any(any(_mult_violations(t, p, "")) for p in range(len(t.tables)))


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
    return _analysis(_view(a))


def _analysis(t: _Twisted) -> NilpotencyAnalysis:
    """``analyze`` on the integer view ``t`` of an algebra (``axioms._view``), with one dict of spans."""
    spans = {}
    series = {kind: _until_stable(t.tables, kind, spans) for kind in _KINDS}
    return NilpotencyAnalysis(
        series=series,
        series_equality=_series_equality(series),
        onesided=_onesided(t.tables, series["full"], spans),
        two_nilpotent=_two_nilpotent(t),
        alpha_stability=_alpha_stability(series["full"], t.twist) if _multiplicative(t) else None,
    )
