"""Descending power series of split-product algebras and nilpotency verdicts.

Subspaces are canonical: the basis matrix is kept in reduced row echelon
form with zero rows dropped, so equality and containment are plain matrix
comparisons.  The diamond of two subspaces is the span of all products of
their basis vectors under every named product of the algebra.

Three series are computed:

* right:  S_1 = A,  S_{k+1} = S_k <> A
* left:   S_1 = A,  S_{k+1} = A <> S_k   (definitions of this series are
  sometimes written with the k+1 index repeated on the right, which cannot
  terminate; the k-th term is the coherent reading and is what is used)
* full:   S_1 = A,  S_{k+1} = sum over i+j = k+1 of S_i <> S_j

Each series is extended until it hits zero or repeats a term; the returned
list includes the first repeated term so stabilization is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .algmodel import HomAlgebra, LinearMap, _apply_into, _int_tables, _product_into, _sparse
from .axioms import CheckReport, Violation, _residual, _twisted, check_multiplicativity
from .errors import DimensionMismatch
from .exactlin import Matrix, Vector, _cleared, rank, rref, vec_is_zero


@dataclass(frozen=True)
class Subspace:
    """Row space of a matrix in reduced echelon form with no zero rows."""

    ambient_dim: int
    basis: Matrix

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> Subspace:
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length differs from ambient dimension")
        vectors = [v for v in vectors if not vec_is_zero(v)]
        if not vectors:
            return cls(ambient_dim, Matrix.zero(0, ambient_dim))
        reduced, rk = rref(Matrix.from_rows(vectors))
        return cls(ambient_dim, Matrix.from_rows([reduced.row(i) for i in range(rk)])
                   if rk else Matrix.zero(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, Matrix.zero(0, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.basis.rows == 0

    def vectors(self) -> list[Vector]:
        return [self.basis.row(i) for i in range(self.basis.rows)]

    def add(self, other: Subspace) -> Subspace:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        return Subspace.from_vectors(self.ambient_dim, self.vectors() + other.vectors())

    def contains_vector(self, v: Vector) -> bool:
        if vec_is_zero(v):
            return True
        if self.is_zero():
            return False
        stacked = Matrix.from_rows(self.vectors() + [list(v)])
        return rank(stacked) == self.dim

    def contains(self, other: Subspace) -> bool:
        return all(self.contains_vector(v) for v in other.vectors())

    def image_under(self, f: LinearMap) -> Subspace:
        return Subspace.from_vectors(self.ambient_dim, [f.apply(v) for v in self.vectors()])


def diamond(m: Subspace, n: Subspace, a: HomAlgebra) -> Subspace:
    """Span of all products of basis vectors, over every named product.

    Evaluated over int: each basis vector and each product is scaled to
    integers, which leaves the span, and so its canonical basis, unchanged.
    """
    if m.ambient_dim != a.dim or n.ambient_dim != a.dim:
        raise DimensionMismatch("subspace ambient dimension differs from the algebra")
    tables, _ = _int_tables([a.products[name] for name in sorted(a.products)])
    us, vs = ([_sparse(_cleared([u])[0][0]) for u in s.vectors()] for s in (m, n))
    out = []
    for u in us:
        for v in vs:
            for table in tables:
                w = [0] * a.dim
                _product_into(w, table, u, v)
                if any(w):
                    out.append(w)
    return Subspace.from_vectors(a.dim, out)


def _next_term(a: HomAlgebra, kind: str, terms: list[Subspace]) -> Subspace:
    """The term after ``terms`` (S_1, S_2, ...) of the "right", "left" or "full" series."""
    if kind == "right":
        return diamond(terms[-1], terms[0], a)
    if kind == "left":
        return diamond(terms[0], terms[-1], a)
    k1 = len(terms) + 1  # computing the k1-th term, 1-based
    nxt = Subspace.zero(a.dim)
    for i in range(1, k1):
        nxt = nxt.add(diamond(terms[i - 1], terms[k1 - i - 1], a))
    return nxt


def _until_stable(a: HomAlgebra, kind: str) -> list[Subspace]:
    """Terms up to zero or the first repeat; at most ambient + 3 terms as a safety net."""
    terms = [Subspace.full(a.dim)]
    while True:
        terms.append(_next_term(a, kind, terms))
        if terms[-1].is_zero() or terms[-1] == terms[-2] or len(terms) == a.dim + 3:
            return terms


def _extended(a: HomAlgebra, kind: str, terms: list[Subspace], length: int) -> list[Subspace]:
    """``terms`` carried on past stabilization to ``length`` terms, as a new list."""
    terms = list(terms)
    while len(terms) < length:
        terms.append(_next_term(a, kind, terms))
    return terms


def right_series(a: HomAlgebra) -> list[Subspace]:
    return _until_stable(a, "right")


def left_series(a: HomAlgebra) -> list[Subspace]:
    return _until_stable(a, "left")


def full_series(a: HomAlgebra) -> list[Subspace]:
    return _until_stable(a, "full")


def series_term(a: HomAlgebra, kind: str, g: int) -> Subspace:
    """g-th term (1-based) of the named series, extending past stabilization."""
    if g < 1:
        raise ValueError("series terms are 1-based")
    if kind not in ("right", "left", "full"):
        raise ValueError(f"unknown series kind {kind!r}")
    return _extended(a, kind, [Subspace.full(a.dim)], g)[g - 1]


class NilpotencyVerdict(NamedTuple):
    nilpotent: bool
    index: int | None


def _verdict(series: list[Subspace]) -> NilpotencyVerdict:
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


def _difference_witness(x: Subspace, y: Subspace) -> Vector:
    """A basis vector of x missing from y, or vice versa."""
    for v in x.vectors():
        if not y.contains_vector(v):
            return v
    for v in y.vectors():
        if not x.contains_vector(v):
            return v
    return (0,) * x.ambient_dim


def check_series_equality(a: HomAlgebra, series: dict[str, list[Subspace]] | None = None) -> CheckReport:
    """Termwise comparison of the three series up to common stabilization.

    ``series`` maps "right", "left" and "full" to the terms up to
    stabilization (as ``right_series`` and its siblings give them) when the
    caller holds them already; each is carried on from its last term.
    """
    if series is None:
        series = {kind: _until_stable(a, kind) for kind in ("right", "left", "full")}
    length = max(len(terms) for terms in series.values())
    extended = [_extended(a, kind, series[kind], length) for kind in ("right", "left", "full")]
    violations = []
    for g, (r, l, f) in enumerate(zip(*extended), start=1):
        if r != f:
            violations.append(Violation("right_ne_full", (g,), _difference_witness(r, f)))
        if l != f:
            violations.append(Violation("left_ne_full", (g,), _difference_witness(l, f)))
        if r != l:
            violations.append(Violation("right_ne_left", (g,), _difference_witness(r, l)))
    return CheckReport.collect("series_equality", violations)


def check_2_nilpotent(a: HomAlgebra) -> CheckReport:
    """All out/in bracketings of two products vanish under every operation choice."""
    names = sorted(a.products)
    n = a.dim
    t = _twisted([a.products[name] for name in names], a.alpha)
    violations = []
    for p, p_name in enumerate(names):
        op_p = t.tables[p]
        for q, q_name in enumerate(names):
            left_q, right_q = t.left[q], t.right[q]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        out_r = [0] * n
                        _apply_into(out_r, right_q[k], op_p[i][j])
                        if any(out_r):
                            violations.append(
                                Violation(f"out:{p_name},{q_name}", (i + 1, j + 1, k + 1), _residual(out_r, t.scale))
                            )
                        in_r = [0] * n
                        _apply_into(in_r, left_q[i], op_p[j][k])
                        if any(in_r):
                            violations.append(
                                Violation(f"in:{p_name},{q_name}", (i + 1, j + 1, k + 1), _residual(in_r, t.scale))
                            )
    return CheckReport.collect("2_nilpotent", violations)


def onesided_verdicts(a: HomAlgebra, full: list[Subspace] | None = None) -> dict[str, NilpotencyVerdict]:
    """Nilpotency of the whole algebra (read from ``full``, its full series, when given) and of each
    single-product reduct."""
    out = {"full": is_nilpotent(a) if full is None else _verdict(full)}
    for name in sorted(a.products):
        reduct = HomAlgebra.mono(a.products[name], a.alpha)
        out[name] = is_nilpotent(reduct)
    return out


def check_onesided_nilpotency_theorem(a: HomAlgebra, full: list[Subspace] | None = None) -> CheckReport:
    """Whole algebra nilpotent iff every single-product reduct is nilpotent; ``full`` as in
    ``onesided_verdicts``."""
    verdicts = onesided_verdicts(a, full)
    whole = verdicts["full"].nilpotent
    parts = all(v.nilpotent for name, v in verdicts.items() if name != "full")
    violations = []
    if whole != parts:
        violations.append(Violation("biconditional", (), ()))
    return CheckReport.collect("onesided_nilpotency", violations)


def check_alpha_stability(a: HomAlgebra, full: list[Subspace] | None = None) -> CheckReport:
    """alpha(S_k) inside S_k along the full series (``full``, when the caller holds it).

    Meaningful when the twist is multiplicative for every product; the
    caller gates on that (see is_multiplicative).
    """
    violations = []
    for g, term in enumerate(full_series(a) if full is None else full, start=1):
        image = term.image_under(a.alpha)
        if not term.contains(image):
            violations.append(Violation("alpha_stability", (g,), _difference_witness(image, term)))
    return CheckReport.collect("alpha_stability", violations)


def is_multiplicative(a: HomAlgebra) -> bool:
    return all(
        check_multiplicativity(a.products[name], a.alpha, name=name).passed
        for name in sorted(a.products)
    )
