"""Exact rational vectors and matrices: row reduction, kernels, inverses.

Nothing in this package ever touches floating point.  The public functions
take and return ``fractions.Fraction`` values; row reduction itself runs over
``int``, fraction-free, in two passes: a forward pass (``_forward``) that
gives the pivots and so the rank, and a back-substitution
(``_back_substitute``) run only where the reduced rows are read.  The
solvers whose conditions are integer rows hand them to ``_kernel`` directly,
with a bound on their rank where they have proven one (it stops the forward
pass early), and read its kernel over ``int``.  Every result is read from
the pivots or the reduced row echelon form, which depend only on the row
space and not on the order in which rows are reduced, so every function
here is deterministic and safe to use for golden-file regressions.
``Matrix`` is a frozen dataclass, like the package's other value types.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, ParseError, Singular

Vector = tuple[Fraction, ...]

F0 = Fraction(0)
F1 = Fraction(1)

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # README's "p" or "p/q", in ASCII digits


def rational(text: str | int | Fraction) -> Fraction:
    """Parse "p" or "p/q" into a Fraction.  Decimal notation is rejected."""
    if isinstance(text, str):  # before Fraction, whose isinstance check goes through ABCMeta for a str
        s = text.strip()
        if not _RATIONAL.fullmatch(s):
            raise ParseError(f"bad rational {text!r}; expected 'p' or 'p/q'")
        num, _, den = s.partition("/")
        if den and not den.lstrip("0"):
            raise ParseError(f"bad rational {text!r}: zero denominator")
        try:
            return Fraction(int(num), int(den or 1))
        except ValueError as exc:  # past int's digit limit
            raise ParseError(f"bad rational {text!r}: {exc}") from None
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, float):
        raise ParseError(f"bad rational {text!r}; decimal notation is not accepted")
    raise ParseError(f"bad rational {text!r}; expected 'p' or 'p/q'")


def rational_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _ratio_texts(values, d: int) -> list[str]:
    """Each v / d, for integers v and a positive d, as the text ``rational_str`` gives its Fraction:
    one gcd per value, none when d = 1."""
    if d == 1:
        return [str(v) for v in values]
    return [str(v // g) if (g := gcd(v, d)) == d else f"{v // g}/{d // g}" for v in values]


@dataclass(frozen=True, repr=False)
class Matrix:
    """Dense rows x cols grid of Fractions, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        entries = tuple(e if type(e) is Fraction else rational(e) for e in self.entries)
        if len(entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows_) -> Matrix:
        rows_ = list(rows_)
        n = len(rows_)
        m = len(rows_[0]) if rows_ else 0
        for r in rows_:
            if len(r) != m:
                raise DimensionMismatch("ragged rows")
        return cls(n, m, [e for r in rows_ for e in r])

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls(n, n, [F1 if i == j else F0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> Matrix:
        return cls(rows, cols, [F0] * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> Matrix:
        return Matrix(
            self.cols,
            self.rows,
            [self.at(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(rational_str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by its content, the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _cleared(vectors) -> tuple[list[list[int]], int]:
    """The vectors times D, the lcm of all their denominators, as int lists; and D.

    The public reductions clear a whole matrix by one D at once, and the
    subspaces and cyclic forms their vectors; the checkers clear matrices
    beside products, whose integer form is stored, in ``algmodel._integers``.
    """
    d = lcm(*(c.denominator for v in vectors for c in v))
    return [[c.numerator * (d // c.denominator) for c in v] for v in vectors], d


def _eliminate(r: list[int], prow: list[int], c: int, f: int) -> list[int]:
    """The row r, whose entry f at column c is nonzero, with that entry cleared by the pivot row
    ``prow`` (pivot p at c): (p/g) r - (f/g) prow for g = gcd(p, f), divided by its content."""
    g = gcd(prow[c], f)
    pg, fg = prow[c] // g, f // g
    return _primitive([pg * x - fg * y for x, y in zip(r, prow)])


def _forward(rows: list[list[int]], bound: int | None = None) -> dict[int, list[int]]:
    """Fraction-free forward elimination of integer rows: each pivot column and its primitive row.

    Exact duplicate rows are read once, and a zero row is skipped.  A row is
    reduced (``_eliminate``, which keeps it primitive) only while its leading
    column already has a pivot row, and is stored at the first leading
    column that has none yet.  Reading stops once there are ``bound`` pivots,
    a bound on the rank that the caller has proven, or, with no bound, once
    every column has one: every further row lies in the span.  The pivots
    are those of the reduced row echelon form, so a caller that reads only
    them or the rank stops here.
    """
    pivot_rows = {}  # pivot column -> primitive row, zero before it
    for row in dict.fromkeys(map(tuple, rows)):
        width = len(row)
        if len(pivot_rows) == (width if bound is None else bound):
            break
        if not any(row):
            continue
        r = row
        for c in range(width):  # r is zero before c
            if f := r[c]:
                if (prow := pivot_rows.get(c)) is None:
                    pivot_rows[c] = _primitive(list(r)) if r is row else r
                    break
                r = _eliminate(r, prow, c, f)
    return pivot_rows


def _back_substitute(pivot_rows: dict[int, list[int]]) -> tuple[list[list[int]], list[int]]:
    """The forward pivot rows cleared above each pivot, right to left, in pivot-column order, and the
    pivots: each row primitive, with a positive pivot and zero in every other pivot column, so it is
    its row of the reduced row echelon form (unique) times the lcm of that row's denominators."""
    pivots = sorted(pivot_rows)
    done = []  # (pivot column, finished row), right to left
    for c in reversed(pivots):
        r = pivot_rows[c]
        for d, prow in done:
            if f := r[d]:
                r = _eliminate(r, prow, d, f)
        done.append((c, r if r[c] > 0 else [-x for x in r]))
    return [r for _, r in reversed(done)], pivots


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """The primitive rows of the reduced row echelon form of integer rows, with positive pivots, and
    their pivot columns: ``_back_substitute`` of ``_forward``."""
    return _back_substitute(_forward(rows))


def _rref_rows(rows: list[list[int]]) -> list[list[Fraction]]:
    """The nonzero rows of the reduced row echelon form of integer rows, as Fractions."""
    return [[F0 if x == 0 else Fraction(x, row[c]) for x in row] for row, c in zip(*_echelon(rows))]


def _kernel(rows: list[list[int]], cols: int, bound: int | None = None) -> list[tuple[list[int], int]]:
    """The kernel basis ``nullspace_basis`` gives, for integer rows of length ``cols``, over int: each
    vector v (1 at its free column f, -row[f]/row[pc] at each pivot column pc) as (v*d, d), d the lcm
    of its denominators, the pair ``_cleared([v])`` gives unnested.  A proven ``bound`` on the rank
    stops the forward pass there (``_forward``); the pivots, and so the kernel, are the same.  With a
    pivot in every column the kernel is empty, read off the forward pass with no back-substitution."""
    pivot_rows = _forward(rows, bound)
    if len(pivot_rows) == cols:
        return []
    reduced, pivots = _back_substitute(pivot_rows)
    basis = []
    for free in sorted(set(range(cols)).difference(pivots)):
        at = [(pc, row[free], row[pc]) for row, pc in zip(reduced, pivots) if row[free]]
        d = lcm(*(p // gcd(x, p) for _, x, p in at))
        v = [0] * cols
        v[free] = d
        for pc, x, p in at:
            v[pc] = -x * d // p
        basis.append((v, d))
    return basis


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank, from the rows of ``m`` cleared by one D."""
    out = _rref_rows(_cleared(m.to_rows())[0])
    zeros = [F0] * (m.cols * (m.rows - len(out)))
    return Matrix(m.rows, m.cols, [x for row in out for x in row] + zeros), len(out)


def rank(m: Matrix) -> int:
    return len(_forward(_cleared(m.to_rows())[0]))


def nullspace_basis(m: Matrix) -> list[Vector]:
    """Deterministic kernel basis: one vector per free column, in column order, from ``_kernel``'s pairs."""
    return [tuple(Fraction(x, d) for x in v) for v, d in _kernel(_cleared(m.to_rows())[0], m.cols)]


def invert(m: Matrix) -> Matrix:
    """Exact inverse; raises Singular when the matrix has no inverse."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices invert")
    n = m.rows
    rows, d = _cleared(m.to_rows())
    # [D m | D I] reduces to [I | m^-1] exactly when every pivot is in the left block
    pivot_rows = _forward([row + [d if j == i else 0 for j in range(n)] for i, row in enumerate(rows)])
    if any(c >= n for c in pivot_rows):
        raise Singular(f"matrix of rank < {n}")
    reduced, _ = _back_substitute(pivot_rows)
    return Matrix(n, n, [Fraction(x, row[i]) for i, row in enumerate(reduced) for x in row[n:]])
