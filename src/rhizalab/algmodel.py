"""Structure-constant model: bilinear products, twist maps, and algebra files.

A product, ``e_i o e_j = sum_k c[i][j][k] e_k``, stores its structure
constants as integers over one denominator d: ``table[i][j]`` lists the
nonzero (k, c[i][j][k] d), and the dense ``Fraction`` tensor ``coeffs`` is
built only when read.  A twist map alpha is stored as the matrix whose column
i holds the coordinates of ``alpha(e_i)``.  Indices are 0-based in memory and
1-based in the text format, matching the usual ``e_1, e_2, ...`` notation.

Algebra files are JSON objects::

    {"dim": 2, "kind": "rhizaform",
     "alpha": [["1", "1"], ["0", "1"]],
     "succ": [[2, 2, 1, "1"]], "prec": [[2, 2, 1, "1"]],
     "params": {"eta": "1/4"}}

Product sections list only nonzero structure constants.  A coefficient is a
rational literal ("p" or "p/q"; no decimals) or a parameter name, optionally
negated ("-eta"); parameters are resolved to concrete rationals at parse
time, so downstream code never sees symbols.  A mono-product algebra uses
``"kind": "mono"`` with a single ``"mul"`` section.  A reader resolves each
distinct coefficient text once per document, in a dict local to that read
(nothing is kept between reads), and adds each product entry to the
product's integer cells as it checks it (``_entry_table``).

``BilinearOp`` and ``LinearMap`` are frozen dataclasses.  A product built
from products, a signed sum of them with some arguments swapped (the summed
product, the circle product, the bracket, the family products), is one
``_combination`` of its terms, a sum of their integer tables.

JSON passes through one decoder, ``_decode_json``, on the way in; every
document rhizalab prints is the text of ``json.dumps(obj, indent=2)``.  The
stdlib writes it, except a check report, whose text ``axioms.CheckReport.chunks``
writes in pieces of a bounded number of violations, each sent to stdout as
it comes (``cli._emit``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import DimensionMismatch, MissingProduct, ParseError, UnboundParameter
from .exactlin import (
    F0,
    Matrix,
    Vector,
    _ratio_texts,
    rational,
    rational_str,
)

_PARAM_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # what a coefficient can name (``_NAME_RE``)
_NAME_RE = re.compile(rf"-?{_PARAM_NAME.pattern}$")


@dataclass(frozen=True, eq=False, repr=False, init=False)
class BilinearOp:
    """One bilinear product: e_i o e_j = table[i][j] / d, each cell a sparse integer vector
    (``_sparse``) and d positive, in lowest terms.  Equality and hashing compare (dim, table, d), so
    a product equals any ``BilinearOp`` (a subclass too) with its coefficients."""

    dim: int
    table: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    d: int

    def __init__(self, dim: int, coeffs):
        """The product with e_i o e_j = sum_k coeffs[i][j][k] e_k, for a dense dim^3 tensor of rationals."""
        coeffs = [[[rational(c) for c in col] for col in row] for row in coeffs]
        if len(coeffs) != dim or any(len(row) != dim or any(len(col) != dim for col in row) for row in coeffs):
            raise DimensionMismatch(f"coefficient tensor is not {dim}^3")
        entries = ((i, j, k, c) for i, row in enumerate(coeffs) for j, col in enumerate(row) for k, c in enumerate(col))
        self._set(*_entry_table(dim, entries))

    @classmethod
    def _from_table(cls, table, d: int = 1) -> BilinearOp:
        """The product with e_i o e_j = table[i][j] / d, for sparse integer cells and a positive d."""
        return cls.__new__(cls)._set(table, d)

    def _set(self, table, d: int) -> BilinearOp:
        """Store ``table`` and ``d``, both divided by their common factor."""
        g = gcd(d, *(c for row in table for cell in row for _, c in cell)) if d > 1 else 1
        if g > 1:
            table = [[tuple((k, c // g) for k, c in cell) for cell in row] for row in table]
        object.__setattr__(self, "dim", len(table))
        object.__setattr__(self, "table", tuple(map(tuple, table)))
        object.__setattr__(self, "d", d // g)
        return self

    @classmethod
    def zero(cls, dim: int) -> BilinearOp:
        return cls._from_table([[()] * dim for _ in range(dim)])

    @classmethod
    def from_entries(cls, dim: int, entries) -> BilinearOp:
        """Build from 0-based (i, j, k, coefficient) tuples; duplicates add."""
        return cls._from_table(*_entry_table(dim, entries))

    @cached_property
    def coeffs(self) -> tuple[tuple[Vector, ...], ...]:
        """The dense tensor coeffs[i][j][k] of Fractions, built from the table on first read."""
        dense = [[[F0] * self.dim for _ in row] for row in self.table]
        for i, j, k, c in self.nonzero_entries():
            dense[i][j][k] = c
        return tuple(tuple(map(tuple, row)) for row in dense)

    def entry(self, i: int, j: int) -> Vector:
        """Coordinates of e_i o e_j."""
        return self.coeffs[i][j]

    def _entries(self) -> list[tuple[int, int, int, int]]:
        """(i, j, k, c) for each nonzero coefficient c / d, in index order."""
        return [(i, j, k, c) for i, row in enumerate(self.table) for j, cell in enumerate(row) for k, c in cell]

    def nonzero_entries(self) -> list[tuple[int, int, int, Fraction]]:
        return [(i, j, k, Fraction(c, self.d)) for i, j, k, c in self._entries()]

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.table)

    def __eq__(self, other) -> bool:
        return isinstance(other, BilinearOp) and (self.dim, self.d, self.table) == (other.dim, other.d, other.table)

    def __hash__(self):
        return hash((self.dim, self.d, self.table))

    def __repr__(self):
        terms = ", ".join(f"e{i}*e{j}->{c}e{k}" for i, j, k, c in _product_obj(self))
        return f"BilinearOp({self.dim}: {terms or '0'})"


def _entry_table(dim: int, entries) -> tuple[list, int]:
    """The integer table of the sum of the 0-based (i, j, k, coefficient) entries, and a denominator: each
    entry is added as it is read, over the lcm of the denominators read so far."""
    cells: dict[tuple[int, int, int], int] = {}
    d = 1
    for i, j, k, q in entries:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise DimensionMismatch(f"index ({i},{j},{k}) outside [0,{dim})")
        q = q if type(q) is Fraction else rational(q)
        c, den = q.numerator, q.denominator
        if d % den:
            f = den // gcd(d, den)
            cells = {ijk: v * f for ijk, v in cells.items()}
            d *= f
        cells[i, j, k] = cells.get((i, j, k), 0) + c * (d // den)
    table = [[()] * dim for _ in range(dim)]
    for (i, j, k), c in sorted(cells.items()):
        if c:
            table[i][j] += ((k, c),)
    return table, d


# --- integer kernel ---------------------------------------------------------
# The checkers and the constructions evaluate over int.  Every identity and
# construction is multilinear in the structures it reads, so ``_integers``
# clears all of them by one D, the lcm of every denominator they hold (a
# product's table is only rescaled).  A term built from k of them is then
# exactly D^k times its value.  A construction hands its integer cells and
# their scale straight to the product it builds (``BilinearOp._from_table``);
# a residual is reported as its integers at its scale (``axioms.Violation``).
# A sparse integer vector is a tuple of the (index, value) pairs with nonzero
# values, in index order; an integer table holds table[i][j] = D e_i o e_j.


def _sparse(v) -> tuple[tuple[int, int], ...]:
    return tuple([(i, c) for i, c in enumerate(v) if c])


def _add_into(out: list[int], x, c: int = 1) -> None:
    """out += c x for a sparse integer vector x."""
    for i, xi in x:
        out[i] += c * xi


def _summed(grids, size: int) -> list:
    """The cell-wise sum of equally shaped grids (lists of rows) of sparse integer vectors of length
    ``size``: the integer table of a sum of products, or the columns of a sum of matrices."""
    out = []
    for rows in zip(*grids):
        out_row = []
        for cells in zip(*rows):
            w = [0] * size
            for cell in cells:
                _add_into(w, cell)
            out_row.append(_sparse(w))
        out.append(out_row)
    return out


def _table_at(op: BilinearOp, d: int, sign: int = 1):
    """The integer table of sign * op (sign = +1 or -1) at scale d, a multiple of op.d (op's own)."""
    f = sign * d // op.d
    return op.table if f == 1 else [[tuple((k, c * f) for k, c in cell) for cell in row] for row in op.table]


def _integers(*parts) -> tuple[list, int]:
    """The products and matrices ``parts``, all cleared by one D, in integer form; and D.

    D is the lcm of the products' d and the denominators of the matrices.  A
    product becomes its integer table at D (``_table_at``), a matrix the list
    of its sparse integer columns.  ``axioms._twisted`` is the one caller: every
    checker and construction reads its clearing through that view.
    """
    ops = [isinstance(p, BilinearOp) for p in parts]
    columns = [[] if op else [p.column(j) for j in range(p.cols)] for p, op in zip(parts, ops)]
    d = lcm(*(p.d for p, op in zip(parts, ops) if op), *(c.denominator for cols in columns for v in cols for c in v))
    return [
        _table_at(p, d) if op else [_sparse([c.numerator * (d // c.denominator) for c in v]) for v in cols]
        for p, op, cols in zip(parts, ops, columns)
    ], d


def _product_into(out: list[int], table, x, y, c: int = 1) -> None:
    """out += c (x o y) for sparse integer vectors x, y and the integer table of o."""
    for i, xi in x:
        row = table[i]
        for j, yj in y:
            s = c * xi * yj
            for k, t in row[j]:
                out[k] += s * t


def _apply_into(out: list[int], cols, x, c: int = 1) -> None:
    """out += c M x for the sparse integer columns ``cols`` of M and a sparse integer vector x."""
    for i, xi in x:
        s = c * xi
        for r, t in cols[i]:
            out[r] += s * t


def _opposite(table) -> list:
    """The integer table of x o' y = y o x."""
    n = len(table)
    return [[table[j][i] for j in range(n)] for i in range(n)]


def _left_columns(table, x, size: int) -> list:
    """The sparse integer columns of v -> x o v, for v and x o v in a space of dimension ``size``.

    ``table`` may be a product's or an action's: table[i][w] holds e_i o e_w.
    """
    cols = []
    for w in range(size):
        col = [0] * size
        for i, xi in x:
            for k, t in table[i][w]:
                col[k] += xi * t
        cols.append(_sparse(col))
    return cols


@dataclass(frozen=True, repr=False)
class LinearMap:
    """Square matrix acting on the algebra; column i is the image of e_i."""

    dim: int
    matrix: Matrix

    def __post_init__(self):
        m = self.matrix
        if m.rows != self.dim or m.cols != self.dim:
            raise DimensionMismatch(f"twist map must be {self.dim}x{self.dim}, got {m.rows}x{m.cols}")

    @classmethod
    def identity(cls, dim: int) -> LinearMap:
        return cls(dim, Matrix.identity(dim))

    @classmethod
    def from_rows(cls, rows) -> LinearMap:
        m = Matrix.from_rows(rows)
        return cls(m.rows, m)

    @classmethod
    def from_columns(cls, columns) -> LinearMap:
        return cls.from_rows(Matrix.from_rows(columns).transpose().to_rows())

    def image_of_basis(self, i: int) -> Vector:
        return self.matrix.column(i)

    def __repr__(self):
        return f"LinearMap({self.matrix!r})"


RHIZAFORM_PRODUCTS = frozenset({"succ", "prec"})
MONO_PRODUCTS = frozenset({"mul"})


@dataclass(frozen=True)
class HomAlgebra:
    """An algebra given by named products, a twist map, and parameter bindings."""

    dim: int
    products: dict[str, BilinearOp]
    alpha: LinearMap
    params: dict[str, Fraction] = field(default_factory=dict)
    beta: LinearMap | None = None

    def __post_init__(self):
        names = frozenset(self.products)
        if names not in (RHIZAFORM_PRODUCTS, MONO_PRODUCTS):
            raise MissingProduct(
                f"products must be exactly {{succ, prec}} or {{mul}}, got {sorted(names)}"
            )
        for name, op in self.products.items():
            if op.dim != self.dim:
                raise DimensionMismatch(f"product {name!r} has dim {op.dim}, algebra has {self.dim}")
        if self.alpha.dim != self.dim:
            raise DimensionMismatch("twist map dimension differs from algebra dimension")
        if self.beta is not None and self.beta.dim != self.dim:
            raise DimensionMismatch("second map dimension differs from algebra dimension")

    @classmethod
    def rhizaform(cls, succ: BilinearOp, prec: BilinearOp, alpha: LinearMap, params=None) -> HomAlgebra:
        return cls(succ.dim, {"succ": succ, "prec": prec}, alpha, dict(params or {}))

    @classmethod
    def mono(cls, mul: BilinearOp, alpha: LinearMap, params=None) -> HomAlgebra:
        return cls(mul.dim, {"mul": mul}, alpha, dict(params or {}))

    @property
    def kind(self) -> str:
        return "rhizaform" if "succ" in self.products else "mono"

    def product(self, name: str) -> BilinearOp:
        try:
            return self.products[name]
        except KeyError:
            raise MissingProduct(f"algebra of kind {self.kind!r} has no product {name!r}") from None

    @property
    def succ(self) -> BilinearOp:
        return self.product("succ")

    @property
    def prec(self) -> BilinearOp:
        return self.product("prec")

    @property
    def mul(self) -> BilinearOp:
        return self.product("mul")


def _combination(*terms) -> BilinearOp:
    """The product sum_t sign_t (x o_t y) over the terms (sign_t, o_t, swapped_t), sign_t = +1 or -1,
    with y o_t x in place of x o_t y for a swapped term; the o_t are all of one dimension.

    The sum of the terms' signed integer tables at one scale D, the lcm of
    their d, with a swapped term's table transposed (``_opposite``), over D.
    """
    d = lcm(*(op.d for _, op, _ in terms))
    grids = [_opposite(_table_at(op, d, sign)) if swap else _table_at(op, d, sign) for sign, op, swap in terms]
    return BilinearOp._from_table(_summed(grids, terms[0][1].dim), d)


def sum_product(a: HomAlgebra) -> BilinearOp:
    """x * y = x succ y + x prec y, the anti-associative sum of the two split products."""
    return _combination((1, a.succ, False), (1, a.prec, False))


def star_product(a: HomAlgebra) -> BilinearOp:
    """The working single product: mul for mono algebras, succ+prec otherwise."""
    return a.mul if a.kind == "mono" else sum_product(a)


# --- text format -----------------------------------------------------------
# The pieces every input file shares; ``files`` reads the other file roles with them.


def _unique_keys(pairs) -> dict:
    """A JSON object, refusing a key that repeats (``json`` would keep only its last value)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"bad JSON input: repeated key {key!r}")
        doc[key] = value
    return doc


def _decode_json(text: str):
    """The one decoder of user-supplied JSON; errors are ParseError, with the position when known."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON input: {exc.msg}", position=exc.pos) from None
    except ValueError as exc:  # an integer literal beyond the interpreter's digit limit
        raise ParseError(f"bad JSON input: {exc}") from None
    except RecursionError:
        raise ParseError("bad JSON input: nested too deeply") from None


def _field(doc, key: str, where: str, kind: type):
    """doc[key], checked to exist and to be of the given JSON type (never a boolean)."""
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{where}: missing {key!r}")
    if isinstance(doc[key], bool) or not isinstance(doc[key], kind):
        raise ParseError(f"{where}.{key}: {key!r} must be of type {kind.__name__}")
    return doc[key]


def _resolve_coefficient(token, params: dict[str, Fraction] | None, known: dict, where: str, *path: int) -> Fraction:
    """A rational literal or, when ``params`` is given, a parameter name, optionally negated; errors name
    the cell, ``where`` and then each index of ``path`` in brackets (``algebra.succ[0][3]``).  ``known``
    holds the str tokens the document has resolved, each with its value; a token is added once resolved."""
    text = isinstance(token, str)
    if text and token in known:
        return known[token]
    s = token.strip() if text else ""
    if params is not None and _NAME_RE.match(s):
        name = s.lstrip("-")
        if name not in params:
            raise UnboundParameter(name, where + "".join(f"[{i}]" for i in path))
        q = -params[name] if s.startswith("-") else params[name]
    else:
        try:
            q = rational(token)
        except ParseError as exc:
            raise ParseError(where + "".join(f"[{i}]" for i in path) + f": {exc}") from None
    if text:
        known[token] = q
    return q


def _read_matrix(doc, where: str, params: dict[str, Fraction] | None, known: dict) -> Matrix:
    """Rows of coefficients, all of one length; errors name the cell, e.g. ``bimodule.left[1][0][0]``."""
    if not isinstance(doc, list) or not all(isinstance(row, list) and len(row) == len(doc[0]) for row in doc):
        raise ParseError(f"{where} must be a list of rows of equal length")
    return Matrix.from_rows(
        [[_resolve_coefficient(e, params, known, where, r, c) for c, e in enumerate(row)] for r, row in enumerate(doc)]
    )


def _twist(doc, key: str, where: str, dim: int, params: dict[str, Fraction], known: dict) -> LinearMap:
    m = _read_matrix(_field(doc, key, where, list), f"{where}.{key}", params, known)
    if (m.rows, m.cols) != (dim, dim):
        raise ParseError(f"{where}.{key} must be a {dim}x{dim} array of rows")
    return LinearMap(dim, m)


def _product_entries(doc, dim: int, where: str, params: dict[str, Fraction], known: dict):
    """The 0-based (i, j, k, coefficient) entries of a product section of 1-based [i, j, k, coefficient]
    entries, each checked as it is read."""
    if not isinstance(doc, list):
        raise ParseError(f"{where} must be a list of [i, j, k, coefficient] entries")
    for e, item in enumerate(doc):
        if not isinstance(item, list) or len(item) != 4:
            raise ParseError(f"{where}[{e}]: {item!r} is not [i, j, k, coefficient]")
        i, j, k, co = item
        if not (type(i) is type(j) is type(k) is int and 0 < i <= dim and 0 < j <= dim and 0 < k <= dim):
            if not all(isinstance(t, int) and not isinstance(t, bool) for t in (i, j, k)):
                raise ParseError(f"{where}[{e}]: {item!r} has non-integer indices")
            if not all(1 <= t <= dim for t in (i, j, k)):
                raise ParseError(f"{where}[{e}]: {item!r} outside basis range 1..{dim}")
        yield i - 1, j - 1, k - 1, _resolve_coefficient(co, params, known, where, e, 3)


def _read_header(doc, where: str, bindings, known: dict) -> tuple[int, dict[str, Fraction], LinearMap]:
    """dim, params (the file's literals, then ``bindings``) and alpha of an algebra or family document.
    The params' texts start ``known``: a literal reads alike with or without params."""
    dim = _field(doc, "dim", where, int)
    if dim < 1:
        raise ParseError(f"{where}.dim: 'dim' must be positive")
    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict) or not all(map(_PARAM_NAME.fullmatch, params_doc)):
        raise ParseError(f"{where}.params: 'params' must be a JSON object of name: rational")
    params = {name: _resolve_coefficient(v, None, known, f"{where}.params.{name}") for name, v in params_doc.items()}
    params.update((name, rational(v)) for name, v in (bindings or {}).items())
    return dim, params, _twist(doc, "alpha", where, dim, params, known)


def parse_algebra_obj(doc, bindings: dict[str, Fraction] | None = None) -> HomAlgebra:
    """Build a HomAlgebra from an already-decoded JSON object."""
    known: dict[str, Fraction] = {}
    dim, params, alpha = _read_header(doc, "algebra", bindings, known)
    kind = doc.get("kind")
    if kind not in ("rhizaform", "mono"):
        raise ParseError(f"algebra.kind: 'kind' must be 'rhizaform' or 'mono', got {kind!r}")
    beta = None if doc.get("beta") is None else _twist(doc, "beta", "algebra", dim, params, known)

    wanted = ("succ", "prec") if kind == "rhizaform" else ("mul",)
    stray = [n for n in ("succ", "prec", "mul") if n not in wanted and doc.get(n)]
    if stray:
        raise ParseError(f"kind {kind!r} does not take product section(s) {stray}")
    products = {
        name: BilinearOp.from_entries(dim, _product_entries(doc.get(name, []), dim, f"algebra.{name}", params, known))
        for name in wanted
    }
    return HomAlgebra(dim, products, alpha, params, beta)


def parse_algebra(text: str, bindings: dict[str, Fraction] | None = None) -> HomAlgebra:
    """Parse the algebra text format; see the module docstring."""
    return parse_algebra_obj(_decode_json(text), bindings)


def _matrix_obj(m: Matrix) -> list[list[str]]:
    return [[rational_str(e) for e in m.row(i)] for i in range(m.rows)]


def _product_obj(op: BilinearOp) -> list[list]:
    """The file entries [i, j, k, "p" or "p/q"] of ``op``, 1-based, in index order."""
    entries = op._entries()
    return [[i + 1, j + 1, k + 1, t] for (i, j, k, _), t in zip(entries, _ratio_texts([e[3] for e in entries], op.d))]


def serialize_algebra_obj(a: HomAlgebra) -> dict:
    doc: dict = {"dim": a.dim, "kind": a.kind, "alpha": _matrix_obj(a.alpha.matrix)}
    if a.beta is not None:
        doc["beta"] = _matrix_obj(a.beta.matrix)
    for name in ("succ", "prec", "mul"):
        if name in a.products:
            doc[name] = _product_obj(a.products[name])
    if a.params:
        doc["params"] = {name: rational_str(a.params[name]) for name in sorted(a.params)}
    return doc


def serialize_algebra(a: HomAlgebra) -> str:
    """Inverse of parse_algebra, up to entry ordering; round-trips exactly."""
    return json.dumps(serialize_algebra_obj(a), indent=2) + "\n"
