"""Structure-constant model: bilinear products, twist maps, and algebra files.

A product is an n x n x n tensor ``c[i][j][k]`` meaning
``e_i o e_j = sum_k c[i][j][k] e_k``; a twist map alpha is stored as the
matrix whose column i holds the coordinates of ``alpha(e_i)``.  Indices are
0-based in memory and 1-based in the text format, matching the usual
``e_1, e_2, ...`` notation.

Algebra files are JSON objects::

    {"dim": 2, "kind": "rhizaform",
     "alpha": [["1", "1"], ["0", "1"]],
     "succ": [[2, 2, 1, "1"]], "prec": [[2, 2, 1, "1"]],
     "params": {"eta": "1/4"}}

Product sections list only nonzero structure constants.  A coefficient is a
rational literal ("p" or "p/q"; no decimals) or a parameter name, optionally
negated ("-eta"); parameters are resolved to concrete rationals at parse
time, so downstream code never sees symbols.  A mono-product algebra uses
``"kind": "mono"`` with a single ``"mul"`` section.

``BilinearOp`` and ``LinearMap`` are frozen dataclasses.  A product built
from products, a signed sum of them with some arguments swapped (the summed
product, the circle product, the bracket, the family products), is one
``_combination`` of its terms.

JSON passes through one decoder, ``_decode_json``, on the way in and one
writer, ``_encode_json``, on the way out: every document rhizalab prints is
``json.dumps(obj, indent=2)``, byte for byte.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, neg, sub

from .errors import DimensionMismatch, MissingProduct, ParseError, UnboundParameter
from .exactlin import (
    F0,
    Matrix,
    Vector,
    _cleared,
    rational,
    rational_str,
    vec_zero,
)

_PARAM_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # what a coefficient can name (``_NAME_RE``)
_NAME_RE = re.compile(rf"-?{_PARAM_NAME.pattern}$")


@dataclass(frozen=True, eq=False, repr=False)
class BilinearOp:
    """Structure-constant tensor of one bilinear product; equal to any ``BilinearOp`` (a subclass
    too) with its coefficients."""

    dim: int
    coeffs: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        coeffs = tuple(
            tuple(tuple(c if isinstance(c, Fraction) else rational(c) for c in col) for col in row)
            for row in self.coeffs
        )
        if len(coeffs) != self.dim or any(
            len(row) != self.dim or any(len(col) != self.dim for col in row) for row in coeffs
        ):
            raise DimensionMismatch(f"coefficient tensor is not {self.dim}^3")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, dim: int) -> BilinearOp:
        z = vec_zero(dim)
        return cls(dim, tuple(tuple(z for _ in range(dim)) for _ in range(dim)))

    @classmethod
    def from_entries(cls, dim: int, entries) -> BilinearOp:
        """Build from 0-based (i, j, k, coefficient) tuples; duplicates add."""
        c = [[[F0] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, co in entries:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise DimensionMismatch(f"index ({i},{j},{k}) outside [0,{dim})")
            cell, q = c[i][j], rational(co)
            cell[k] = cell[k] + q if cell[k] else q  # a zero cell adds nothing
        return cls(dim, c)

    def entry(self, i: int, j: int) -> Vector:
        """Coordinates of e_i o e_j."""
        return self.coeffs[i][j]

    def nonzero_entries(self) -> list[tuple[int, int, int, Fraction]]:
        out = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k, c in enumerate(self.coeffs[i][j]):
                    if c:
                        out.append((i, j, k, c))
        return out

    def is_zero(self) -> bool:
        return not any(c for row in self.coeffs for col in row for c in col)

    def __eq__(self, other) -> bool:
        return isinstance(other, BilinearOp) and self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, self.coeffs))

    def __repr__(self):
        terms = ", ".join(
            f"e{i + 1}*e{j + 1}->{rational_str(c)}e{k + 1}" for i, j, k, c in self.nonzero_entries()
        )
        return f"BilinearOp({self.dim}: {terms or '0'})"


# --- integer kernel ---------------------------------------------------------
# The checkers and the constructions evaluate over int.  Every identity and
# construction is multilinear in the structures it reads, so ``_integers``
# clears all of them by one D, the lcm of every denominator they hold
# (``exactlin._cleared``).  A term built from k of them is then exactly D^k
# times its value.  A construction becomes Fractions only at the end, divided
# by D to its degree (``_divided``); a residual is reported as its integers
# at that scale (``axioms.Violation``).  A sparse integer vector is a tuple
# of (index, value) pairs with nonzero values, and an integer table of a
# product holds table[i][j] = e_i o e_j times D as one.


def _sparse(v) -> tuple[tuple[int, int], ...]:
    return tuple((i, c) for i, c in enumerate(v) if c)


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


def _integers(*parts) -> tuple[list, int]:
    """The products, matrices and vectors ``parts``, all cleared by one D, in integer form; and D.

    A product becomes its integer table, a matrix the list of its sparse
    integer columns, a vector a sparse integer vector.
    """
    vectors = []
    for p in parts:
        if isinstance(p, BilinearOp):
            vectors.extend(cell for row in p.coeffs for cell in row)
        elif isinstance(p, Matrix):
            vectors.extend(p.column(j) for j in range(p.cols))
        else:
            vectors.append(p)
    cleared, d = _cleared(vectors)
    cleared = iter([_sparse(v) for v in cleared])
    out = [
        [[next(cleared) for _ in range(p.dim)] for _ in range(p.dim)] if isinstance(p, BilinearOp)
        else [next(cleared) for _ in range(p.cols)] if isinstance(p, Matrix)
        else next(cleared)
        for p in parts
    ]
    return out, d


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


def _divided(cells, scale: int) -> BilinearOp:
    """The product with e_i o e_j = cells[i][j] / scale, for dense integer cells: a construction's
    only step back to Fractions."""
    return BilinearOp(len(cells), [[[Fraction(c, scale) for c in cell] for cell in row] for row in cells])


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
        _product_into(col, table, x, ((w, 1),))
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

    @property
    def is_rhizaform(self) -> bool:
        return "succ" in self.products

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

    Each cell e_i o e_j is combined coordinate-wise, in term order.
    """
    n = terms[0][1].dim
    grids = [(sign, tuple(zip(*op.coeffs)) if swapped else op.coeffs) for sign, op, swapped in terms]

    def cell(i, j):
        (sign, grid), *rest = grids
        out = grid[i][j] if sign > 0 else map(neg, grid[i][j])
        for sign, grid in rest:
            out = map(add if sign > 0 else sub, out, grid[i][j])
        return out

    return BilinearOp(n, [[cell(i, j) for j in range(n)] for i in range(n)])


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


_escape = json.encoder.encode_basestring_ascii  # the C escaper the stdlib encoder calls


def _write_json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` for dicts with text keys, lists, tuples, text, ints, booleans and
    None, at the nesting whose line break and indentation is ``pad``; any other type is a TypeError.

    Before 3.13 the stdlib writes indented JSON node by node in Python; this walk writes each text
    or int item of a container in place, and each container with one join.
    """
    if isinstance(obj, str):
        return _escape(obj)
    if obj is True:  # before the int test: True == 1
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            _escape(k) + ": " + (_escape(v) if v.__class__ is str else _write_json(v, inner))
            for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [
            _escape(v) if v.__class__ is str else int.__repr__(v) if v.__class__ is int else _write_json(v, inner)
            for v in obj
        ]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


# Python 3.13 writes indented JSON in C, faster than any walk in Python.
_encode_json = functools.partial(json.dumps, indent=2) if sys.version_info >= (3, 13) else _write_json


def _field(doc, key: str, where: str, kind: type):
    """doc[key], checked to exist and to be of the given JSON type (never a boolean)."""
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{where}: missing {key!r}")
    if isinstance(doc[key], bool) or not isinstance(doc[key], kind):
        raise ParseError(f"{where}.{key}: {key!r} must be of type {kind.__name__}")
    return doc[key]


def _resolve_coefficient(token, where: str, params: dict[str, Fraction] | None) -> Fraction:
    """A rational literal or, when ``params`` is given, a parameter name,
    optionally negated; errors name the cell ``where``."""
    s = token.strip() if isinstance(token, str) else ""
    if params is not None and _NAME_RE.match(s):
        name = s.lstrip("-")
        if name not in params:
            raise UnboundParameter(name, where)
        return -params[name] if s.startswith("-") else params[name]
    try:
        return rational(token)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _read_matrix(doc, where: str, params: dict[str, Fraction] | None) -> Matrix:
    """Rows of coefficients, all of one length; errors name the cell, e.g. ``bimodule.left[1][0][0]``."""
    if not isinstance(doc, list) or not all(isinstance(row, list) and len(row) == len(doc[0]) for row in doc):
        raise ParseError(f"{where} must be a list of rows of equal length")
    return Matrix.from_rows(
        [
            [_resolve_coefficient(e, f"{where}[{r}][{c}]", params) for c, e in enumerate(row)]
            for r, row in enumerate(doc)
        ]
    )


def _twist(doc, key: str, where: str, dim: int, params: dict[str, Fraction]) -> LinearMap:
    m = _read_matrix(_field(doc, key, where, list), f"{where}.{key}", params)
    if (m.rows, m.cols) != (dim, dim):
        raise ParseError(f"{where}.{key} must be a {dim}x{dim} array of rows")
    return LinearMap(dim, m)


def _parse_product(doc, dim: int, where: str, params: dict[str, Fraction]) -> BilinearOp:
    if not isinstance(doc, list):
        raise ParseError(f"{where} must be a list of [i, j, k, coefficient] entries")
    entries = []
    for e, item in enumerate(doc):
        if not isinstance(item, list) or len(item) != 4:
            raise ParseError(f"{where}[{e}]: {item!r} is not [i, j, k, coefficient]")
        i, j, k, co = item
        if not all(isinstance(t, int) and not isinstance(t, bool) for t in (i, j, k)):
            raise ParseError(f"{where}[{e}]: {item!r} has non-integer indices")
        if not all(1 <= t <= dim for t in (i, j, k)):
            raise ParseError(f"{where}[{e}]: {item!r} outside basis range 1..{dim}")
        entries.append((i - 1, j - 1, k - 1, _resolve_coefficient(co, f"{where}[{e}][3]", params)))
    return BilinearOp.from_entries(dim, entries)


def _read_header(doc, where: str, bindings) -> tuple[int, dict[str, Fraction], LinearMap]:
    """dim, params (the file's literals, then ``bindings``) and alpha of an algebra or family document."""
    dim = _field(doc, "dim", where, int)
    if dim < 1:
        raise ParseError(f"{where}.dim: 'dim' must be positive")
    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict) or not all(map(_PARAM_NAME.fullmatch, params_doc)):
        raise ParseError(f"{where}.params: 'params' must be a JSON object of name: rational")
    params = {name: _resolve_coefficient(v, f"{where}.params.{name}", None) for name, v in params_doc.items()}
    params.update((name, rational(v)) for name, v in (bindings or {}).items())
    return dim, params, _twist(doc, "alpha", where, dim, params)


def parse_algebra_obj(doc, bindings: dict[str, Fraction] | None = None) -> HomAlgebra:
    """Build a HomAlgebra from an already-decoded JSON object."""
    dim, params, alpha = _read_header(doc, "algebra", bindings)
    kind = doc.get("kind")
    if kind not in ("rhizaform", "mono"):
        raise ParseError(f"algebra.kind: 'kind' must be 'rhizaform' or 'mono', got {kind!r}")
    beta = None if doc.get("beta") is None else _twist(doc, "beta", "algebra", dim, params)

    wanted = ("succ", "prec") if kind == "rhizaform" else ("mul",)
    stray = [n for n in ("succ", "prec", "mul") if n not in wanted and doc.get(n)]
    if stray:
        raise ParseError(f"kind {kind!r} does not take product section(s) {stray}")
    products = {name: _parse_product(doc.get(name, []), dim, f"algebra.{name}", params) for name in wanted}
    return HomAlgebra(dim, products, alpha, params, beta)


def parse_algebra(text: str, bindings: dict[str, Fraction] | None = None) -> HomAlgebra:
    """Parse the algebra text format; see the module docstring."""
    return parse_algebra_obj(_decode_json(text), bindings)


def _matrix_obj(m: Matrix) -> list[list[str]]:
    return [[rational_str(e) for e in m.row(i)] for i in range(m.rows)]


def _product_obj(op: BilinearOp) -> list[list]:
    return [[i + 1, j + 1, k + 1, rational_str(c)] for i, j, k, c in op.nonzero_entries()]


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
    return _encode_json(serialize_algebra_obj(a)) + "\n"
