"""Readers and writers of the input files, one per role.

A reader takes a decoded JSON document and raises ``ParseError`` naming the
failing field or cell (``bimodule.left[1][0][0]``, ``family.omega.table[0][0]``).
All roles share ``algmodel``'s decoder, matrix reader and product reader.
Parameter names resolve only in algebra and family files.
"""

from __future__ import annotations

from fractions import Fraction

from .algmodel import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    _decode_json,
    _field,
    _matrix_obj,
    _product_entries,
    _product_obj,
    _read_header,
    _read_matrix,
    parse_algebra,
)
from .errors import DimensionMismatch, ParseError
from .family import FamilyAlgebra, RBFamily, Semigroup
from .exactlin import Matrix
from .operators import Bimodule


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def load_json(path: str):
    """The decoded JSON document in the file at ``path``."""
    return _decode_json(_read_text(path))


def load_algebra(path: str, bindings: dict[str, Fraction]) -> HomAlgebra:
    """The algebra file at ``path``, with ``bindings`` overriding its ``params``."""
    return parse_algebra(_read_text(path), bindings)


def read_operator(doc) -> Matrix:
    """``{"T": rows}`` (or ``"R"``, ``"D"``, ``"matrix"``), a target x source matrix."""
    for key in ("T", "R", "D", "matrix"):
        if isinstance(doc, dict) and key in doc:
            return _read_matrix(doc[key], f"operator.{key}", None, {})
    raise ParseError("operator: no operator section ('T')")


def read_bimodule(doc) -> Bimodule:
    """``{"alg_dim": n, "mod_dim": m, "left": [n m x m matrices], "right": [...], "beta": m x m}``."""
    known: dict[str, Fraction] = {}
    left, right = (
        tuple(
            _read_matrix(m, f"bimodule.{side}[{i}]", None, known)
            for i, m in enumerate(_field(doc, side, "bimodule", list))
        )
        for side in ("left", "right")
    )
    beta = _read_matrix(_field(doc, "beta", "bimodule", list), "bimodule.beta", None, known)
    alg_dim, mod_dim = (_field(doc, key, "bimodule", int) for key in ("alg_dim", "mod_dim"))
    return Bimodule(alg_dim, mod_dim, left, right, LinearMap(beta.rows, beta))


def bimodule_obj(m: Bimodule) -> dict:
    sides = {side: [_matrix_obj(mat) for mat in getattr(m, side)] for side in ("left", "right")}
    return {"alg_dim": m.alg_dim, "mod_dim": m.mod_dim, **sides, "beta": _matrix_obj(m.beta.matrix)}


def read_form(doc) -> Matrix:
    """``{"B": rows}``, the Gram matrix of a scalar form, which must be square."""
    m = _read_matrix(_field(doc, "B", "form", list), "form.B", None, {})
    if m.rows != m.cols:
        raise DimensionMismatch("form matrix must be dim x dim")
    return m


def read_semigroup(doc, where: str) -> Semigroup:
    """``doc["omega"]``: a square ``"table"`` of JSON integers, and a ``"size"`` that, if given, is its row count."""
    omega = _field(doc, "omega", where, dict)
    where = f"{where}.omega"
    table = _field(omega, "table", where, list)
    if not table:
        raise ParseError(f"{where}.table has no rows")
    for r, row in enumerate(table):
        if not isinstance(row, list) or len(row) != len(table):
            raise ParseError(f"{where}.table[{r}] must be a list of {len(table)} entries")
        for c, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ParseError(f"{where}.table[{r}][{c}]: {v!r} is not a JSON integer")
    if "size" in omega and _field(omega, "size", where, int) != len(table):
        raise ParseError(f"{where}.size: {omega['size']} does not match the {len(table)}-row table")
    return Semigroup.from_rows(table)


def _per_element(doc, key: str, where: str, size: int) -> list:
    """The lists ``doc[key]["0"]`` .. ``doc[key][str(size - 1)]``; any other key is an error."""
    section = _field(doc, key, where, dict)
    for name in section:
        if name not in map(str, range(size)):
            raise ParseError(f'{where}.{key}: key {name!r} is not a semigroup index "0".."{size - 1}"')
    return [_field(section, str(lam), f"{where}.{key}", list) for lam in range(size)]


def read_family(doc, bindings: dict[str, Fraction]) -> FamilyAlgebra:
    """An algebra file's ``dim``, ``alpha`` and ``params``, a semigroup ``omega``,
    and ``succ`` and ``prec`` sections holding one product per element."""
    s = read_semigroup(doc, "family")
    known: dict[str, Fraction] = {}
    dim, params, alpha = _read_header(doc, "family", bindings, known)
    succ, prec = (
        {
            lam: BilinearOp.from_entries(dim, _product_entries(p, dim, f"family.{name}.{lam}", params, known))
            for lam, p in enumerate(_per_element(doc, name, "family", s.size))
        }
        for name in ("succ", "prec")
    )
    return FamilyAlgebra(dim, s, succ, prec, alpha, params)


def family_obj(fam: FamilyAlgebra) -> dict:
    """The family file of ``fam``, without its parameter bindings."""
    return {
        "dim": fam.dim,
        "omega": {"size": fam.semigroup.size, "table": [list(r) for r in fam.semigroup.table]},
        "alpha": _matrix_obj(fam.alpha.matrix),
        "succ": {str(lam): _product_obj(fam.succ[lam]) for lam in range(fam.semigroup.size)},
        "prec": {str(lam): _product_obj(fam.prec[lam]) for lam in range(fam.semigroup.size)},
    }


def read_rb_family(doc) -> RBFamily:
    """A semigroup ``omega`` and one operator matrix per element in ``operators``."""
    s = read_semigroup(doc, "rb_family")
    ops, known = {}, {}
    for lam, rows in enumerate(_per_element(doc, "operators", "rb_family", s.size)):
        ops[lam] = _read_matrix(rows, f"rb_family.operators.{lam}", None, known)
    return RBFamily(s, ops)
