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

A plain split algebra is the one-element family: ``_split_violations`` builds the
reports of ``check_rhizaform``, ``check_dendriform`` and ``family.check_rhizaform_family``.

Two writers walk the basis tuples.  ``_triple_violations`` writes each degree-3 identity that is a
list of terms M(e_a) applied to e_b o e_c, for (a, b, c) an order of the triple: the split
identities, anti-associativity (plain, of a sum, and ``family``'s), Jacobi-Jordan's cyclic identity,
pre-Jacobi-Jordan and ``nilpotency``'s 2-nilpotency.  ``_homomorphism_violations`` writes each
identity over basis pairs that is a signed, lifted map of a product against a signed sum of products:
multiplicativity, the homomorphism identity, the Leibniz rule, commutativity and ``operators``'
O-identity.  The bimodule identities stay apart: they compose action matrices over (i, j, u).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .algmodel import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    _apply_into,
    _combination,
    _integers,
    _left_columns,
    _opposite,
    _product_into,
    _summed,
)
from .errors import DimensionMismatch, MissingProduct
from .exactlin import Matrix, Vector, _ratio_texts


@dataclass(eq=False, slots=True)
class Violation:
    """A failed instance of an identity: its residual at ``basis_tuple`` is ``values`` over ``scale``
    (a checker's integer residual at D^degree).  Equality and hashing go through the normalized
    ``residual``, so one built from those Fractions at scale 1 is equal.

    A plain slotted record: no instance ``__dict__``, and not frozen, so building one costs four
    slot stores rather than four ``object.__setattr__`` calls.  Nothing mutates a violation."""

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
        """Each residual coordinate as "p" or "p/q" in lowest terms (``exactlin._ratio_texts``)."""
        return _ratio_texts(self.values, self.scale)

    def to_obj(self) -> dict:
        return {"identity": self.identity_id, "basis": list(self.basis_tuple), "residual": self.residual_text()}


_CHUNK = 256  # the most violations one piece of ``CheckReport.chunks`` holds


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

    def chunks(self, depth: int = 0):
        """``json.dumps(self.to_obj(), indent=2)`` written ``depth`` levels deep (every line after the
        first indented by 2 * depth more spaces), in pieces of at most ``_CHUNK`` violations each, so a
        writer holds one piece of text however many violations the report has.

        Each violation is written by one ``%`` format string: a template per (basis length, residual
        length) shape, built on first use, with a ``%s`` for the identity's JSON text, each basis index
        and each residual text (which holds only digits, ``-`` and ``/``, so JSON writes it
        unescaped).  A residual at scale 1 goes in as it is, since ``str`` of an int or a Fraction is
        its text; any other through ``exactlin._ratio_texts``."""
        pad = "\n" + "  " * depth
        head = (
            f'{{{pad}  "structure": {json.dumps(self.structure_name)},'
            f'{pad}  "passed": {json.dumps(self.passed)},{pad}  "violations": '
        )
        vs = self.violations
        if not vs:
            yield head + "[]" + pad + "}"
            return
        ids = {ident: json.dumps(ident) for ident in {v.identity_id for v in vs}}
        templates, sep = {}, "," + pad + "    "
        for start in range(0, len(vs), _CHUNK):
            items = []
            for v in vs[start : start + _CHUNK]:
                values = v.values if v.scale == 1 else _ratio_texts(v.values, v.scale)
                shape = len(v.basis_tuple), len(values)
                if (template := templates.get(shape)) is None:
                    template = templates[shape] = _violation_template(*shape, pad)
                items.append(template % (ids[v.identity_id], *v.basis_tuple, *values))
            lead = head + "[" + pad + "    " if start == 0 else sep
            tail = pad + "  ]" + pad + "}" if start + _CHUNK >= len(vs) else ""
            yield lead + sep.join(items) + tail


def _violation_template(basis: int, residual: int, pad: str) -> str:
    """A violation's text at depth 4 of ``json.dumps(..., indent=2)``, each line break followed by
    ``pad`` (a newline and the report's own indent), with ``%s`` for its fields."""
    def cells(cell: str, k: int) -> str:
        return "[" + ",".join([pad + "        " + cell] * k) + pad + "      ]" if k else "[]"
    return ("{" + pad + '      "identity": %s,' + pad + '      "basis": ' + cells("%s", basis)
            + "," + pad + '      "residual": ' + cells('"%s"', residual) + pad + "    }")


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


@dataclass(eq=False)
class _Twisted:
    """Products, a twist and any further matrices, all cleared by one D, in integer form; for an
    algebra (``_view``), also the names of its products.

    ``left`` and ``right`` hold the matrices of alpha(e_i) o - and - o alpha(e_i),
    at D^2, so a checker evaluates each product with one twisted argument as
    one of these matrices applied to the other argument.  They are built on
    first read: the cyclic-form solvers read neither.
    """

    tables: list  # tables[p]: the integer table of product p
    twist: list  # the integer columns of alpha
    mats: list  # mats[m]: the integer columns of further matrix m
    d: int
    names: tuple = ()  # names[p]: the name of product p in an algebra's view

    @property
    def scale(self) -> int:
        """D^3, the scale of a term of degree 3."""
        return self.d**3

    @cached_property
    def left(self) -> list:  # left[p][i]: the columns of alpha(e_i) o_p -
        return [[_left_columns(t, a_i, len(self.twist)) for a_i in self.twist] for t in self.tables]

    @cached_property
    def right(self) -> list:  # right[p][k]: the columns of - o_p alpha(e_k)
        return [[_left_columns(o, a_i, len(self.twist)) for a_i in self.twist] for o in map(_opposite, self.tables)]


def _twisted(ops, alpha: LinearMap, *mats, names=()) -> _Twisted:
    """The integer view of ``ops``, ``alpha`` and the matrices ``mats``: the one ``_integers`` call."""
    parts, d = _integers(*ops, alpha.matrix, *mats)
    return _Twisted(parts[: len(ops)], parts[len(ops)], parts[len(ops) + 1 :], d, names)


def _view(a: HomAlgebra, *mats) -> _Twisted:
    """The one integer view of the algebra ``a`` (``_twisted``): its products in name order, named,
    its twist and ``mats``.  A public function builds it once; its private readers share it."""
    names = tuple(sorted(a.products))
    return _twisted([a.products[name] for name in names], a.alpha, *mats, names=names)


def _triple_violations(idents, n: int, scale: int, prefix: tuple[int, ...] = ()):
    """One violation per basis triple x = (i, j, k), in lexicographic order, and identity of ``idents``, in
    order, whose integer residual r at ``scale`` is nonzero; it is reported at ``prefix + (i+1, j+1, k+1)``.

    Each of ``idents`` is a pair (ident, terms), and each term a 6-tuple (sign, cols, table, a, b, c): it
    adds sign cols[x[a]] applied to table[x[b]][x[c]] to r, for the twisted columns ``cols`` of a
    product (``_Twisted.left`` or ``right``) and an integer table.  A term whose cell table[x[b]][x[c]]
    is empty adds nothing and is skipped; where no term is live, r = 0 and no list is built for it.
    A generator, so a caller may stop at the first violation.
    """
    for x, at in zip(product(range(n), repeat=3), product(range(1, n + 1), repeat=3)):
        for ident, terms in idents:
            r = None
            for sign, cols, table, a, b, c in terms:
                if cell := table[x[b]][x[c]]:
                    r = r or [0] * n
                    _apply_into(r, cols[x[a]], cell, sign)
            if r and any(r):
                yield Violation(ident, prefix + at, r, scale)


def _anti_assoc(first, outer_right, inner, mixed_left) -> list:
    """The one identity (x first y) outer alpha(z) + alpha(x) mixed (y inner z) = 0, for the integer
    tables ``first`` and ``inner`` and the twisted columns ``outer_right`` and ``mixed_left``."""
    return [("anti_assoc", [(1, outer_right, first, 2, 0, 1), (1, mixed_left, inner, 0, 1, 2)])]


def check_hom_anti_associative(mul: BilinearOp, alpha: LinearMap) -> CheckReport:
    """alpha(x)(yz) = -(xy)alpha(z) on all basis triples."""
    _require_same_dim(mul.dim, alpha.dim)
    t = _twisted([mul], alpha)
    idents = _anti_assoc(t.tables[0], t.right[0], t.tables[0], t.left[0])
    return CheckReport.collect("hom_anti_associative", _triple_violations(idents, mul.dim, t.scale))


def _sum_anti_associative(t: _Twisted) -> bool:
    """``check_hom_anti_associative`` passes on the sum of the products of ``t``, read off ``t`` up to the
    first failing triple: the sum's table and twisted columns are the sums of the products' own."""
    n = len(t.twist)
    table, left, right = (_summed(grid, n) for grid in (t.tables, t.left, t.right))
    return next(_triple_violations(_anti_assoc(table, right, table, left), n, t.scale), None) is None


def check_multiplicativity(op: BilinearOp, alpha: LinearMap, name: str = "mult") -> CheckReport:
    """alpha(x o y) = alpha(x) o alpha(y) on all basis pairs: alpha is a homomorphism of o."""
    _require_same_dim(op.dim, alpha.dim)
    t = _twisted([op], alpha)
    return CheckReport.collect(f"multiplicativity[{name}]", _mult_violations(t, 0, name))


def _mult_violations(t: _Twisted, p: int, ident: str, prefix: tuple[int, ...] = ()):
    """Multiplicativity of product p of the view ``t``: the homomorphism residual of alpha, lifted by D."""
    return _homomorphism_violations(ident, t.twist, t.tables[p], [(-1, t.left[p], t.twist)], t.d, t.scale, prefix)


def _homomorphism_violations(ident: str, images, src, terms, lift: int, scale: int, prefix: tuple[int, ...] = ()):
    """Residual lift f(x o y) + sum_t sign_t g_t(x) o' h_t(y) on basis pairs, in lexicographic order, at
    ``scale``, for the columns ``images`` of f and the integer table ``src`` of o.  Each term is a triple
    (sign, lefts, rights): lefts[i] holds the columns of g_t(e_i) o' -, ``rights`` those of h_t.

    A homomorphism f has the one term (-1, f(e_i) o' -, f), its left side at d^2 lifted by d to d^3:
    multiplicativity (``_mult_violations``) and ``operators.check_homomorphism``.  The twisted Leibniz
    rule (``check_alpha_derivation``) has two such terms.  Commutativity (``check_jacobi_jordan``) is the
    identity map into the opposite product, and the O-identity (``operators._o_report``) is T's, from
    the summed splitting into the product, lifted by -1 so that T(x) * T(y) is read with sign +1."""
    for i, row in enumerate(src):
        for j, cell in enumerate(row):
            r = [0] * len(terms[0][1][i])  # the target's dimension
            _apply_into(r, images, cell, lift)
            for sign, lefts, rights in terms:
                _apply_into(r, lefts[i], rights[j], sign)
            if any(r):
                yield Violation(ident, (*prefix, i + 1, j + 1), r, scale)


def _split_violations(t: _Twisted, succ: int, prec: int, sign: int, ids, s=None) -> list[Violation]:
    """The three split identities of the family whose succ_lam and prec_lam are the products at
    ``succ + lam`` and ``prec + lam`` of ``t``, then twist compatibility of both.  With index-coupled
    products (lam, omega, lam.omega) the identities read

    * 1: (x prec_omega y + x succ_lam y) succ_{lam.omega} alpha(z) - sign alpha(x) succ_lam (y succ_omega z)
    * 2: alpha(x) prec_{lam.omega} (y prec_omega z + y succ_lam z) - sign (x prec_lam y) prec_omega alpha(z)
    * 3: alpha(x) succ_lam (y prec_omega z) - sign (x succ_lam y) prec_omega alpha(z)

    ``sign=-1`` is the anti-associative splitting, ``sign=1`` the associative one; each is written by
    ``_triple_violations``, the star product x prec_omega y + x succ_lam y as one summed table.  Each id
    of ``ids`` ends in the number of its identity, and a triple's violations follow the order of ``ids``.
    Over the semigroup ``s`` a basis tuple is prefixed with (lam, omega), or (lam,); without ``s`` (one
    element, a plain algebra passing its one succ and one prec) it has no prefix.
    """
    size, n, m = s.size if s else 1, len(t.twist), -sign
    violations = []
    for lam in range(size):
        for omega in range(size):
            lo, prefix = (s.mul(lam, omega), (lam, omega)) if s else (0, ())
            s_l, s_o, p_l, p_o = (t.tables[p] for p in (succ + lam, succ + omega, prec + lam, prec + omega))
            star = _summed([p_o, s_l], n)
            s_l_left, p_o_right = t.left[succ + lam], t.right[prec + omega]
            terms = (
                [(1, t.right[succ + lo], star, 2, 0, 1), (m, s_l_left, s_o, 0, 1, 2)],
                [(1, t.left[prec + lo], star, 0, 1, 2), (m, p_o_right, p_l, 2, 0, 1)],
                [(1, s_l_left, p_o, 0, 1, 2), (m, p_o_right, s_l, 2, 0, 1)],
            )
            idents = [(ident, terms[int(ident[-1]) - 1]) for ident in ids]
            violations.extend(_triple_violations(idents, n, t.scale, prefix))
    for lam in range(size):
        for p, name in ((succ + lam, "succ"), (prec + lam, "prec")):
            violations.extend(_mult_violations(t, p, f"mult_{name}", (lam,) if s else ()))
    return violations


def _split_report(t: _Twisted, signed: bool) -> CheckReport:
    """``check_rhizaform`` (signed) or ``check_dendriform`` on the algebra of the view ``t``."""
    name, sign, stem = ("rhizaform", -1, "req") if signed else ("dendriform", 1, "den")
    if "succ" not in t.names:
        raise MissingProduct(f"{name} check needs products succ and prec")
    ids = (f"{stem}1", f"{stem}2", f"{stem}3")
    return CheckReport.collect(name, _split_violations(t, t.names.index("succ"), t.names.index("prec"), sign, ids))


def check_rhizaform(a: HomAlgebra) -> CheckReport:
    """Anti-associative splitting: the three signed identities + twist
    compatibility of both products."""
    return _split_report(_view(a), signed=True)


def check_dendriform(a: HomAlgebra) -> CheckReport:
    """Associative splitting: the three sign-free identities + twist
    compatibility of both products."""
    return _split_report(_view(a), signed=False)


def check_jacobi_jordan(mul: BilinearOp, alpha: LinearMap) -> CheckReport:
    """Commutativity plus the twisted cyclic identity
    alpha(x)(yz) + alpha(y)(zx) + alpha(z)(xy) = 0."""
    _require_same_dim(mul.dim, alpha.dim)
    n = mul.dim
    t = _twisted([mul], alpha)
    table, left, units = t.tables[0], t.left[0], [((k, 1),) for k in range(n)]
    violations = list(_homomorphism_violations("comm", units, table, [(-1, _opposite(table), units)], 1, t.d))
    cyclic = [(1, left, table, 0, 1, 2), (1, left, table, 1, 2, 0), (1, left, table, 2, 0, 1)]
    violations.extend(_triple_violations([("cyclic", cyclic)], n, t.scale))
    return CheckReport.collect("jacobi_jordan", violations)


def check_pre_jacobi_jordan(mul: BilinearOp, alpha: LinearMap) -> CheckReport:
    """(xy)alpha(z) + alpha(x)(yz) + (yx)alpha(z) + alpha(y)(xz) = 0."""
    _require_same_dim(mul.dim, alpha.dim)
    t = _twisted([mul], alpha)
    table, left, right = t.tables[0], t.left[0], t.right[0]
    terms = [(1, right, table, 2, 0, 1), (1, left, table, 0, 1, 2)]  # (xy)alpha(z) + alpha(x)(yz)
    terms += [(1, right, table, 2, 1, 0), (1, left, table, 1, 0, 2)]  # (yx)alpha(z) + alpha(y)(xz)
    return CheckReport.collect("pre_jacobi_jordan", _triple_violations([("pre_jj", terms)], mul.dim, t.scale))


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

    Over int, with the products, alpha and z (a one-column matrix) cleared by
    one D (``_twisted``), every column is at D^2.
    """
    n = a.dim
    if len(z) != n:
        raise DimensionMismatch("z has wrong length")
    if convention not in ("star", "mixed"):
        raise ValueError(f"unknown convention {convention!r}; use 'star' or 'mixed'")
    star = convention == "star"  # the working product's table is the sum of the products' tables
    t = _twisted([*a.products.values()] if star else [a.prec, a.succ], a.alpha, Matrix(n, 1, z))
    left, right = [_summed(t.tables, n)] * 2 if star else t.tables
    ((zs,),) = t.mats
    cols = []
    for i in range(n):
        col = [0] * n
        _product_into(col, left, zs, ((i, 1),))
        _product_into(col, right, ((i, 1),), zs, -1)
        cols.append([Fraction(v, t.d**2) for v in col])
    return LinearMap.from_columns(cols)


def _require_rb_shape(r, a: HomAlgebra) -> None:
    """Refuse the map ``r`` (a ``LinearMap`` or an ``operators.LinearOperator``) unless its matrix acts on ``a``."""
    if r.matrix.rows != a.dim or r.matrix.cols != a.dim:
        raise DimensionMismatch("operator must act on the algebra")


def check_alpha_derivation(d, a: HomAlgebra, product_name: str) -> CheckReport:
    """Twisted Leibniz rule D(x o y) = D(x) o alpha(y) + alpha(x) o D(y), for a map ``d`` on the algebra
    (``_require_rb_shape``): the two-term homomorphism residual of D (``_homomorphism_violations``)."""
    _require_rb_shape(d, a)
    t = _twisted([a.product(product_name)], a.alpha, d.matrix)
    table, (dcols,) = t.tables[0], t.mats
    terms = [(-1, [_left_columns(table, x, a.dim) for x in dcols], t.twist), (-1, t.left[0], dcols)]
    violations = _homomorphism_violations("leibniz", dcols, table, terms, t.d, t.scale)
    return CheckReport.collect(f"alpha_derivation[{product_name}]", violations)
