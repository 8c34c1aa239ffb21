"""Command-line front end: every checker, solver, and the catalog harness.

Reports go to stdout, diagnostics to stderr.  ``--format structured`` emits
a single JSON document with stable key order and no timestamps, so repeated
runs on the same inputs are byte-identical.  Exit status: 0 = ran to
completion, 1 = check failed under --strict (or an oracle disagreement),
2 = usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog as cat
from . import oracle
from .algmodel import (
    HomAlgebra,
    LinearMap,
    _matrix_obj,
    _product_obj,
    parse_algebra,
    parse_algebra_obj,
    rational,
    serialize_algebra_obj,
    star_product,
    sum_product,
)
from .axioms import (
    CheckReport,
    check_alpha_derivation,
    check_dendriform,
    check_hom_anti_associative,
    check_jacobi_jordan,
    check_multiplicativity,
    check_pre_jacobi_jordan,
    check_rhizaform,
    inner_derivation,
    pre_jacobi_jordan_product,
    subadjacent_bracket,
)
from .cocycles import (
    ScalarForm,
    is_nondegenerate,
    rhizaform_from_cocycle,
    scalar_cocycle_space,
    vector_cocycle_space,
)
from .errors import ParseError, RhizalabError
from .exactlin import Matrix, rational_str
from .family import (
    FamilyAlgebra,
    RBFamily,
    Semigroup,
    associated_family,
    check_anti_associative_family,
    check_rb_family,
    check_rhizaform_family,
    check_semigroup,
    induced_family_rhizaform,
    tensor_collapse,
)
from .nilpotency import (
    check_2_nilpotent,
    check_alpha_stability,
    check_onesided_nilpotency_theorem,
    check_series_equality,
    full_series,
    is_left_nilpotent,
    is_multiplicative,
    is_nilpotent,
    is_right_nilpotent,
    left_series,
    right_series,
)
from .operators import (
    Bimodule,
    LinearOperator,
    check_bimodule,
    check_homomorphism,
    check_o_operator,
    check_rota_baxter,
    compatible_from_invertible_o_operator,
    dual_bimodule,
    induced_rhizaform_from_o_operator,
    induced_rhizaform_from_rb,
    regular_bimodule,
    rhizaform_bimodule,
)

# Why each public operation is reachable from the command line; audited by tests.
OPERATION_COVERAGE = {
    "exactlin.rref": "cocycles --vector FILE (row reduction backs every solve)",
    "exactlin.nullspace_basis": "cocycles --scalar/--vector FILE",
    "exactlin.invert": "induce --what cocycle / --what invertible-o",
    "algmodel.eval_product": "check --kind rhizaform FILE (all identity evaluation)",
    "algmodel.parse_algebra": "check --kind rhizaform FILE (every algebra-file load)",
    "algmodel.serialize_algebra": "induce --what sum FILE (output path)",
    "algmodel.sum_product": "induce --what sum FILE",
    "axioms.check_hom_anti_associative": "check --kind anti-associative FILE",
    "axioms.check_multiplicativity": "check --kind multiplicativity --product succ FILE",
    "axioms.check_rhizaform": "check --kind rhizaform FILE",
    "axioms.check_dendriform": "check --kind dendriform FILE",
    "axioms.check_jacobi_jordan": "check --kind jacobi-jordan FILE",
    "axioms.check_pre_jacobi_jordan": "check --kind pre-jacobi-jordan FILE",
    "axioms.pre_jacobi_jordan_product": "induce --what pre-jacobi-jordan FILE",
    "axioms.subadjacent_bracket": "induce --what bracket FILE",
    "axioms.check_alpha_derivation": "check --kind derivation --operator D.json --product succ FILE",
    "axioms.inner_derivation": "induce --what inner-derivation --z 0,1 FILE",
    "operators.check_bimodule": "check --kind bimodule --bimodule M.json FILE",
    "operators.regular_bimodule": "induce --what regular-bimodule FILE",
    "operators.rhizaform_bimodule": "induce --what rhizaform-bimodule FILE",
    "operators.dual_bimodule": "induce --what dual-bimodule --bimodule M.json FILE",
    "operators.check_o_operator": "check --kind o-operator --operator T.json --bimodule M.json FILE",
    "operators.check_rota_baxter": "check --kind rota-baxter --operator R.json FILE",
    "operators.induced_rhizaform_from_o_operator": "induce --what o-operator --operator T.json --bimodule M.json FILE",
    "operators.induced_rhizaform_from_rb": "induce --what rb --operator R.json FILE",
    "operators.check_homomorphism": "check --kind homomorphism --operator f.json --target B.json FILE",
    "operators.compatible_from_invertible_o_operator": "induce --what invertible-o --operator T.json --bimodule M.json FILE",
    "cocycles.scalar_cocycle_space": "cocycles --scalar FILE",
    "cocycles.vector_cocycle_space": "cocycles --vector FILE",
    "cocycles.is_nondegenerate": "cocycles --scalar FILE (reported per basis form)",
    "cocycles.rhizaform_from_cocycle": "induce --what cocycle --form B.json FILE",
    "nilpotency.diamond": "nilpotency FILE (series construction)",
    "nilpotency.right_series": "nilpotency FILE",
    "nilpotency.left_series": "nilpotency FILE",
    "nilpotency.full_series": "nilpotency FILE",
    "nilpotency.is_nilpotent": "nilpotency FILE",
    "nilpotency.is_right_nilpotent": "nilpotency FILE",
    "nilpotency.is_left_nilpotent": "nilpotency FILE",
    "nilpotency.check_series_equality": "nilpotency FILE",
    "nilpotency.check_2_nilpotent": "nilpotency FILE",
    "nilpotency.check_onesided_nilpotency_theorem": "nilpotency FILE",
    "nilpotency.check_alpha_stability": "nilpotency FILE (when multiplicative)",
    "family.check_semigroup": "family --do check-semigroup FILE",
    "family.check_rhizaform_family": "family --do check FILE",
    "family.check_anti_associative_family": "family --do check-anti FILE",
    "family.associated_family": "family --do associated FILE",
    "family.check_rb_family": "family --do check-rb --algebra A.json FILE",
    "family.induced_family_rhizaform": "family --do induce --algebra A.json FILE",
    "family.tensor_collapse": "family --do collapse --algebra A.json FILE",
    "catalog.load_entry": "catalog show ID",
    "catalog.verify_entry": "catalog verify --id ID",
    "catalog.verify_all": "catalog verify",
}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_json(path: str) -> dict:
    try:
        return json.loads(_read(path))
    except ValueError as exc:  # bad JSON, or an integer literal beyond the interpreter's digit limit
        raise ParseError(f"bad JSON input: {exc}") from None


def _parse_params(items: list[str] | None) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for item in items or []:
        name, eq, value = item.partition("=")
        if not eq:
            raise RhizalabError(f"--param wants name=p/q, got {item!r}")
        out[name.strip()] = rational(value.strip())
    return out


def _load_algebra(path: str, params: dict[str, Fraction]) -> HomAlgebra:
    return parse_algebra(_read(path), bindings=params)


def _field(doc, key: str, where: str, kind: type):
    """doc[key], checked to exist and to be of the given JSON type."""
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{where}: missing {key!r}")
    if isinstance(doc[key], bool) or not isinstance(doc[key], kind):
        raise ParseError(f"{where}.{key} must be of type {kind.__name__}")
    return doc[key]


def _read_matrix(doc, where: str) -> Matrix:
    """A list of rows of rational literals; errors name the entry, e.g. ``bimodule.left[1][0]``."""
    if not isinstance(doc, list):
        raise ParseError(f"{where} must be a list of rows")
    rows = []
    for r, row in enumerate(doc):
        if not isinstance(row, list):
            raise ParseError(f"{where}[{r}] must be a list of entries")
        rows.append([])
        for c, e in enumerate(row):
            try:
                rows[-1].append(rational(e))
            except ParseError as exc:
                raise ParseError(f"{where}[{r}][{c}]: {exc}") from None
    return Matrix.from_rows(rows)


def _load_operator(path: str) -> LinearOperator:
    doc = _load_json(path)
    for key in ("T", "R", "D", "matrix"):
        if isinstance(doc, dict) and key in doc:
            m = _read_matrix(doc[key], f"operator.{key}")
            return LinearOperator(m.cols, m.rows, m)
    raise RhizalabError(f"{path}: no operator section ('T')")


def _load_bimodule(path: str) -> Bimodule:
    doc = _load_json(path)
    left = tuple(
        _read_matrix(m, f"bimodule.left[{i}]") for i, m in enumerate(_field(doc, "left", "bimodule", list))
    )
    right = tuple(
        _read_matrix(m, f"bimodule.right[{i}]") for i, m in enumerate(_field(doc, "right", "bimodule", list))
    )
    beta_m = _read_matrix(_field(doc, "beta", "bimodule", list), "bimodule.beta")
    return Bimodule(
        _field(doc, "alg_dim", "bimodule", int),
        _field(doc, "mod_dim", "bimodule", int),
        left,
        right,
        LinearMap(beta_m.rows, beta_m),
    )


def _load_form(path: str) -> ScalarForm:
    m = _read_matrix(_field(_load_json(path), "B", "form", list), "form.B")
    return ScalarForm(m.rows, m)


def _load_semigroup(doc, where: str) -> Semigroup:
    table = _field(_field(doc, "omega", where, dict), "table", f"{where}.omega", list)
    if not table:
        raise ParseError(f"{where}.omega.table has no rows")
    try:
        return Semigroup.from_rows(table)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}.omega.table: {exc}") from None


def _load_family(path: str, params: dict[str, Fraction]) -> FamilyAlgebra:
    doc = _load_json(path)
    s = _load_semigroup(doc, "family")
    succ_doc = _field(doc, "succ", "family", dict)
    prec_doc = _field(doc, "prec", "family", dict)
    base = {
        "dim": _field(doc, "dim", "family", int),
        "kind": "rhizaform",
        "alpha": doc.get("alpha"),
        "params": doc.get("params"),
    }
    succ = {}
    prec = {}
    for lam in range(s.size):
        sub = dict(base)
        sub["succ"] = _field(succ_doc, str(lam), "family.succ", list)
        sub["prec"] = _field(prec_doc, str(lam), "family.prec", list)
        plain = parse_algebra_obj(sub, bindings=params)
        succ[lam] = plain.succ
        prec[lam] = plain.prec
    return FamilyAlgebra(plain.dim, s, succ, prec, plain.alpha, plain.params)


def _load_rb_family(path: str) -> RBFamily:
    doc = _load_json(path)
    s = _load_semigroup(doc, "rb_family")
    ops = {}
    for lam, rows in _field(doc, "operators", "rb_family", dict).items():
        try:
            index = int(lam)
        except ValueError:
            raise ParseError(f"rb_family.operators: key {lam!r} is not a semigroup index") from None
        m = _read_matrix(rows, f"rb_family.operators.{lam}")
        ops[index] = LinearOperator(m.cols, m.rows, m)
    return RBFamily(s, ops)


def _bimodule_obj(m: Bimodule) -> dict:
    return {
        "alg_dim": m.alg_dim,
        "mod_dim": m.mod_dim,
        "left": [_matrix_obj(mat) for mat in m.left],
        "right": [_matrix_obj(mat) for mat in m.right],
        "beta": _matrix_obj(m.beta.matrix),
    }


def _emit(obj, args, human: str | None = None) -> None:
    if args.format == "structured":
        print(json.dumps(obj, indent=2))
    else:
        print(human if human is not None else json.dumps(obj, indent=2))


def _report_human(rep: CheckReport) -> str:
    lines = [f"{rep.structure_name}: {'pass' if rep.passed else 'FAIL'}"]
    for v in rep.violations[:20]:
        resid = ", ".join(rational_str(c) for c in v.residual)
        lines.append(f"  {v.identity_id} at {v.basis_tuple}: residual ({resid})")
    if len(rep.violations) > 20:
        lines.append(f"  ... {len(rep.violations) - 20} more violations")
    return "\n".join(lines)


def cmd_check(args) -> int:
    params = _parse_params(args.param)
    a = _load_algebra(args.file, params)
    kind = args.kind
    oracle_verdict = None  # second opinion, populated where one exists
    if kind == "rhizaform":
        rep = check_rhizaform(a)
        oracle_verdict = oracle.rhizaform(a)
    elif kind == "dendriform":
        rep = check_dendriform(a)
        oracle_verdict = oracle.dendriform(a)
    elif kind == "anti-associative":
        rep = check_hom_anti_associative(star_product(a), a.alpha)
        oracle_verdict = oracle.anti_associative(star_product(a), a.alpha)
    elif kind == "jacobi-jordan":
        rep = check_jacobi_jordan(star_product(a), a.alpha)
        oracle_verdict = oracle.jacobi_jordan(star_product(a), a.alpha)
    elif kind == "pre-jacobi-jordan":
        rep = check_pre_jacobi_jordan(star_product(a), a.alpha)
        oracle_verdict = oracle.pre_jacobi_jordan(star_product(a), a.alpha)
    elif kind == "multiplicativity":
        if not args.product:
            raise RhizalabError("--kind multiplicativity wants --product")
        rep = check_multiplicativity(a.product(args.product), a.alpha, name=args.product)
        oracle_verdict = oracle.multiplicative(a.product(args.product), a.alpha)
    elif kind == "derivation":
        if not (args.operator and args.product):
            raise RhizalabError("--kind derivation wants --operator and --product")
        d_op = _load_operator(args.operator)
        d_map = LinearMap(d_op.matrix.rows, d_op.matrix)
        rep = check_alpha_derivation(d_map, a, args.product)
        oracle_verdict = oracle.alpha_derivation(d_map, a, args.product)
    elif kind == "bimodule":
        if not args.bimodule:
            raise RhizalabError("--kind bimodule wants --bimodule")
        m = _load_bimodule(args.bimodule)
        rep = check_bimodule(a, m)
        oracle_verdict = oracle.bimodule(a.mul, a.alpha, m.left, m.right, m.beta)
    elif kind == "o-operator":
        if not (args.operator and args.bimodule):
            raise RhizalabError("--kind o-operator wants --operator and --bimodule")
        t = _load_operator(args.operator)
        m = _load_bimodule(args.bimodule)
        rep = check_o_operator(t, a, m)
        oracle_verdict = oracle.o_operator(t.matrix, a.mul, a.alpha, m.left, m.right, m.beta)
    elif kind == "rota-baxter":
        if not args.operator:
            raise RhizalabError("--kind rota-baxter wants --operator")
        r = _load_operator(args.operator)
        rep = check_rota_baxter(r, a)
        oracle_verdict = oracle.rota_baxter(r.matrix, a.mul, a.alpha)
    elif kind == "homomorphism":
        if not (args.operator and args.target):
            raise RhizalabError("--kind homomorphism wants --operator and --target")
        rep = check_homomorphism(_load_operator(args.operator), a, _load_algebra(args.target, params))
    else:
        raise RhizalabError(f"unknown check kind {kind!r}")

    status = 0
    if args.oracle:
        if oracle_verdict is None:
            print(f"note: no independent oracle for kind {kind!r}", file=sys.stderr)
        elif oracle_verdict != rep.passed:
            print(f"ORACLE DISAGREEMENT on {kind}", file=sys.stderr)
            status = 1
    _emit(rep.to_obj(), args, _report_human(rep))
    if args.strict and not rep.passed:
        status = 1
    return status


def cmd_cocycles(args) -> int:
    params = _parse_params(args.param)
    a = _load_algebra(args.file, params)
    if args.scalar:
        basis = scalar_cocycle_space(a, strict=args.strict)
        obj = {
            "kind": "scalar",
            "dimension": len(basis),
            "basis": [
                {"B": _matrix_obj(b.matrix), "nondegenerate": is_nondegenerate(b)}
                for b in basis
            ],
        }
        human = [f"scalar cyclic-form space: dimension {len(basis)}"]
        for idx, b in enumerate(basis):
            human.append(f"  basis[{idx}] nondegenerate={is_nondegenerate(b)}: {b.matrix!r}")
    else:
        basis = vector_cocycle_space(a, strict=args.strict)
        obj = {
            "kind": "vector",
            "dimension": len(basis),
            "basis": [{"components": _product_obj(w)} for w in basis],
        }
        human = [f"algebra-valued cyclic-form space: dimension {len(basis)}"]
        for idx, w in enumerate(basis):
            terms = ", ".join(
                f"w(e{i + 1},e{j + 1})+= {rational_str(c)} e{k + 1}"
                for i, j, k, c in w.nonzero_entries()
            )
            human.append(f"  basis[{idx}]: {terms or '0'}")
    _emit(obj, args, "\n".join(human))
    return 0


def cmd_nilpotency(args) -> int:
    params = _parse_params(args.param)
    a = _load_algebra(args.file, params)
    series = {
        "right": right_series(a),
        "left": left_series(a),
        "full": full_series(a),
    }
    verdicts = {
        "right": is_right_nilpotent(a),
        "left": is_left_nilpotent(a),
        "full": is_nilpotent(a),
    }
    equality = check_series_equality(a)
    onesided = check_onesided_nilpotency_theorem(a)
    twonil = check_2_nilpotent(a)
    mult = is_multiplicative(a)
    stab = check_alpha_stability(a) if mult else None
    obj = {
        "series": {
            name: [_matrix_obj(t.basis) for t in terms] for name, terms in series.items()
        },
        "nilpotent": {
            name: {"nilpotent": v.nilpotent, "index": v.index} for name, v in verdicts.items()
        },
        "series_equality": equality.to_obj(),
        "onesided_theorem": onesided.to_obj(),
        "two_nilpotent": twonil.to_obj(),
        "alpha_stable": None if stab is None else stab.passed,
    }
    human = []
    for name, terms in series.items():
        dims = " -> ".join(str(t.dim) for t in terms)
        v = verdicts[name]
        tail = f"nilpotent, index {v.index}" if v.nilpotent else "not nilpotent"
        human.append(f"{name:>5} series dims: {dims}  ({tail})")
    human.append(f"series equality: {'pass' if equality.passed else 'FAIL'}")
    human.append(f"one-sided nilpotency theorem: {'pass' if onesided.passed else 'FAIL'}")
    human.append(f"2-nilpotent: {'pass' if twonil.passed else 'FAIL'}")
    if stab is not None:
        human.append(f"twist stability of series: {'pass' if stab.passed else 'FAIL'}")
    _emit(obj, args, "\n".join(human))
    if args.strict and not (equality.passed and onesided.passed):
        return 1
    return 0


def _parse_vector(text: str, dim: int):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != dim:
        raise RhizalabError(f"--z wants {dim} comma-separated rationals")
    return tuple(rational(p.strip()) for p in parts)


def cmd_induce(args) -> int:
    params = _parse_params(args.param)
    a = _load_algebra(args.file, params)
    strict = not args.no_strict
    what = args.what
    if what == "sum":
        out = {"algebra": serialize_algebra_obj(HomAlgebra.mono(sum_product(a), a.alpha))}
    elif what == "pre-jacobi-jordan":
        out = {"algebra": serialize_algebra_obj(HomAlgebra.mono(pre_jacobi_jordan_product(a), a.alpha))}
    elif what == "bracket":
        out = {"algebra": serialize_algebra_obj(HomAlgebra.mono(subadjacent_bracket(a), a.alpha))}
    elif what == "inner-derivation":
        if not args.z:
            raise RhizalabError("--what inner-derivation wants --z coordinates")
        d = inner_derivation(_parse_vector(args.z, a.dim), a, convention=args.convention)
        out = {"D": _matrix_obj(d.matrix)}
    elif what == "rb":
        if not args.operator:
            raise RhizalabError("--what rb wants --operator")
        induced = induced_rhizaform_from_rb(_load_operator(args.operator), a, strict=strict)
        out = {"algebra": serialize_algebra_obj(induced)}
    elif what == "o-operator":
        if not (args.operator and args.bimodule):
            raise RhizalabError("--what o-operator wants --operator and --bimodule")
        induced = induced_rhizaform_from_o_operator(
            _load_operator(args.operator), a, _load_bimodule(args.bimodule), strict=strict
        )
        out = {"algebra": serialize_algebra_obj(induced)}
    elif what == "invertible-o":
        if not (args.operator and args.bimodule):
            raise RhizalabError("--what invertible-o wants --operator and --bimodule")
        induced = compatible_from_invertible_o_operator(
            _load_operator(args.operator), a, _load_bimodule(args.bimodule), strict=strict
        )
        out = {"algebra": serialize_algebra_obj(induced)}
    elif what == "cocycle":
        if not args.form:
            raise RhizalabError("--what cocycle wants --form")
        induced = rhizaform_from_cocycle(a, _load_form(args.form), strict=strict)
        out = {"algebra": serialize_algebra_obj(induced)}
    elif what == "regular-bimodule":
        out = {"bimodule": _bimodule_obj(regular_bimodule(a))}
    elif what == "rhizaform-bimodule":
        out = {"bimodule": _bimodule_obj(rhizaform_bimodule(a))}
    elif what == "dual-bimodule":
        if not args.bimodule:
            raise RhizalabError("--what dual-bimodule wants --bimodule")
        out = {"bimodule": _bimodule_obj(dual_bimodule(_load_bimodule(args.bimodule)))}
    else:
        raise RhizalabError(f"unknown induction {what!r}")
    _emit(out, args)
    return 0


def cmd_family(args) -> int:
    params = _parse_params(args.param)
    do = args.do
    if do == "check-semigroup":
        rep = check_semigroup(_load_semigroup(_load_json(args.file), "family"))
        _emit(rep.to_obj(), args, _report_human(rep))
        return 1 if (args.strict and not rep.passed) else 0
    if do == "check":
        rep = check_rhizaform_family(_load_family(args.file, params))
        _emit(rep.to_obj(), args, _report_human(rep))
        return 1 if (args.strict and not rep.passed) else 0
    if do == "check-anti":
        fam = _load_family(args.file, params)
        rep = check_anti_associative_family(associated_family(fam), fam.alpha, fam.semigroup)
        _emit(rep.to_obj(), args, _report_human(rep))
        return 1 if (args.strict and not rep.passed) else 0
    if do == "associated":
        fam = _load_family(args.file, params)
        prods = associated_family(fam)
        obj = {f"{lam},{omega}": _product_obj(op) for (lam, omega), op in sorted(prods.items())}
        _emit(obj, args)
        return 0
    # remaining operations take an operator family plus a base algebra
    if not args.algebra:
        raise RhizalabError(f"--do {do} wants --algebra")
    a = _load_algebra(args.algebra, params)
    rf = _load_rb_family(args.file)
    if do == "check-rb":
        rep = check_rb_family(rf, a)
        _emit(rep.to_obj(), args, _report_human(rep))
        return 1 if (args.strict and not rep.passed) else 0
    if do == "induce":
        fam = induced_family_rhizaform(rf, a, strict=not args.no_strict)
        obj = {
            "dim": fam.dim,
            "omega": {"size": fam.semigroup.size, "table": [list(r) for r in fam.semigroup.table]},
            "alpha": _matrix_obj(fam.alpha.matrix),
            "succ": {str(lam): _product_obj(fam.succ[lam]) for lam in range(fam.semigroup.size)},
            "prec": {str(lam): _product_obj(fam.prec[lam]) for lam in range(fam.semigroup.size)},
        }
        _emit(obj, args)
        return 0
    if do == "collapse":
        big, big_r = tensor_collapse(a, rf)
        obj = {
            "algebra": serialize_algebra_obj(big),
            "T": _matrix_obj(big_r.matrix),
        }
        _emit(obj, args)
        return 0
    raise RhizalabError(f"unknown family operation {do!r}")


def cmd_catalog(args) -> int:
    params = _parse_params(getattr(args, "param", None))
    if args.action == "list":
        ids = cat.entry_ids()
        if args.format == "structured":
            print(json.dumps({"entries": ids}, indent=2))
        else:
            print("\n".join(ids))
        return 0
    if args.action == "show":
        if not args.id:
            raise RhizalabError("catalog show wants --id")
        entry_id = args.id[0]
        entry = cat.load_catalog_entry(entry_id)
        a = cat.load_entry(entry_id, params)
        obj = {
            "id": entry.entry_id,
            "tag": entry.tag,
            "algebra": serialize_algebra_obj(a),
            "expected_cocycle_components": [list(c) for c in entry.expected_components],
            "notes": list(entry.notes),
        }
        _emit(obj, args)
        return 0
    if args.action == "verify":
        summary = cat.verify_all(
            params=params,
            dim=args.dim,
            ids=args.id or None,
            with_oracle=args.oracle,
        )
        if args.format == "structured":
            print(json.dumps(summary.to_obj(), indent=2))
        else:
            print(summary.to_text(), end="")
        if summary.internal_error:
            for d in summary.oracle_diffs:
                print(f"oracle disagreement: {d}", file=sys.stderr)
            return 1
        return 0
    raise RhizalabError(f"unknown catalog action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rhizalab",
        description="Exact-rational checks for twisted split-product algebras.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_strict=True):
        p.add_argument("--format", choices=("table", "structured"), default="table")
        p.add_argument("--param", action="append", metavar="NAME=P/Q")
        if with_strict:
            p.add_argument("--strict", action="store_true")

    p = sub.add_parser("check", help="run one identity checker on an algebra file")
    p.add_argument(
        "--kind",
        required=True,
        choices=(
            "rhizaform",
            "dendriform",
            "anti-associative",
            "jacobi-jordan",
            "pre-jacobi-jordan",
            "multiplicativity",
            "derivation",
            "bimodule",
            "o-operator",
            "rota-baxter",
            "homomorphism",
        ),
    )
    p.add_argument("--product", help="product name for multiplicativity/derivation")
    p.add_argument("--operator", help="operator file (T/R/D)")
    p.add_argument("--bimodule", help="bimodule file")
    p.add_argument("--target", help="target algebra file for homomorphism")
    p.add_argument("--oracle", action="store_true", help="diff against the brute-force evaluator")
    common(p)
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("cocycles", help="solve a cyclic-form space")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--scalar", action="store_true")
    g.add_argument("--vector", action="store_true", default=True)
    common(p)
    p.add_argument("file")
    p.set_defaults(fn=cmd_cocycles)

    p = sub.add_parser("nilpotency", help="power series, verdicts, and series checks")
    common(p)
    p.add_argument("file")
    p.set_defaults(fn=cmd_nilpotency)

    p = sub.add_parser("induce", help="derived products, operator inductions, bimodules")
    p.add_argument(
        "--what",
        required=True,
        choices=(
            "sum",
            "pre-jacobi-jordan",
            "bracket",
            "inner-derivation",
            "rb",
            "o-operator",
            "invertible-o",
            "cocycle",
            "regular-bimodule",
            "rhizaform-bimodule",
            "dual-bimodule",
        ),
    )
    p.add_argument("--operator")
    p.add_argument("--bimodule")
    p.add_argument("--form")
    p.add_argument("--z", help="coordinates for inner-derivation, e.g. '0,1'")
    p.add_argument("--convention", choices=("star", "mixed"), default="star")
    p.add_argument("--no-strict", action="store_true", help="skip precondition checks")
    common(p, with_strict=False)
    p.add_argument("file")
    p.set_defaults(fn=cmd_induce)

    p = sub.add_parser("family", help="semigroup-indexed checks and constructions")
    p.add_argument(
        "--do",
        required=True,
        choices=("check", "check-anti", "check-rb", "check-semigroup", "associated", "induce", "collapse"),
    )
    p.add_argument("--algebra", help="base algebra file for check-rb/induce/collapse")
    p.add_argument("--no-strict", action="store_true")
    common(p)
    p.add_argument("file")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("catalog", help="list, show, or verify the shipped entries")
    p.add_argument("action", choices=("list", "show", "verify"))
    p.add_argument("--dim", type=int, choices=(2, 3))
    p.add_argument("--id", action="append", metavar="ENTRY_ID")
    p.add_argument("--oracle", action="store_true")
    common(p, with_strict=False)
    p.set_defaults(fn=cmd_catalog)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except RhizalabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
