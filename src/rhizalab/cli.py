"""Command-line front end: every checker, solver, and the catalog harness.

Reports go to stdout, diagnostics to stderr.  ``--format structured`` emits
a single JSON document with stable key order and no timestamps, so repeated
runs on the same inputs are byte-identical.  Exit status: 0 = ran to
completion, 1 = check failed under --strict (or an oracle disagreement),
2 = usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import catalog as cat
from . import files, oracle
from .algmodel import (
    _PARAM_NAME,
    HomAlgebra,
    LinearMap,
    _encode_json,
    _matrix_obj,
    _product_obj,
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
    is_nondegenerate,
    rhizaform_from_cocycle,
    scalar_cocycle_space,
    vector_cocycle_space,
)
from .errors import DimensionMismatch, RhizalabError
from .exactlin import rational_str
from .family import (
    associated_family,
    check_anti_associative_family,
    check_rb_family,
    check_rhizaform_family,
    check_semigroup,
    induced_family_rhizaform,
    tensor_collapse,
)
from .nilpotency import analyze
from .operators import (
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
    "exactlin.rref": "cocycles --vector FILE (its elimination, _echelon, backs every solve)",
    "exactlin.nullspace_basis": "cocycles --scalar FILE (and --vector, through the same _kernel)",
    "exactlin.invert": "induce --what cocycle --form B.json FILE (and --what invertible-o)",
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
    "cocycles.rhizaform_from_cocycle": "induce --what cocycle --form B.json FILE (invertible-o, coregular bimodule)",
    "nilpotency.analyze": "nilpotency FILE (the whole report, from one clearing of the products)",
    "nilpotency.diamond": "nilpotency FILE (series construction, in analyze)",
    "nilpotency.right_series": "nilpotency FILE (the right series of analyze)",
    "nilpotency.left_series": "nilpotency FILE (the left series of analyze)",
    "nilpotency.full_series": "nilpotency FILE (the full series of analyze)",
    "nilpotency.is_nilpotent": "nilpotency FILE (the full verdict, read from the series)",
    "nilpotency.is_right_nilpotent": "nilpotency FILE (the right verdict, read from the series)",
    "nilpotency.is_left_nilpotent": "nilpotency FILE (the left verdict, read from the series)",
    "nilpotency.check_series_equality": "nilpotency FILE (series equality, in analyze)",
    "nilpotency.check_2_nilpotent": "nilpotency FILE (2-nilpotency, in analyze)",
    "nilpotency.check_onesided_nilpotency_theorem": "nilpotency FILE (one-sided theorem, in analyze)",
    "nilpotency.check_alpha_stability": "nilpotency FILE (twist stability, in analyze, when multiplicative)",
    "family.check_semigroup": "family --do check-semigroup FILE",
    "family.check_rhizaform_family": "family --do check FILE",
    "family.check_anti_associative_family": "family --do check-anti FILE",
    "family.associated_family": "family --do associated FILE",
    "family.check_rb_family": "family --do check-rb --algebra A.json FILE",
    "family.induced_family_rhizaform": "family --do induce --algebra A.json FILE",
    "family.tensor_collapse": "family --do collapse --algebra A.json FILE",
    "catalog.load_entry": "catalog show --id ID (the entry's algebra, read with the entry)",
    "catalog.verify_entry": "catalog verify --id ID (each entry's report, from one read of the entry)",
    "catalog.verify_all": "catalog verify",
}


def _parse_params(items: list[str] | None) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for item in items or []:
        name, eq, value = item.partition("=")
        if not eq or not _PARAM_NAME.fullmatch(name.strip()):
            raise RhizalabError(f"--param wants name=p/q, got {item!r}")
        out[name.strip()] = rational(value.strip())
    return out


def _emit(obj, args, table=None) -> None:
    """Print ``obj`` as JSON; under --format table, the text ``table()`` builds instead, when given."""
    print(table() if args.format == "table" and table is not None else _encode_json(obj))


def _report_human(rep: CheckReport) -> str:
    lines = [f"{rep.structure_name}: {'pass' if rep.passed else 'FAIL'}"]
    for v in rep.violations[:20]:
        lines.append(f"  {v.identity_id} at {v.basis_tuple}: residual ({', '.join(v.residual_text())})")
    if len(rep.violations) > 20:
        lines.append(f"  ... {len(rep.violations) - 20} more violations")
    return "\n".join(lines)


def _finish(out, args) -> int:
    """Print a check report (status 1 if it failed under --strict) or an output document (status 0)."""
    if isinstance(out, CheckReport):
        _emit(out.to_obj(), args, lambda: _report_human(out))
        return 1 if (args.strict and not out.passed) else 0
    _emit(out, args)
    return 0


def _parse_vector(text: str, dim: int):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != dim:
        raise RhizalabError(f"--z wants {dim} comma-separated rationals")
    return tuple(rational(p.strip()) for p in parts)


def _bimodule_over(a: HomAlgebra, path: str):
    """The bimodule read from ``path``, refused unless it is over an algebra of ``a``'s dimension."""
    m = files.read_bimodule(files.load_json(path))
    if m.alg_dim != a.dim:
        raise DimensionMismatch("bimodule is over an algebra of different dimension")
    return m


# What each option, or a family route's FILE, loads to; ``a`` is the algebra of FILE, if one is loaded.
_LOADERS = {
    "operator": lambda path, params, a: files.read_operator(files.load_json(path)),
    "bimodule": lambda path, params, a: _bimodule_over(a, path),
    "form": lambda path, params, a: files.read_form(files.load_json(path)),
    "target": lambda path, params, a: files.load_algebra(path, params),
    "algebra": lambda path, params, a: files.load_algebra(path, params),
    "family": lambda path, params, a: files.read_family(files.load_json(path), params),
    "rb_family": lambda path, params, a: files.read_rb_family(files.load_json(path)),
    "semigroup": lambda path, params, a: files.read_semigroup(files.load_json(path), "family"),
    "product": lambda name, params, a: name,
    "z": lambda text, params, a: _parse_vector(text, a.dim),
}


def _needed(args, flag: str, needs: tuple[str, ...], params, a=None) -> argparse.Namespace:
    """``args`` plus ``params``, with each option in ``needs`` replaced by what it loads, in order."""
    if not all(getattr(args, name) for name in needs):
        raise RhizalabError(f"--{flag} {getattr(args, flag)} wants " + " and ".join(f"--{n}" for n in needs))
    loaded = {name: _LOADERS[name](getattr(args, name), params, a) for name in needs}
    return argparse.Namespace(**{**vars(args), "params": params, **loaded})


# The route tables.  Each entry names the options it needs and takes them loaded
# (``x``, see ``_needed``).  Entries look library functions up when they run,
# so a wrapper later installed on a module attribute sees every call.

# --kind -> (options it needs, checker, independent oracle or None); both take (algebra, x).
CHECKS = {
    "rhizaform": ((), lambda a, x: check_rhizaform(a), lambda a, x: oracle.rhizaform(a)),
    "dendriform": ((), lambda a, x: check_dendriform(a), lambda a, x: oracle.dendriform(a)),
    "anti-associative": (
        (),
        lambda a, x: check_hom_anti_associative(star_product(a), a.alpha),
        lambda a, x: oracle.anti_associative(star_product(a), a.alpha),
    ),
    "jacobi-jordan": (
        (),
        lambda a, x: check_jacobi_jordan(star_product(a), a.alpha),
        lambda a, x: oracle.jacobi_jordan(star_product(a), a.alpha),
    ),
    "pre-jacobi-jordan": (
        (),
        lambda a, x: check_pre_jacobi_jordan(star_product(a), a.alpha),
        lambda a, x: oracle.pre_jacobi_jordan(star_product(a), a.alpha),
    ),
    "multiplicativity": (
        ("product",),
        lambda a, x: check_multiplicativity(a.product(x.product), a.alpha, name=x.product),
        lambda a, x: oracle.multiplicative(a.product(x.product), a.alpha),
    ),
    "derivation": (
        ("operator", "product"),
        lambda a, x: check_alpha_derivation(LinearMap(x.operator.matrix.rows, x.operator.matrix), a, x.product),
        lambda a, x: oracle.alpha_derivation(LinearMap(x.operator.matrix.rows, x.operator.matrix), a, x.product),
    ),
    "bimodule": (
        ("bimodule",),
        lambda a, x: check_bimodule(a, x.bimodule),
        lambda a, x: oracle.bimodule(a.mul, a.alpha, x.bimodule.left, x.bimodule.right, x.bimodule.beta),
    ),
    "o-operator": (
        ("operator", "bimodule"),
        lambda a, x: check_o_operator(x.operator, a, x.bimodule),
        lambda a, x: oracle.o_operator(
            x.operator.matrix, a.mul, a.alpha, x.bimodule.left, x.bimodule.right, x.bimodule.beta
        ),
    ),
    "rota-baxter": (
        ("operator",),
        lambda a, x: check_rota_baxter(x.operator, a),
        lambda a, x: oracle.rota_baxter(x.operator.matrix, a.mul, a.alpha),
    ),
    "homomorphism": (("operator", "target"), lambda a, x: check_homomorphism(x.operator, a, x.target), None),
}


def _algebra_out(alg: HomAlgebra) -> dict:
    return {"algebra": serialize_algebra_obj(alg)}


# --what -> (options it needs, builder of the output document from (algebra, x)).
INDUCTIONS = {
    "sum": ((), lambda a, x: _algebra_out(HomAlgebra.mono(sum_product(a), a.alpha))),
    "pre-jacobi-jordan": ((), lambda a, x: _algebra_out(HomAlgebra.mono(pre_jacobi_jordan_product(a), a.alpha))),
    "bracket": ((), lambda a, x: _algebra_out(HomAlgebra.mono(subadjacent_bracket(a), a.alpha))),
    "inner-derivation": (
        ("z",),
        lambda a, x: {"D": _matrix_obj(inner_derivation(x.z, a, convention=x.convention).matrix)},
    ),
    "rb": (
        ("operator",),
        lambda a, x: _algebra_out(induced_rhizaform_from_rb(x.operator, a, strict=not x.no_strict)),
    ),
    "o-operator": (
        ("operator", "bimodule"),
        lambda a, x: _algebra_out(
            induced_rhizaform_from_o_operator(x.operator, a, x.bimodule, strict=not x.no_strict)
        ),
    ),
    "invertible-o": (
        ("operator", "bimodule"),
        lambda a, x: _algebra_out(
            compatible_from_invertible_o_operator(x.operator, a, x.bimodule, strict=not x.no_strict)
        ),
    ),
    "cocycle": (("form",), lambda a, x: _algebra_out(rhizaform_from_cocycle(a, x.form, strict=not x.no_strict))),
    "regular-bimodule": ((), lambda a, x: {"bimodule": files.bimodule_obj(regular_bimodule(a))}),
    "rhizaform-bimodule": ((), lambda a, x: {"bimodule": files.bimodule_obj(rhizaform_bimodule(a))}),
    "dual-bimodule": (("bimodule",), lambda a, x: {"bimodule": files.bimodule_obj(dual_bimodule(x.bimodule))}),
}


def _family_associated(f, x) -> dict:
    return {f"{lam},{omega}": _product_obj(op) for (lam, omega), op in sorted(associated_family(f).items())}


def _family_collapse(rf, x) -> dict:
    big, big_r = tensor_collapse(x.algebra, rf)
    return {"algebra": serialize_algebra_obj(big), "T": _matrix_obj(big_r.matrix)}


# --do -> (what FILE holds, options it needs, action on (FILE loaded, x) giving a report or an output document).
FAMILY_OPS = {
    "check": ("family", (), lambda f, x: check_rhizaform_family(f)),
    "check-anti": (
        "family",
        (),
        lambda f, x: check_anti_associative_family(associated_family(f), f.alpha, f.semigroup),
    ),
    "check-rb": ("rb_family", ("algebra",), lambda rf, x: check_rb_family(rf, x.algebra)),
    "check-semigroup": ("semigroup", (), lambda s, x: check_semigroup(s)),
    "associated": ("family", (), _family_associated),
    "induce": (
        "rb_family",
        ("algebra",),
        lambda rf, x: files.family_obj(induced_family_rhizaform(rf, x.algebra, strict=not x.no_strict)),
    ),
    "collapse": ("rb_family", ("algebra",), _family_collapse),
}


def cmd_check(args) -> int:
    params = _parse_params(args.param)
    a = files.load_algebra(args.file, params)
    needs, checker, second_opinion = CHECKS[args.kind]
    x = _needed(args, "kind", needs, params, a)
    rep = checker(a, x)
    status = 0
    if args.oracle and second_opinion is None:
        print(f"note: no independent oracle for kind {args.kind!r}", file=sys.stderr)
    elif args.oracle and second_opinion(a, x) != rep.passed:
        print(f"ORACLE DISAGREEMENT on {args.kind}", file=sys.stderr)
        status = 1
    return _finish(rep, args) or status


def cmd_induce(args) -> int:
    params = _parse_params(args.param)
    a = files.load_algebra(args.file, params)
    needs, build = INDUCTIONS[args.what]
    return _finish(build(a, _needed(args, "what", needs, params, a)), args)


def cmd_family(args) -> int:
    role, needs, action = FAMILY_OPS[args.do]
    x = _needed(args, "do", needs, _parse_params(args.param))
    return _finish(action(_LOADERS[role](args.file, x.params, None), x), args)


def cmd_cocycles(args) -> int:
    params = _parse_params(args.param)
    a = files.load_algebra(args.file, params)
    if args.scalar:
        basis = scalar_cocycle_space(a, strict=args.strict)
        nondegenerate = [is_nondegenerate(b) for b in basis]
        obj = {
            "kind": "scalar",
            "dimension": len(basis),
            "basis": [{"B": _matrix_obj(b.matrix), "nondegenerate": nd} for b, nd in zip(basis, nondegenerate)],
        }

        def table():
            lines = [f"scalar cyclic-form space: dimension {len(basis)}"]
            for idx, (b, nd) in enumerate(zip(basis, nondegenerate)):
                lines.append(f"  basis[{idx}] nondegenerate={nd}: {b.matrix!r}")
            return "\n".join(lines)
    else:
        basis = vector_cocycle_space(a, strict=args.strict)
        obj = {
            "kind": "vector",
            "dimension": len(basis),
            "basis": [{"components": _product_obj(w)} for w in basis],
        }

        def table():
            lines = [f"algebra-valued cyclic-form space: dimension {len(basis)}"]
            for idx, w in enumerate(basis):
                terms = ", ".join(
                    f"w(e{i + 1},e{j + 1})+= {rational_str(c)} e{k + 1}"
                    for i, j, k, c in w.nonzero_entries()
                )
                lines.append(f"  basis[{idx}]: {terms or '0'}")
            return "\n".join(lines)
    _emit(obj, args, table)
    return 0


def cmd_nilpotency(args) -> int:
    params = _parse_params(args.param)
    r = analyze(files.load_algebra(args.file, params))
    checks = {
        "series equality": r.series_equality,
        "one-sided nilpotency theorem": r.onesided,
        "2-nilpotent": r.two_nilpotent,
        "twist stability of series": r.alpha_stability,
    }
    obj = {
        "series": {name: [_matrix_obj(t.basis) for t in terms] for name, terms in r.series.items()},
        "nilpotent": {name: {"nilpotent": v.nilpotent, "index": v.index} for name, v in r.verdicts.items()},
        "series_equality": r.series_equality.to_obj(),
        "onesided_theorem": r.onesided.to_obj(),
        "two_nilpotent": r.two_nilpotent.to_obj(),
        "alpha_stable": None if r.alpha_stability is None else r.alpha_stability.passed,
    }

    def table():
        lines = []
        for name, terms in r.series.items():
            dims = " -> ".join(str(t.dim) for t in terms)
            v = r.verdicts[name]
            tail = f"nilpotent, index {v.index}" if v.nilpotent else "not nilpotent"
            lines.append(f"{name:>5} series dims: {dims}  ({tail})")
        lines += [f"{label}: {'pass' if rep.passed else 'FAIL'}" for label, rep in checks.items() if rep is not None]
        return "\n".join(lines)
    _emit(obj, args, table)
    return 1 if args.strict and not (r.series_equality.passed and r.onesided.passed) else 0


def cmd_catalog(args) -> int:
    params = _parse_params(getattr(args, "param", None))
    if args.action == "list":
        ids = cat.entry_ids()
        _emit({"entries": ids}, args, lambda: "\n".join(ids))
        return 0
    if args.action == "show":
        entries = [cat.load_catalog_entry(entry_id) for entry_id in args.id or ()]
        if len(entries) != 1:
            raise RhizalabError("catalog show wants exactly one --id")
        (entry,) = entries
        obj = {
            "id": entry.entry_id,
            "tag": entry.tag,
            "algebra": serialize_algebra_obj(entry.algebra(params)),
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
        _emit(summary.to_obj(), args, summary.to_text)
        if summary.internal_error:
            for d in summary.oracle_diffs:
                print(f"oracle disagreement: {d}", file=sys.stderr)
            return 1
        return 0
    raise RhizalabError(f"unknown catalog action {args.action!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds no state between ``parse_args`` calls."""
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
        choices=tuple(CHECKS),
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
        choices=tuple(INDUCTIONS),
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
        choices=tuple(FAMILY_OPS),
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
    except (RhizalabError, OSError) as exc:  # bad input, or a file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
