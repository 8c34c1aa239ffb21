"""The command line: reports, exit codes and refusals on every route.

The route-driven tests read the routes from the CLI's own tables (``cli.CHECKS``, ``cli.INDUCTIONS``
and ``cli.FAMILY_OPS``, through ``table_routes`` and ``every_route``).  The ``role_inputs`` fixture
writes one valid input per role (``ROLE_DOCS``) at dimensions 2 and 3, the ``routes`` fixture gives
each route its slots, and ``command`` builds its command line.  So the missing-option, dimension,
fuzzed, unreadable and repeated-key tests, the checker lookup, the oracle test and the coverage audit
run a new route with no edit here.  The audit derives the public operations from the library modules;
``OPERATION_COVERAGE`` records why each is reachable from the command line.
"""

import argparse
import hashlib
import importlib
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rhizalab
import rhizalab.cli
from rhizalab.algmodel import LinearMap, serialize_algebra, serialize_algebra_obj
from rhizalab.axioms import _CHUNK, CheckReport, Violation, check_alpha_derivation
from rhizalab.catalog import load_entry
from rhizalab.cli import CHECKS, FAMILY_OPS, INDUCTIONS, build_parser, main
from rhizalab.cocycles import ScalarForm, is_nondegenerate, rhizaform_from_cocycle, scalar_cocycle_residuals
from rhizalab.errors import DimensionMismatch, MissingProduct, NotACocycle, Singular
from rhizalab.exactlin import Matrix
from rhizalab.family import (
    FamilyAlgebra,
    Semigroup,
    associated_family,
    check_anti_associative_family,
    induced_family_rhizaform,
)
from rhizalab.files import (
    bimodule_obj,
    family_obj,
    load_algebra,
    load_json,
    read_bimodule,
    read_family,
    read_operator,
    read_rb_family,
)
from rhizalab.nilpotency import analyze
from rhizalab.operators import Bimodule, check_bimodule, regular_bimodule
from tests.conftest import (
    block_sum,
    count_calls,
    graded_split_algebra,
    random_map,
    random_split_algebra,
    random_tensor,
    sum_mono,
)
from tests.fraction_checkers import scaled

F = Fraction


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def a7_file(tmp_path):
    path = tmp_path / "a7.json"
    path.write_text(serialize_algebra(load_entry("d2.A7")))
    return str(path)


@pytest.fixture()
def a1_file(tmp_path):
    path = tmp_path / "a1.json"
    path.write_text(serialize_algebra(load_entry("d2.A1")))
    return str(path)


@pytest.fixture()
def a1_sum_file(tmp_path):
    a = load_entry("d2.A1")
    path = tmp_path / "a1sum.json"
    path.write_text(serialize_algebra(sum_mono(a)))
    return str(path)


def test_check_rhizaform_pass(a7_file):
    code, out, err = run_cli("check", "--kind", "rhizaform", a7_file)
    assert code == 0
    assert "pass" in out


def test_check_strict_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]], "mul": [[1,1,1,"1"]]}'
    )
    code, out, _ = run_cli("check", "--kind", "anti-associative", "--strict", str(bad))
    assert code == 1
    assert "FAIL" in out
    # same run without --strict reports but exits 0
    code2, _, _ = run_cli("check", "--kind", "anti-associative", str(bad))
    assert code2 == 0


def test_check_with_oracle(a7_file):
    code, out, _ = run_cli("check", "--kind", "rhizaform", "--oracle", a7_file)
    assert code == 0


def test_check_missing_file_exits_2():
    code, _, err = run_cli("check", "--kind", "rhizaform", "/nonexistent.json")
    assert code == 2
    assert "error" in err


def test_check_bad_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli("check", "--kind", "rhizaform", str(bad))
    assert code == 2


def test_usage_error_exits_2():
    code, _, _ = run_cli("check", "--kind", "made-up", "x.json")
    assert code == 2


def test_cocycles_vector_dimension(a1_file):
    code, out, _ = run_cli("cocycles", "--vector", "--format", "structured", a1_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 2


def test_cocycles_scalar(a1_sum_file):
    code, out, _ = run_cli("cocycles", "--scalar", "--format", "structured", a1_sum_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 1
    assert doc["basis"][0]["nondegenerate"] is False


def test_nilpotency_report(a1_file, tmp_path):
    code, out, _ = run_cli("nilpotency", "--format", "structured", a1_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["nilpotent"]["full"] == {"nilpotent": True, "index": 3}
    assert doc["series_equality"]["passed"] is True
    # --strict exits 1 when the series disagree, as on d3.A1, and 0 when they agree, as on d2.A1
    d3_a1 = tmp_path / "d3a1.json"
    d3_a1.write_text(serialize_algebra(load_entry("d3.A1")))
    for path, strict_code in ((a1_file, 0), (str(d3_a1), 1)):
        assert [run_cli("nilpotency", *strict, path)[0] for strict in ((), ("--strict",))] == [0, strict_code]


def test_induce_sum_and_check_roundtrip(a1_file, tmp_path):
    code, out, _ = run_cli("induce", "--what", "sum", "--format", "structured", a1_file)
    assert code == 0
    doc = json.loads(out)
    target = tmp_path / "sum.json"
    target.write_text(json.dumps(doc["algebra"]))
    code2, out2, _ = run_cli("check", "--kind", "anti-associative", str(target))
    assert code2 == 0
    assert "pass" in out2


def test_induce_rb_flow(a1_sum_file, tmp_path):
    op = tmp_path / "r.json"
    op.write_text('{"T": [["0", "0"], ["0", "0"]]}')
    code, out, _ = run_cli(
        "induce", "--what", "rb", "--operator", str(op), "--format", "structured", a1_sum_file
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra"]["kind"] == "rhizaform"


def test_induce_strict_rejects_bad_operator(a1_sum_file, tmp_path):
    op = tmp_path / "r.json"
    op.write_text('{"T": [["1", "0"], ["0", "1"]]}')
    code, _, err = run_cli("induce", "--what", "rb", "--operator", str(op), a1_sum_file)
    assert code == 2
    assert "error" in err
    code2, _, _ = run_cli(
        "induce", "--what", "rb", "--operator", str(op), "--no-strict", a1_sum_file
    )
    assert code2 == 0


def test_induce_bimodule_and_dual(a1_sum_file, tmp_path):
    code, out, _ = run_cli(
        "induce", "--what", "regular-bimodule", "--format", "structured", a1_sum_file
    )
    assert code == 0
    bim = tmp_path / "bim.json"
    bim.write_text(json.dumps(json.loads(out)["bimodule"]))
    code2, out2, _ = run_cli(
        "check", "--kind", "bimodule", "--bimodule", str(bim), a1_sum_file
    )
    assert code2 == 0 and "pass" in out2
    code3, out3, _ = run_cli(
        "induce", "--what", "dual-bimodule", "--bimodule", str(bim), "--format", "structured", a1_sum_file
    )
    assert code3 == 0
    assert "bimodule" in json.loads(out3)


def test_induce_inner_derivation(a1_file):
    code, out, _ = run_cli(
        "induce", "--what", "inner-derivation", "--z", "0,1", "--convention", "mixed",
        "--format", "structured", a1_file,
    )
    assert code == 0
    assert json.loads(out)["D"] == [["0", "0"], ["0", "0"]]


@pytest.mark.parametrize("z", ["1,,0", "1,0,", ",1,0", "1, ,0"])
def test_inner_derivation_counts_empty_z_fields(a1_file, z):
    """Every comma-separated field of --z is one coordinate, so a 2-dimensional z with an empty one is refused."""
    assert_rejected(*run_cli("induce", "--what", "inner-derivation", "--z", z, a1_file), "--z wants 2")


def test_family_subcommand(tmp_path, a1_sum_file):
    fam = {
        "dim": 2,
        "omega": {"size": 2, "table": [[0, 1], [1, 0]]},
        "alpha": [["1", "1"], ["0", "1"]],
        "succ": {"0": [[2, 2, 1, "1"]], "1": [[2, 2, 1, "1"]]},
        "prec": {"0": [[2, 2, 1, "1"]], "1": [[2, 2, 1, "1"]]},
    }
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(fam))
    code, out, _ = run_cli("family", "--do", "check", str(fam_path))
    assert code == 0 and "pass" in out
    code2, _, _ = run_cli("family", "--do", "check-semigroup", str(fam_path))
    assert code2 == 0

    rbfam = {
        "omega": {"size": 2, "table": [[0, 1], [1, 0]]},
        "operators": {"0": [["0", "0"], ["0", "0"]], "1": [["0", "0"], ["0", "0"]]},
    }
    rb_path = tmp_path / "rbfam.json"
    rb_path.write_text(json.dumps(rbfam))
    code3, _, _ = run_cli("family", "--do", "check-rb", "--algebra", a1_sum_file, str(rb_path))
    assert code3 == 0
    code4, out4, _ = run_cli(
        "family", "--do", "collapse", "--algebra", a1_sum_file, "--format", "structured", str(rb_path)
    )
    assert code4 == 0
    assert json.loads(out4)["algebra"]["dim"] == 4

    # the constant Z/2 family of an entry: --strict exits 1 on d3.A7 (eta = 1), which fails, and 0 on d2.A1
    for entry, strict_code in (("d3.A7", 1), ("d2.A1", 0)):
        doc = json.loads(serialize_algebra(load_entry(entry, {"eta": F(1)})))
        const = {**fam, "dim": doc["dim"], "alpha": doc["alpha"]}
        const.update({side: {"0": doc[side], "1": doc[side]} for side in ("succ", "prec")})
        const_path = tmp_path / f"const_{entry}.json"
        const_path.write_text(json.dumps(const))
        codes = [run_cli("family", "--do", "check", *strict, str(const_path))[0] for strict in ((), ("--strict",))]
        assert codes == [0, strict_code], entry


def test_catalog_list_and_show():
    code, out, _ = run_cli("catalog", "list")
    assert code == 0
    assert len(out.strip().splitlines()) == 23
    code2, out2, _ = run_cli("catalog", "show", "--id", "d2.A7", "--format", "structured")
    assert code2 == 0
    doc = json.loads(out2)
    assert doc["id"] == "d2.A7" and doc["tag"] == "m"


def test_catalog_verify_dim2():
    code, out, _ = run_cli("catalog", "verify", "--dim", "2", "--param", "eta=1")
    assert code == 0
    body = [l for l in out.splitlines() if l.startswith("d2.")]
    assert len(body) == 7


def test_catalog_verify_structured_byte_identical():
    runs = [
        run_cli("catalog", "verify", "--format", "structured", "--param", "eta=1/4")
        for _ in range(2)
    ]
    assert runs[0][0] == 0 and runs[1][0] == 0
    assert runs[0][1].encode() == runs[1][1].encode()


def test_catalog_verify_with_oracle_exits_zero():
    code, out, _ = run_cli("catalog", "verify", "--dim", "2", "--oracle", "--param", "eta=1")
    assert code == 0


def test_catalog_verify_reports_oracle_disagreement(monkeypatch):
    two_nilpotent = rhizalab.oracle.two_nilpotent
    monkeypatch.setattr(rhizalab.oracle, "two_nilpotent", lambda a: not two_nilpotent(a))
    code, out, err = run_cli("catalog", "verify", "--id", "d2.A1", "--oracle", "--param", "eta=1")
    assert code == 1
    assert err == "oracle disagreement: d2.A1: checker vs oracle on 2-nilpotency\n"


@pytest.mark.parametrize("ids", [("d9.A1",), ("nothing",), ("d2.A99",), ("d2.A1", "d9.A1")])
def test_catalog_verify_unknown_id_is_an_input_error(ids):
    argv = [arg for entry_id in ids for arg in ("--id", entry_id)]
    for verb in ("show", "verify") if len(ids) == 1 else ("verify",):  # show takes one --id (below)
        code, out, err = run_cli("catalog", verb, *argv)
        assert (code, out) == (2, ""), verb
        assert "no catalog entry" in err


def test_catalog_show_takes_exactly_one_id():
    code, out, err = run_cli("catalog", "show", "--id", "d2.A1", "--id", "d2.A2")
    assert (code, out) == (2, "")
    assert "exactly one --id" in err
    # the count is checked before any entry is read, an unknown one included
    code, out, err = run_cli("catalog", "show", "--id", "d2.A1", "--id", "nope")
    assert (code, out, err) == (2, "", "error: catalog show wants exactly one --id\n")


@pytest.mark.parametrize("argv", [("verify",), ("show", "--id", "d3.A4")], ids=("verify", "show"))
def test_catalog_without_param_names_the_entry_and_the_option(argv):
    """An entry that reads eta, bound by no --param, is an input error that names the entry and
    says how to bind it; nothing reaches stdout."""
    code, out, err = run_cli("catalog", *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: catalog entry d3.A4: algebra.prec[1][3]: parameter 'eta' has no rational binding;"
        " bind it with --param eta=P/Q\n"
    )


def test_catalog_verify_empty_selection_is_not_an_error():
    code, out, _ = run_cli("catalog", "verify", "--format", "structured", "--dim", "3", "--id", "d2.A1")
    assert code == 0
    assert json.loads(out) == {"entries": [], "findings": [], "oracle_disagreements": []}


# SHA-256 of structured stdout, recorded before `nilpotency` and `catalog verify`
# were built on one nilpotency analysis per algebra.
STRUCTURED_DIGESTS = [
    (("catalog", "verify", "--param", "eta=1"), "9bf4f41444cf8eb14707ea913e0d34d2bfbe2e37bc2a442c8cef3aa747352aad"),
    (
        ("catalog", "verify", "--oracle", "--param", "eta=1"),
        "9bf4f41444cf8eb14707ea913e0d34d2bfbe2e37bc2a442c8cef3aa747352aad",
    ),
    (("nilpotency", "{d2.A1}"), "46738a6b885e13544dffc0608af9d8e5e667b3fffd232d22e453e5ad94577634"),
    (("nilpotency", "{graded-n5}"), "ced0d4a1e8627f8c3a19cb2914a9a38105438215ba449c15ff75a5a8d2e727a2"),
    # routes no benchmark command reaches, recorded before subspaces were held as integer rows;
    # {A}, {S}, {R}, {M}, {FAM} and {RBF} are inputs of ``role_inputs`` (``report_paths``)
    (
        ("check", "--kind", "derivation", "--operator", "{R}", "--product", "succ", "{A}"),
        "8e269e8de42e7a8fb443da3fc4fdf47943048133a0c2554123122ce2597cd0e2",
    ),
    (
        ("check", "--kind", "o-operator", "--operator", "{R}", "--bimodule", "{M}", "{S}"),
        "0ee35dc3a0c4ae29744ce0f1fe08fde0c6297d4df02979f6cc50f34922b062ec",
    ),
    (
        ("check", "--kind", "homomorphism", "--operator", "{R}", "--target", "{S}", "{S}"),
        "4462c07b6e96ca7f6230608b369bc447692d5d32a26a014ecae5a1bef799b3da",
    ),
    (
        ("induce", "--what", "inner-derivation", "--z", "1,0,-1,0,1", "--convention", "star", "{graded-n5}"),
        "d3482cd47d4f254815b36b899e0be19f7a32d561ec101108ff8ea7ce0401de3c",
    ),
    (
        ("induce", "--what", "inner-derivation", "--z", "1,0,-1,0,1", "--convention", "mixed", "{graded-n5}"),
        "ba52b01e319710399c359d16c7472d223605b8dbcd7da4b32077670bbfa5fb6e",
    ),
    (
        ("induce", "--what", "o-operator", "--no-strict", "--operator", "{R}", "--bimodule", "{M}", "{S}"),
        "e97a5de59fef4a2ed92fc6806bac7f65052ed0b3aa29e6cc35575f08c05387e7",
    ),
    (
        ("induce", "--what", "invertible-o", "--no-strict", "--operator", "{R}", "--bimodule", "{M}", "{S}"),
        "e97a5de59fef4a2ed92fc6806bac7f65052ed0b3aa29e6cc35575f08c05387e7",
    ),
    (
        ("induce", "--what", "rhizaform-bimodule", "{A}"),
        "6cc40db6478d815a443f22885b3f18a1afecb1ef325182ab1c8fbd911701eba2",
    ),
    (
        ("induce", "--what", "dual-bimodule", "--bimodule", "{M}", "{S}"),
        "e97b2029ba5c450a903d3597debfbbe1767967670795c3a7ef752f3a43547083",
    ),
    (("family", "--do", "check-anti", "{FAM}"), "26c587740522bdba7ed8b44e83f5be43623ea33f0126acc575a8d8f3a53f1d4a"),
    (("family", "--do", "associated", "{FAM}"), "d63ad34aa55529ccdabf211b03c98f84bf29be8129fbd13d87cdf281a3903573"),
    (
        ("family", "--do", "check-semigroup", "{FAM}"),
        "c4696fe90564d0e68d49e95d0280e69d10a115883299d5e2f8d8001993a550ab",
    ),
    (
        ("family", "--do", "induce", "--algebra", "{S}", "{RBF}"),
        "ddcedcf9f7125b0ca670ce38d29e802219dad8db4503401b6f7f39d1b5087add",
    ),
    (
        ("catalog", "show", "--id", "d3.A4", "--param", "eta=1/4"),
        "482edb8b9339c98d02a56c032bdb30d5f288efc7c32f0233717e43299bc63297",
    ),
]


@pytest.fixture()
def report_paths(tmp_path, role_inputs):
    """The path of each file a digest's argv names: {A}, {S}, {R}, {M}, {FAM} and {RBF}, the split and
    the mono algebra, operator, bimodule, family and operator family of ``role_inputs`` at dimension 2;
    {d2.A1}, {graded-n5} and {sum-n6}."""
    two = role_inputs[2]
    paths = {
        "{A}": two["split"],
        "{S}": two["mono"],
        "{R}": two["operator"],
        "{M}": two["bimodule"],
        "{FAM}": two["family"],
        "{RBF}": two["rb_family"],
    }
    files = {
        "{d2.A1}": load_entry("d2.A1"),
        "{graded-n5}": graded_split_algebra(random.Random(5), 5),
        "{sum-n6}": block_sum(*(load_entry(eid, {"eta": Fraction(-3, 2)}) for eid in ("d3.A9", "d3.A4"))),
    }
    for name, a in files.items():
        (tmp_path / name).write_text(serialize_algebra(a))
        paths[name] = str(tmp_path / name)
    return paths


def test_structured_reports_keep_their_bytes(report_paths):
    for argv, digest in STRUCTURED_DIGESTS:
        argv = [report_paths.get(arg, arg) for arg in argv]
        code, out, _ = run_cli(*argv, "--format", "structured")
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# SHA-256 of table-format stdout, recorded before the table text was built only under --format table
TABLE_DIGESTS = [
    (("cocycles", "--scalar", "{S}"), "bbdbf93126851b88e92190b79014b2c0d19bbc083c5eba0a05a9ccfe44679d56"),
    (("cocycles", "--vector", "{d2.A1}"), "a9a7e6dbe796dbb1d47abddfe3078133367cfddf0d478c704857da3da1faf8e7"),
    (("nilpotency", "{graded-n5}"), "315d92140b2fda678e71b70344a865648da7c9ccc4708afb71a53301d5e6f212"),
    # 90 violations: the first 20, then "... 70 more violations"
    (
        ("check", "--kind", "rhizaform", "{graded-n5}"),
        "e1941c2ee11eaf56972019cd4176edbabd023bc1067563f7a5a532e5314672a5",
    ),
    (("catalog", "verify", "--param", "eta=1"), "07ac894847d723c2379802d1365be53a5f6bef070483805bb11f7d5c032b12c7"),
    # 21 violations, residuals such as -3/2, -3/4 and 1/2 among the first 20
    (("check", "--kind", "dendriform", "{sum-n6}"), "8cf055a899ebda6f0aa251f05959e075387ee2b2a2a1c731ecc45431fc9de3ee"),
]


def test_table_reports_keep_their_bytes(report_paths):
    for argv, digest in TABLE_DIGESTS:
        code, out, _ = run_cli(*[report_paths.get(arg, arg) for arg in argv])
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_param_parsing_error():
    code, _, err = run_cli("catalog", "verify", "--param", "eta")
    assert code == 2


@pytest.mark.parametrize("item", ["=3", " =3", "1x=3", "e-ta=3", "-eta=3"])
def test_param_name_must_be_referenceable(a7_file, item):
    """A --param binding whose name no coefficient can reference is a usage error."""
    for argv in (("catalog", "verify", "--id", "d2.A1"), ("check", "--kind", "rhizaform", a7_file)):
        assert_rejected(*run_cli(*argv, f"--param={item}"), "--param wants name=p/q")


# Why each public operation is reachable from the command line.  Where a route reaches the operation
# only through the private helper it shares with it, the note names that helper.
OPERATION_COVERAGE = {
    "exactlin.rref": "cocycles --vector FILE (_kernel: the _forward and _back_substitute passes rref is made of)",
    "exactlin.nullspace_basis": "cocycles --scalar FILE (_kernel, the integer kernel nullspace_basis converts)",
    "exactlin.invert": "induce --what cocycle --form B.json FILE (and --what invertible-o)",
    "algmodel.parse_algebra": "check --kind rhizaform FILE (every algebra-file load)",
    "algmodel.serialize_algebra":
        "induce --what sum FILE (serialize_algebra_obj, the document serialize_algebra dumps)",
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
    "operators.compatible_from_invertible_o_operator":
        "induce --what invertible-o --operator T.json --bimodule M.json FILE",
    "cocycles.scalar_cocycle_space": "cocycles --scalar FILE",
    "cocycles.vector_cocycle_space": "cocycles --vector FILE",
    "cocycles.is_nondegenerate": "cocycles --scalar FILE (reported per basis form)",
    "cocycles.rhizaform_from_cocycle": "induce --what cocycle --form B.json FILE (invertible-o, coregular bimodule)",
    "nilpotency.analyze": "nilpotency FILE (the whole report, from one clearing of the products)",
    "nilpotency.diamond": "nilpotency FILE (_products_span, the span diamond returns, in analyze)",
    "nilpotency.right_series": "nilpotency FILE (_until_stable on the right series, in analyze)",
    "nilpotency.left_series": "nilpotency FILE (_until_stable on the left series, in analyze)",
    "nilpotency.full_series": "nilpotency FILE (_until_stable on the full series, in analyze)",
    "nilpotency.is_nilpotent": "nilpotency FILE (_verdict on the full series of analyze)",
    "nilpotency.is_right_nilpotent": "nilpotency FILE (_verdict on the right series of analyze)",
    "nilpotency.is_left_nilpotent": "nilpotency FILE (_verdict on the left series of analyze)",
    "nilpotency.check_series_equality": "nilpotency FILE (_series_equality on the series of analyze)",
    "nilpotency.check_2_nilpotent": "nilpotency FILE (_two_nilpotent, in analyze)",
    "nilpotency.check_onesided_nilpotency_theorem": "nilpotency FILE (_onesided, in analyze)",
    "nilpotency.check_alpha_stability": "nilpotency FILE (_alpha_stability, in analyze, when multiplicative)",
    "family.check_semigroup": "family --do check-semigroup FILE",
    "family.check_rhizaform_family": "family --do check FILE",
    "family.check_anti_associative_family": "family --do check-anti FILE",
    "family.associated_family": "family --do associated FILE",
    "family.check_rb_family": "family --do check-rb --algebra A.json FILE",
    "family.induced_family_rhizaform": "family --do induce --algebra A.json FILE",
    "family.tensor_collapse": "family --do collapse --algebra A.json FILE",
    "catalog.load_entry": "catalog show --id ID (load_catalog_entry, then the entry's algebra, as load_entry does)",
    "catalog.verify_entry": "catalog verify --id ID (_verified, the per-entry helper verify_entry wraps)",
    "catalog.verify_all": "catalog verify",
}


# Public functions of the audited modules that need no route of their own, each with the reason.
EXEMPT = {
    "exactlin.rational": "reads every coefficient text of every file",
    "exactlin.rational_str": "writes every coefficient of every output",
    "exactlin.rank": "the rank is_nondegenerate reads",
    "algmodel.parse_algebra_obj": "the document reader parse_algebra and the catalog's entries share",
    "algmodel.serialize_algebra_obj": "the document serialize_algebra dumps, which the CLI nests in its own",
    "algmodel.star_product": "the working product of either kind, which the single-product check routes read",
    "operators.rhizaform_equivalence_verdict": "the split check beside the sum's checks, each a check route",
    "cocycles.scalar_cocycle_residuals": "checks one given form; the CLI solves for the whole space",
    "cocycles.vector_cocycle_residuals": "checks one given algebra-valued form; the CLI solves for the whole space",
    "nilpotency.series_term": "one term of a series, which nilpotency prints whole",
    "catalog.entry_ids": "the catalog's listing, which catalog list prints and verify_all selects from",
    "catalog.load_catalog_entry": "the entry reader that load_entry and verify_entry wrap",
    "catalog.oracle_disagreements": "verify_entry's comparison with the oracle, under catalog verify --oracle",
}


def test_every_public_operation_is_covered():
    """Audit: each public function the library modules define maps to a CLI route, or is exempt with
    its reason, so a new public function fails here until it is given one or the other."""
    public = set()
    for name in ("exactlin", "algmodel", "axioms", "operators", "cocycles", "nilpotency", "family", "catalog"):
        module = importlib.import_module(f"rhizalab.{name}")
        public |= {
            f"{name}.{op}"
            for op, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__ and not op.startswith("_")
        }
    assert set(OPERATION_COVERAGE) == public - set(EXEMPT)
    assert set(EXEMPT) <= public
    assert REACHED_THROUGH_A_HELPER <= {k for k, route in OPERATION_COVERAGE.items() if "(" in route}


def test_coverage_routes_parse():
    """The documented example route for each operation is a command line the parser accepts."""
    parser = build_parser()
    for key, route in OPERATION_COVERAGE.items():
        argv = re.sub(r"\([^)]*\)", "", route).split()
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{key}: route {route!r} does not parse")


# Keys whose route reaches the operation only through the helper its text names in parentheses, so
# the operation itself is never called from the command line.
REACHED_THROUGH_A_HELPER = {
    "exactlin.rref",
    "exactlin.nullspace_basis",
    "algmodel.serialize_algebra",
    "nilpotency.diamond",
    "nilpotency.right_series",
    "nilpotency.left_series",
    "nilpotency.full_series",
    "nilpotency.is_nilpotent",
    "nilpotency.is_right_nilpotent",
    "nilpotency.is_left_nilpotent",
    "nilpotency.check_series_equality",
    "nilpotency.check_2_nilpotent",
    "nilpotency.check_onesided_nilpotency_theorem",
    "nilpotency.check_alpha_stability",
    "catalog.load_entry",
    "catalog.verify_entry",
}


@pytest.mark.parametrize("key", sorted(set(OPERATION_COVERAGE) - REACHED_THROUGH_A_HELPER))
def test_coverage_route_calls_its_operation(monkeypatch, routes, role_inputs, key):
    """Audit: running the key's route once calls the operation it names.  The route is the one of
    ``routes`` its command and selector name, on valid inputs; a catalog route runs as written."""
    words = re.sub(r"\([^)]*\)", "", OPERATION_COVERAGE[key]).split()
    if words[0] == "catalog":
        argv = words
    else:
        head = next(head for head in routes if words[: len(head[:3])] == list(head[:3]))
        argv = command(head, routes[head], role_inputs[2])
    calls = count_calls(monkeypatch, key)
    code, _, err = run_cli(*argv)
    assert calls, f"{key}: {argv} exited {code} without calling it ({err.strip()})"


def test_remaining_check_routes(a7_file, a1_file, a1_sum_file, tmp_path):
    zero_op = tmp_path / "zero.json"
    zero_op.write_text('{"T": [["0", "0"], ["0", "0"]]}')
    code, out, _ = run_cli("check", "--kind", "multiplicativity", "--product", "succ", a7_file)
    assert code == 0 and "pass" in out
    code, out, _ = run_cli(
        "check", "--kind", "derivation", "--operator", str(zero_op), "--product", "succ", a7_file
    )
    assert code == 0 and "pass" in out
    code, out, _ = run_cli("check", "--kind", "jacobi-jordan", a7_file)
    assert code == 0
    code, out, _ = run_cli("check", "--kind", "pre-jacobi-jordan", a7_file)
    assert code == 0
    code, out, _ = run_cli("check", "--kind", "dendriform", a7_file)
    assert code == 0 and "pass" in out
    for kind in ("rhizaform", "dendriform"):  # a mono FILE has no split products
        refusal = f"error: {kind} check needs products succ and prec\n"
        assert run_cli("check", "--kind", kind, a1_sum_file) == (2, "", refusal)
    code, out, _ = run_cli(
        "check", "--kind", "homomorphism", "--operator", str(zero_op), "--target", a7_file, a7_file
    )
    assert code == 0 and "pass" in out


@pytest.mark.parametrize("alg_dim", [1, 3])
@pytest.mark.parametrize("what", ["o-operator", "invertible-o", "dual-bimodule"])
def test_induce_refuses_bimodule_over_another_dimension(a1_sum_file, tmp_path, what, alg_dim):
    """With --no-strict too: a shape error exits 2 before anything is printed."""
    one = [["1", "0"], ["0", "1"]]
    bim = tmp_path / "bim.json"
    bim.write_text(
        json.dumps({"alg_dim": alg_dim, "mod_dim": 2, "left": [one] * alg_dim, "right": [one] * alg_dim, "beta": one})
    )
    ident = tmp_path / "id.json"
    ident.write_text(json.dumps({"T": one}))
    for strict in ((), ("--no-strict",)):
        code, out, err = run_cli(
            "induce", "--what", what, *strict, "--operator", str(ident), "--bimodule", str(bim), a1_sum_file
        )
        assert (code, out) == (2, ""), strict
        assert "different dimension" in err


@pytest.mark.parametrize("alg_dim", [1, 3])
def test_bimodule_check_refuses_bimodule_over_another_dimension(alg_dim):
    """The library refuses as the CLI does, after reading the algebra's product."""
    a = load_entry("d2.A1")
    s = sum_mono(a)
    m = Bimodule(alg_dim, 2, (Matrix.identity(2),) * alg_dim, (Matrix.identity(2),) * alg_dim, LinearMap.identity(2))
    with pytest.raises(DimensionMismatch, match="bimodule is over an algebra of different dimension"):
        check_bimodule(s, m)
    with pytest.raises(MissingProduct):
        check_bimodule(a, m)


@pytest.mark.parametrize(
    "rows", [[["1", "0", "0"], ["0", "1", "0"]], [["1"]], [["1", "0"]], [["1", "0"], ["0", "1"], ["0", "1"]]]
)
def test_induce_rb_refuses_operator_of_another_shape(a1_sum_file, tmp_path, rows):
    """With --no-strict too: an operator that does not act on the algebra exits 2 before anything is printed."""
    op = tmp_path / "r.json"
    op.write_text(json.dumps({"T": rows}))
    for strict in ((), ("--no-strict",)):
        code, out, err = run_cli("induce", "--what", "rb", *strict, "--operator", str(op), a1_sum_file)
        assert (code, out) == (2, ""), strict
        assert "must act on the algebra" in err


@pytest.mark.parametrize("oracle", [(), ("--oracle",)])
@pytest.mark.parametrize("rows", [[["1", "0", "0"], ["0", "1", "0"]], [["1"]], [["1", "0"], ["0", "1"], ["0", "1"]]])
def test_check_derivation_refuses_operator_of_another_shape(a7_file, tmp_path, rows, oracle):
    """An operator that does not act on the algebra is refused as by --kind rota-baxter, checker and oracle
    alike, and not as a twist map of its own shape."""
    op = tmp_path / "d.json"
    op.write_text(json.dumps({"T": rows}))
    argv = ("check", "--kind", "derivation", *oracle, "--operator", str(op), "--product", "succ", a7_file)
    assert run_cli(*argv) == (2, "", "error: operator must act on the algebra\n")


@pytest.mark.parametrize("dim", [1, 3])
def test_family_induce_refuses_family_over_another_dimension(a1_sum_file, tmp_path, dim):
    """With --no-strict too: a family of the wrong dimension exits 2 before anything is printed."""
    zero = [["0"] * dim for _ in range(dim)]
    rb_path = tmp_path / "rbfam.json"
    rb_path.write_text(
        json.dumps({"omega": {"size": 2, "table": [[0, 1], [1, 0]]}, "operators": {"0": zero, "1": zero}})
    )
    for strict in ((), ("--no-strict",)):
        code, out, err = run_cli("family", "--do", "induce", *strict, "--algebra", a1_sum_file, str(rb_path))
        assert (code, out) == (2, ""), strict
        assert "do not act on the algebra" in err


def test_remaining_induce_and_operator_routes(a1_file, a1_sum_file, tmp_path):
    code, out, _ = run_cli("induce", "--what", "pre-jacobi-jordan", "--format", "structured", a1_file)
    assert code == 0 and json.loads(out)["algebra"]["kind"] == "mono"
    code, out, _ = run_cli("induce", "--what", "bracket", "--format", "structured", a1_file)
    assert code == 0
    # split-action module of the split algebra, then the identity operator on it
    code, out, _ = run_cli(
        "induce", "--what", "rhizaform-bimodule", "--format", "structured", a1_file
    )
    assert code == 0
    bim = tmp_path / "bim.json"
    bim.write_text(json.dumps(json.loads(out)["bimodule"]))
    ident = tmp_path / "id.json"
    ident.write_text('{"T": [["1", "0"], ["0", "1"]]}')
    code, out, _ = run_cli(
        "check", "--kind", "o-operator", "--operator", str(ident), "--bimodule", str(bim), a1_sum_file
    )
    assert code == 0 and "pass" in out
    code, out, _ = run_cli(
        "check", "--kind", "rota-baxter", "--operator", str(ident), a1_sum_file
    )
    assert code == 0 and "FAIL" in out
    code, out, _ = run_cli(
        "induce", "--what", "o-operator", "--operator", str(ident), "--bimodule", str(bim),
        "--format", "structured", a1_sum_file,
    )
    assert code == 0
    code, out, _ = run_cli(
        "induce", "--what", "invertible-o", "--operator", str(ident), "--bimodule", str(bim),
        "--format", "structured", a1_sum_file,
    )
    assert code == 0
    # splitting from a nondegenerate form on the zero-product algebra
    zero_alg = tmp_path / "zero_alg.json"
    zero_alg.write_text('{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]]}')
    form = tmp_path / "form.json"
    form.write_text('{"B": [["1", "0"], ["0", "1"]]}')
    code, out, _ = run_cli(
        "induce", "--what", "cocycle", "--form", str(form), "--format", "structured", str(zero_alg)
    )
    assert code == 0 and json.loads(out)["algebra"]["kind"] == "rhizaform"


def test_remaining_family_routes(tmp_path, a1_sum_file):
    fam = {
        "dim": 2,
        "omega": {"size": 1, "table": [[0]]},
        "alpha": [["1", "1"], ["0", "1"]],
        "succ": {"0": [[2, 2, 1, "1"]]},
        "prec": {"0": [[2, 2, 1, "1"]]},
    }
    fam_path = tmp_path / "fam1.json"
    fam_path.write_text(json.dumps(fam))
    code, out, _ = run_cli("family", "--do", "associated", "--format", "structured", str(fam_path))
    assert code == 0 and json.loads(out)["0,0"] == [[2, 2, 1, "2"]]
    code, out, _ = run_cli("family", "--do", "check-anti", str(fam_path))
    assert code == 0 and "pass" in out
    rbfam = {
        "omega": {"size": 1, "table": [[0]]},
        "operators": {"0": [["0", "0"], ["0", "0"]]},
    }
    rb_path = tmp_path / "rbfam1.json"
    rb_path.write_text(json.dumps(rbfam))
    code, out, _ = run_cli(
        "family", "--do", "induce", "--algebra", a1_sum_file, "--format", "structured", str(rb_path)
    )
    assert code == 0 and json.loads(out)["succ"]["0"] == []


def test_report_routes_outside_the_benchmark_print_their_reports(tmp_path, a7_file):
    """``check --kind derivation`` and ``family --do check-anti``, on inputs they fail, print
    ``json.dumps(report.to_obj(), indent=2)`` and exit 0, or 1 under --strict."""
    op_path = tmp_path / "d.json"
    op_path.write_text('{"T": [["1/2", "1"], ["0", "1/3"]]}')
    rng = random.Random(11)
    succ = {lam: random_tensor(rng, 3) for lam in range(2)}
    prec = {lam: scaled(random_tensor(rng, 3), F(1, 2)) for lam in range(2)}
    fam = FamilyAlgebra(3, Semigroup.cyclic(2), succ, prec, random_map(rng, 3, 0))
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(family_obj(fam)))
    derivation = check_alpha_derivation(read_operator(load_json(str(op_path))), load_algebra(a7_file, {}), "succ")
    anti = check_anti_associative_family(associated_family(fam), fam.alpha, fam.semigroup)
    routes = [
        (("check", "--kind", "derivation", "--operator", str(op_path), "--product", "succ", a7_file), derivation),
        (("family", "--do", "check-anti", str(fam_path)), anti),
    ]
    for argv, report in routes:
        assert not report.passed and any(v.scale != 1 for v in report.violations)
        printed = json.dumps(report.to_obj(), indent=2) + "\n"
        for strict, code in (((), 0), (("--strict",), 1)):
            assert run_cli(*argv, "--format", "structured", *strict) == (code, printed, ""), (argv, strict)


GOOD_FAMILY = {
    "dim": 2,
    "omega": {"size": 1, "table": [[0]]},
    "alpha": [["1", "0"], ["0", "1"]],
    "succ": {"0": [[2, 2, 1, "eta"]]},
    "prec": {"0": []},
    "params": {"eta": "1/2"},
}


@pytest.mark.parametrize(
    "argv, doc, fragment",
    [
        (("check", "--kind", "rota-baxter", "--operator"), {"T": 5}, "operator.T"),
        (("check", "--kind", "rota-baxter", "--operator"), {"T": [["1", 0], [0, 0.5]]}, "operator.T[1][1]"),
        (("check", "--kind", "bimodule", "--bimodule"), {"left": []}, "'right'"),
        (
            ("check", "--kind", "bimodule", "--bimodule"),
            {"alg_dim": 2, "mod_dim": 2, "left": [[["1"]], [["x"]]], "right": [], "beta": [["1"]]},
            "bimodule.left[1][0][0]",
        ),
        (("family", "--do", "check"), {k: v for k, v in GOOD_FAMILY.items() if k != "omega"}, "'omega'"),
        (("family", "--do", "check"), {**GOOD_FAMILY, "omega": {"table": [["a"]]}}, "family.omega.table"),
        (("family", "--do", "check"), {**GOOD_FAMILY, "succ": {}}, "family.succ"),
        (
            ("family", "--do", "check-rb", "--algebra", "{A}"),
            {"omega": {"table": [[0]]}, "operators": {"0": [["1/0"]]}},
            "rb_family.operators.0[0][0]",
        ),
        (("induce", "--what", "cocycle", "--form"), {"B": [["1", "x"], ["0", "1"]]}, "form.B[0][1]"),
        (("induce", "--what", "cocycle", "--form"), {}, "'B'"),
        (("family", "--do", "check"), {**GOOD_FAMILY, "params": [1]}, "'params'"),
        (("family", "--do", "check"), {**GOOD_FAMILY, "dim": True}, "family.dim"),
        (
            ("check", "--kind", "bimodule", "--bimodule"),
            {"alg_dim": True, "mod_dim": 2, "left": [], "right": [], "beta": [["1"]]},
            "bimodule.alg_dim",
        ),
        (("family", "--do", "check"), {**GOOD_FAMILY, "alpha": [["1", "0"], ["0", 0.5]]}, "family.alpha[1][1]"),
        # semigroup table cells are JSON integers, and a given size is the row count
        (("family", "--do", "check"), {**GOOD_FAMILY, "omega": {"table": [[0.9]]}}, "family.omega.table[0][0]"),
        (("family", "--do", "check-semigroup"), {"omega": {"table": [[False, True], [True, "0"]]}}, "table[0][0]"),
        (("family", "--do", "check-semigroup"), {"omega": {"table": [[0, 1], [1, "0"]]}}, "family.omega.table[1][1]"),
        (("family", "--do", "check"), {**GOOD_FAMILY, "omega": {"size": 7, "table": [[0]]}}, "family.omega.size"),
        # per-element sections are keyed exactly "0".."s-1"
        (
            ("family", "--do", "check"),
            {**GOOD_FAMILY, "succ": {"0": [], "5": [[1, 1, 1, "1"]]}},
            "family.succ: key '5'",
        ),
        (("family", "--do", "check"), {**GOOD_FAMILY, "prec": {"0": [], "x": 3}}, "family.prec: key 'x'"),
        *(
            (
                ("family", "--do", "check-rb", "--algebra", "{A}"),
                {
                    "omega": {"table": [[0]]},
                    "operators": {"0": [["0", "0"], ["0", "0"]], alias: [["1", "0"], ["0", "1"]]},
                },
                f"rb_family.operators: key {alias!r}",
            )
            for alias in ("00", " 0")
        ),
        (("family", "--do", "check"), {**GOOD_FAMILY, "params": []}, "family.params"),
        (("family", "--do", "check"), {**GOOD_FAMILY, "params": {"": "1/2"}}, "family.params"),
        # each shape refusal of a bimodule, operator, form, semigroup or operator family
        *(
            (
                ("check", "--kind", "bimodule", "--bimodule"),
                {"alg_dim": 2, "mod_dim": mod_dim, "left": [act] * count, "right": [act] * count, "beta": beta},
                fragment,
            )
            for mod_dim, act, count, beta, fragment in (
                (2, [["1"]], 2, [["1", "0"], ["0", "1"]], "action matrices must be mod_dim x mod_dim"),
                (1, [["1"]], 1, [["1"]], "need one action matrix per algebra basis vector"),
                (1, [["1"]], 2, [["1", "0"], ["0", "1"]], "beta must act on the module"),
            )
        ),
        (("induce", "--what", "cocycle", "--form"), {"B": [["1", "0"]]}, "form matrix must be dim x dim"),
        (("check", "--kind", "rota-baxter", "--operator"), {"X": [["1"]]}, "operator: no operator section ('T')"),
        (
            ("family", "--do", "check-rb", "--algebra", "{A}"),
            {"omega": {"table": []}, "operators": {}},
            "rb_family.omega.table has no rows",
        ),
        (
            ("family", "--do", "check-rb", "--algebra", "{A}"),
            {"omega": {"table": [[0]]}, "operators": {"0": [["1", "0"]]}},
            "family operators must be square and equal-dimensional",
        ),
        # a ragged semigroup table is refused at the row that breaks it
        (
            ("family", "--do", "check-semigroup"),
            {"omega": {"table": [[0, 1], [1]]}},
            "family.omega.table[1] must be a list of 2 entries",
        ),
        (
            ("family", "--do", "check-rb", "--algebra", "{A}"),
            {"omega": {"table": [[0, 1, 0], [1, 0, 1], [0, 1]]}, "operators": {}},
            "rb_family.omega.table[2] must be a list of 3 entries",
        ),
    ],
)
def test_malformed_auxiliary_files_exit_2_without_traceback(tmp_path, a1_sum_file, argv, doc, fragment):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [a1_sum_file if a == "{A}" else a for a in argv]
    if argv[0] == "family":
        code, out, err = run_cli(*argv, str(bad))
    else:
        code, out, err = run_cli(*argv, str(bad), a1_sum_file)
    assert_rejected(code, out, err, fragment)


def assert_rejected(code, out, err, fragment):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert fragment in err


GOOD_ALGEBRA = {"dim": 2, "kind": "mono", "alpha": [["1", "0"], ["0", "1"]], "mul": [[2, 2, 1, "1"]]}


@pytest.mark.parametrize("argv", [("check", "--kind", "anti-associative"), ("cocycles", "--vector")])
@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({**GOOD_ALGEBRA, "params": [1]}, "'params'"),
        ({**GOOD_ALGEBRA, "dim": True}, "'dim'"),
        ({"dim": 2, "kind": "mono", "alpha": [[True, 0], [0, 1]], "mul": [[True, 2, 1, True]]}, "True"),
        ({**GOOD_ALGEBRA, "mul": [[True, 2, 1, "1"]]}, "non-integer indices"),
        ({**GOOD_ALGEBRA, "mul": [[2, 2, 1, False]]}, "False"),
        ({**GOOD_ALGEBRA, "params": {"eta": True}}, "True"),
        ({**GOOD_ALGEBRA, "alpha": [["1", "0"], ["0", "x"]]}, "algebra.alpha[1][1]"),
        ({**GOOD_ALGEBRA, "mul": [[2, 2, 1, "1/0"]]}, "algebra.mul[0][3]"),
        # params is an object whose keys are names a coefficient can reference
        *(({**GOOD_ALGEBRA, "params": bad}, "algebra.params") for bad in ([], 0, "", False, None)),
        *(({**GOOD_ALGEBRA, "params": {name: "1"}}, "algebra.params") for name in ("", "-eta", "1x", "e ta")),
        ({**GOOD_ALGEBRA, "dim": 0}, "algebra.dim: 'dim' must be positive"),
        ({**GOOD_ALGEBRA, "mul": {}}, "algebra.mul must be a list of [i, j, k, coefficient] entries"),
        (
            {"dim": 2, "kind": "rhizaform", "alpha": GOOD_ALGEBRA["alpha"], "succ": [[1, 1, 1]], "prec": []},
            "algebra.succ[0]: [1, 1, 1] is not [i, j, k, coefficient]",
        ),
        # a coefficient string too long to read as a number
        ({**GOOD_ALGEBRA, "mul": [[2, 2, 1, "1" * 5000]]}, "error: algebra.mul[0][3]: bad rational"),
    ],
)
def test_malformed_algebra_files_exit_2_without_traceback(tmp_path, argv, doc, fragment):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert_rejected(*run_cli(*argv, str(bad)), fragment)


def test_integer_literal_beyond_digit_limit_exits_2(tmp_path, a1_sum_file):
    """json refuses integer literals longer than the interpreter's digit limit
    with a ValueError that is not a JSONDecodeError."""
    huge = "1" * 5000
    algebra = tmp_path / "huge_algebra.json"
    algebra.write_text(f'{{"dim": 2, "kind": "mono", "alpha": [[1, 0], [0, 1]], "mul": [[1, 2, 1, {huge}]]}}')
    assert_rejected(*run_cli("check", "--kind", "anti-associative", str(algebra)), "digits")
    operator = tmp_path / "huge_operator.json"
    operator.write_text(f'{{"T": [[{huge}, 0], [0, 1]]}}')
    assert_rejected(*run_cli("check", "--kind", "rota-baxter", "--operator", str(operator), a1_sum_file), "digits")


@pytest.mark.parametrize("route", ["--scalar", "--vector"])
def test_cocycles_strict_rejects_non_anti_associative(tmp_path, route):
    """e1*e1 = e1 with the identity twist is not anti-associative; both routes
    refuse it under --strict and solve it without."""
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({**GOOD_ALGEBRA, "mul": [[1, 1, 1, "1"]]}))
    assert_rejected(*run_cli("cocycles", route, "--strict", str(path)), "anti-associative")
    code, out, _ = run_cli("cocycles", route, str(path))
    assert code == 0 and "dimension" in out


def test_family_loader_keeps_params(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(GOOD_FAMILY))
    fam = read_family(load_json(str(path)), {})
    assert fam.params == {"eta": F(1, 2)}
    assert fam.succ[0].entry(1, 1) == (F(1, 2), F(0))
    assert read_family(load_json(str(path)), {"eta": F(3)}).params == {"eta": F(3)}



class _Writes(io.StringIO):
    """A stdout that records the text of every ``write``."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def _violations_per_write(writes):
    return [text.count('"identity": ') for text in writes]


@pytest.mark.parametrize("count", [256, 257, 600])
def test_reports_are_written_in_bounded_chunks(count):
    """``_emit`` writes a report in pieces of at most ``_CHUNK`` violations, and together they are
    ``json.dumps`` of the report with the newline ``print`` would add."""
    report = CheckReport.collect(
        "chunked", [Violation("x", (i, 1, 2), (i, -i, 0), 3 if i % 2 else 1) for i in range(1, count + 1)]
    )
    out = _Writes()
    with redirect_stdout(out):
        rhizalab.cli._emit(report, argparse.Namespace(format="structured"))
    per_write = _violations_per_write(out.writes)
    assert max(per_write) <= _CHUNK and sum(per_write) == count
    assert len([n for n in per_write if n]) == -(-count // _CHUNK)
    assert out.getvalue() == json.dumps(report.to_obj(), indent=2) + "\n"


def test_nested_reports_are_written_in_bounded_chunks(tmp_path):
    """Under ``nilpotency`` the 2-nilpotent report, one level deep, spans several chunks; each write
    holds at most ``_CHUNK`` violations and the document is ``json.dumps`` of it."""
    a = random_split_algebra(random.Random(1), 5)
    path = tmp_path / "dense.json"
    path.write_text(serialize_algebra(a))
    out = _Writes()
    with redirect_stdout(out):
        assert main(["nilpotency", "--format", "structured", str(path)]) == 0
    per_write = _violations_per_write(out.writes)
    assert max(per_write) <= _CHUNK and sum(per_write) == 1000
    doc = json.loads(out.getvalue())
    assert doc["two_nilpotent"] == analyze(a).two_nilpotent.to_obj()
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


def test_closed_stdout_exits_141_without_a_message():
    """A reader that closed stdout before the command wrote (``rhizalab ... | head``) is not bad
    input: the command exits 128 + SIGPIPE and prints nothing on stderr, at exit included."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "rhizalab", "catalog", "list"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


# --- exit-code contract under fuzzed numeric slots --------------------------

JUNK = st.one_of(
    st.booleans(),
    st.floats(),
    st.none(),
    st.text(max_size=5),
    st.integers(-(2**200), 2**200),
    st.sampled_from(["1/2", "-3/7", "eta", "-eta", "1/0", "0.5", "1e3", " 2 "]),
)


@st.composite
def fuzzed_algebra_docs(draw):
    """A valid algebra file of dimension 1-3 in which zero, one or two
    numeric slots (dim, a twist entry, a product index or coefficient, a
    parameter value) hold junk."""
    n = draw(st.integers(1, 3))
    coefficient = st.one_of(st.integers(-2, 2), st.sampled_from(["1", "-1", "1/2", "eta"]))
    entry = st.tuples(st.integers(1, n), st.integers(1, n), st.integers(1, n), coefficient).map(list)
    names = draw(st.sampled_from([("mul",), ("succ", "prec")]))
    doc = {
        "dim": n,
        "kind": "mono" if names == ("mul",) else "rhizaform",
        "alpha": [[draw(coefficient) for _ in range(n)] for _ in range(n)],
        "params": {"eta": "1/3"},
    }
    doc.update((name, draw(st.lists(entry, max_size=4))) for name in names)
    slots = [("dim",), ("params", "eta")]
    slots += [("alpha", r, c) for r in range(n) for c in range(n)]
    slots += [(name, e, pos) for name in names for e in range(len(doc[name])) for pos in range(4)]
    for _ in range(draw(st.integers(0, 2))):
        *path, last = draw(st.sampled_from(slots))
        target = doc
        for key in path:
            target = target[key]
        target[last] = draw(JUNK)
    return doc


@settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=fuzzed_algebra_docs())
def test_fuzzed_algebra_files_keep_the_exit_code_contract(tmp_path, doc):
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ("check", "--kind", "anti-associative"),
        ("check", "--kind", "anti-associative", "--strict"),
        ("cocycles", "--scalar"),
    ):
        code, out, err = run_cli(*argv, str(path))
        assert code in (0, 1, 2), (argv, doc, err)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error: ")


# --- every route: the CLI's route tables, on one valid input per role ----------


def table_routes():
    """(argv before FILE, what FILE holds, the options it needs) of every route in the CLI's
    tables; inductions and family actions under --no-strict, so that only a shape stops them."""
    for kind, (needs, _, _) in CHECKS.items():
        yield ("check", "--kind", kind), "algebra", needs
    for what, (needs, _) in INDUCTIONS.items():
        yield ("induce", "--what", what, "--no-strict"), "algebra", needs
    for do, (role, needs, _) in FAMILY_OPS.items():
        yield ("family", "--do", do, "--no-strict"), role, needs


def every_route():
    """``table_routes`` and the routes outside the tables: both cyclic-form readings and nilpotency."""
    yield from table_routes()
    for head in (("cocycles", "--scalar"), ("cocycles", "--vector"), ("nilpotency",)):
        yield head, "algebra", ()


def identity(n):
    return [["1" if r == c else "0" for c in range(n)] for r in range(n)]


# per dimension, the catalog entries of the split algebra and of the one whose summed product is the mono algebra
ENTRIES = {2: ("d2.A7", "d2.A1"), 3: ("d3.A1", "d3.A1")}


# The role table.  Each role of the CLI's tables (an option, or a family route's FILE) and a FILE
# algebra, split or mono, has a valid input of every dimension n: a file written from ROLE_DOCS, the
# file of another role (SAME_FILE), or a text (ROLE_TEXTS).
ROLE_DOCS = {
    "split": lambda n: serialize_algebra_obj(load_entry(ENTRIES[n][0])),
    "mono": lambda n: serialize_algebra_obj(sum_mono(load_entry(ENTRIES[n][1]))),
    "operator": lambda n: {"T": identity(n)},
    "bimodule": lambda n: bimodule_obj(regular_bimodule(sum_mono(load_entry(ENTRIES[n][1])))),
    "form": lambda n: {"B": identity(n)},
    "family": lambda n: {**GOOD_FAMILY, "dim": n, "alpha": identity(n)},
    "rb_family": lambda n: {"omega": {"size": 1, "table": [[0]]}, "operators": {"0": [["0"] * n for _ in range(n)]}},
}
SAME_FILE = {"target": "mono", "algebra": "mono", "semigroup": "family"}
ROLE_TEXTS = {"product": lambda n: "succ", "z": lambda n: ",".join(["1"] + ["0"] * (n - 1))}


@pytest.fixture(scope="session")
def role_inputs(tmp_path_factory):
    """Dimension (2 or 3) -> role -> its valid input: the path of its file, or its text."""
    out = {}
    for n in (2, 3):
        folder = tmp_path_factory.mktemp(f"inputs{n}")
        out[n] = {role: text(n) for role, text in ROLE_TEXTS.items()}
        for role, doc in ROLE_DOCS.items():
            (folder / f"{role}.json").write_text(json.dumps(doc(n)))
            out[n][role] = str(folder / f"{role}.json")
        out[n].update((role, out[n][other]) for role, other in SAME_FILE.items())
    return out


def command(head, slots, inputs, swap=None):
    """The command line of a route: ``head``, the flag and input of each option slot, then FILE's
    input (the last slot).  A slot's input is its role's in ``inputs``, or ``swap``'s by slot index."""
    argv = [*head]
    for i, (name, role) in enumerate(slots):
        value = (swap or {}).get(i, inputs[role])
        argv += [name, value] if name.startswith("--") else [value]
    return argv


@pytest.fixture(scope="session")
def routes(role_inputs):
    """The head of every route (``every_route``) -> its slots, each (name, role): (--option, role)
    for each option it needs, then (what FILE holds, the role whose input it reads).  A FILE that
    holds an algebra reads the split or the mono one, the first the route runs on at dimension 2;
    every route must run on one of them."""
    out = {}
    for head, role, needs in every_route():
        options = [(f"--{name}", name) for name in needs]
        for file in ("split", "mono") if role == "algebra" else (role,):
            if run_cli(*command(head, [*options, (role, file)], role_inputs[2]))[0] != 2:
                out[head] = [*options, (role, file)]
                break
        else:
            pytest.fail(f"{head} runs on neither valid algebra")
    return out


# every slot of the tables' routes that reads a file: an option, or FILE by what it holds
FILE_SLOTS = sorted(
    {f"--{name}" for _, _, needs in table_routes() for name in needs if name not in ROLE_TEXTS}
    | {role for _, role, _ in table_routes()}
)


def first_slot(routes, name):
    """(head, slots, index of the slot) of the first route with a slot ``name``."""
    return next((head, slots, i) for head, slots in routes.items() for i, slot in enumerate(slots) if slot[0] == name)


@pytest.mark.parametrize("unreadable", ["directory", "not UTF-8", "nested too deeply"])
@pytest.mark.parametrize("role", FILE_SLOTS, ids=lambda name: name.replace("_", " "))
def test_unreadable_files_exit_2_in_every_role(tmp_path, routes, role_inputs, role, unreadable):
    if unreadable == "directory":
        bad = tmp_path / "a_directory"
        bad.mkdir()
    elif unreadable == "not UTF-8":
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'\xff{"dim": 2}')
    else:  # beyond the decoder's recursion limit
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000)
    head, slots, i = first_slot(routes, role)
    code, out, err = run_cli(*command(head, slots, role_inputs[2], {i: str(bad)}))
    assert_rejected(code, out, err, "nested too deeply" if unreadable == "nested too deeply" else str(bad))


KEYS = st.one_of(
    st.sampled_from(
        ["dim", "alpha", "params", "succ", "T", "left", "beta", "alg_dim", "B", "omega", "table", "size", "0"]
    ),
    st.text(max_size=3),
)
ANY_JSON = st.recursive(
    JUNK, lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(KEYS, inner, max_size=3)), max_leaves=8
)


def values_below(doc):
    """(container, key) of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield doc, key
        yield from values_below(child)


@settings(
    max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(fuzzed=st.sampled_from(sorted(ROLE_DOCS)), junk=ANY_JSON, data=st.data())
def test_fuzzed_files_keep_the_exit_code_contract_in_every_role(tmp_path, routes, role_inputs, fuzzed, junk, data):
    """Arbitrary JSON as the whole of one valid file, or in place of one value of it, read in
    every slot that reads that file on every route (``every_route``)."""
    valid = role_inputs[2][fuzzed]
    with open(valid) as fh:
        doc = json.load(fh)
    places = list(values_below(doc))
    place = data.draw(st.integers(-1, len(places) - 1))
    if place < 0:
        doc = junk
    else:
        container, key = places[place]
        container[key] = junk
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(doc))
    for head, slots in routes.items():
        for i, (_, role) in enumerate(slots):
            if role_inputs[2][role] == valid:
                argv = command(head, slots, role_inputs[2], {i: str(path)})
                code, out, err = run_cli(*argv)
                assert code in (0, 1, 2), (argv, doc, err)
                assert "Traceback" not in err
                if code == 2:
                    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("role", FILE_SLOTS, ids=lambda name: name.replace("_", " "))
def test_repeated_keys_exit_2_in_every_role(tmp_path, routes, role_inputs, role):
    """A repeated object key would silently drop its first value; every role refuses it."""
    head, slots, i = first_slot(routes, role)
    with open(role_inputs[2][slots[i][1]]) as fh:
        doc = json.load(fh)
    key = next(iter(doc))
    path = tmp_path / "repeated.json"
    path.write_text("{" + json.dumps(key) + ": " + json.dumps(doc[key]) + ", " + json.dumps(doc)[1:])
    assert_rejected(*run_cli(*command(head, slots, role_inputs[2], {i: str(path)})), f"repeated key {key!r}")


@pytest.mark.parametrize(
    "argv, text, key",
    [
        (
            ("check", "--kind", "rhizaform"),
            '{"dim": 1, "kind": "rhizaform", "alpha": [["1"]], "succ": [[1, 1, 1, "1"]], "succ": [], "prec": []}',
            "succ",
        ),
        (
            ("family", "--do", "associated"),
            '{"dim": 1, "omega": {"table": [[0]]}, "alpha": [["1"]], "succ": {"0": [[1, 1, 1, "1"]], "0": []}, '
            '"prec": {"0": []}}',
            "0",
        ),
    ],
)
def test_repeated_nested_keys_exit_2(tmp_path, argv, text, key):
    """The nonzero product in the first of two equal keys is not lost: the file is refused."""
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert_rejected(*run_cli(*argv, str(path)), f"repeated key {key!r}")


def test_written_files_read_back_equal(a1_sum_file, tmp_path):
    """A bimodule written by induce and a family written by family --do induce read back as the same value."""
    s = load_algebra(a1_sum_file, {})
    code, out, _ = run_cli("induce", "--what", "regular-bimodule", "--format", "structured", a1_sum_file)
    assert code == 0 and read_bimodule(json.loads(out)["bimodule"]) == regular_bimodule(s)

    rbf = {
        "omega": {"size": 2, "table": [[0, 1], [1, 0]]},
        "operators": {"0": [["0", "1"], ["0", "0"]], "1": [["1", "-2"], ["3", "1/2"]]},
    }
    path = tmp_path / "rbf2.json"
    path.write_text(json.dumps(rbf))
    argv = ("family", "--do", "induce", "--no-strict", "--algebra", a1_sum_file, "--format", "structured")
    code, out, _ = run_cli(*argv, str(path))
    assert code == 0
    want = induced_family_rhizaform(read_rb_family(rbf), s, strict=False)
    got = read_family(json.loads(out), {})
    assert not want.succ[1].is_zero() and not want.prec[1].is_zero()
    assert (got.dim, got.semigroup, got.alpha, got.succ, got.prec) == (
        want.dim,
        want.semigroup,
        want.alpha,
        want.succ,
        want.prec,
    )


@pytest.mark.parametrize(
    "head, missing",
    [
        pytest.param(head, f"--{name}", id=f"{head[0]} {head[2]} without --{name}")
        for head, _, needs in table_routes()
        for name in needs
    ],
)
def test_missing_option_exits_2_naming_it(routes, role_inputs, head, missing):
    slots = routes[head]
    given = [slot for slot in slots if slot[0] != missing]
    assert_rejected(*run_cli(*command(head, given, role_inputs[2])), missing)
    # with every option given, the route runs
    code, _, err = run_cli(*command(head, slots, role_inputs[2]))
    assert code == 0, err


def _checker(kind):
    """The name in ``rhizalab.cli`` of the checker ``check --kind kind`` runs, as OPERATION_COVERAGE
    records it."""
    return next(
        op
        for key, route in OPERATION_COVERAGE.items()
        if route.split()[:3] == ["check", "--kind", kind] and (op := key.split(".")[1]).startswith("check_")
    )


@pytest.mark.parametrize("kind", sorted(CHECKS))
def test_checker_is_looked_up_when_the_command_runs(monkeypatch, routes, role_inputs, kind):
    """A wrapper installed on the module attribute after import (as a tracer
    does) sees the call, so the route table holds no captured function."""
    name = _checker(kind)
    checker = getattr(rhizalab.cli, name)
    calls = []
    monkeypatch.setattr(rhizalab.cli, name, lambda *args, **kwargs: calls.append(1) or checker(*args, **kwargs))
    head = ("check", "--kind", kind)
    code, _, err = run_cli(*command(head, routes[head], role_inputs[2]))
    assert (code, len(calls)) == (0, 1), err


# check kind -> its function in rhizalab.oracle, which the oracle test replaces by name
ORACLES = {
    "rhizaform": "rhizaform",
    "dendriform": "dendriform",
    "anti-associative": "anti_associative",
    "jacobi-jordan": "jacobi_jordan",
    "pre-jacobi-jordan": "pre_jacobi_jordan",
    "multiplicativity": "multiplicative",
    "derivation": "alpha_derivation",
    "bimodule": "bimodule",
    "o-operator": "o_operator",
    "rota-baxter": "rota_baxter",
}


@pytest.mark.parametrize("kind", sorted(kind for kind, (_, _, second_opinion) in CHECKS.items() if second_opinion))
def test_oracle_runs_only_under_the_flag_and_reports_disagreement(monkeypatch, routes, role_inputs, kind):
    head = ("check", "--kind", kind)
    argv = [*command(head, routes[head], role_inputs[2]), "--format", "structured"]
    code, out, err = run_cli(*argv, "--oracle")
    assert (code, err) == (0, "")
    passed = json.loads(out)["passed"]

    monkeypatch.setattr(rhizalab.oracle, ORACLES[kind], lambda *args, **kwargs: not passed)
    code, out_disagreeing, err = run_cli(*argv, "--oracle")
    assert code == 1
    assert f"ORACLE DISAGREEMENT on {kind}" in err
    assert out_disagreeing == out

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran without --oracle")

    monkeypatch.setattr(rhizalab.oracle, ORACLES[kind], refuse)
    assert run_cli(*argv) == (0, out, "")


def test_homomorphism_has_no_oracle(routes, role_inputs):
    head = ("check", "--kind", "homomorphism")
    code, out, err = run_cli(*command(head, routes[head], role_inputs[2]), "--oracle")
    assert code == 0 and "pass" in out
    assert "note: no independent oracle for kind 'homomorphism'" in err


# --- every route: one input of another dimension ------------------------------


DIMENSIONLESS = {"product", "semigroup"}
# the routes that read two inputs with a dimension, so that the two can differ
MIXED_ROUTES = [
    pytest.param(head, id=" ".join(head[:3]))
    for head, role, needs in table_routes()
    if len([r for r in (role, *needs) if r not in DIMENSIONLESS]) > 1
]


@pytest.mark.parametrize("head", MIXED_ROUTES)
def test_an_input_of_another_dimension_exits_2_on_every_route(routes, role_inputs, head):
    """Every route runs with all its inputs of dimension 2, and with all of dimension 3; with
    any one input of dimension 3 among inputs of dimension 2, it exits 2 before anything is
    printed.  The routes come from the CLI's tables, so a new route is covered here."""
    slots = routes[head]
    for n in (2, 3):
        code, _, err = run_cli(*command(head, slots, role_inputs[n]))
        assert code == 0, (n, err)
    for i, (name, role) in enumerate(slots):
        if role not in DIMENSIONLESS:
            code, out, err = run_cli(*command(head, slots, role_inputs[2], {i: role_inputs[3][role]}))
            assert (code, out) == (2, ""), (name, err)
            assert err.startswith("error: ") and "Traceback" not in err


def test_shapes_independent_by_definition_are_accepted(role_inputs, tmp_path):
    """An O-operator maps a module of any dimension into the algebra (alg_dim x mod_dim), and
    a homomorphism joins algebras of two dimensions (target x source): these shapes run."""
    zero = [["0"] * 3 for _ in range(3)]
    wide = tmp_path / "wide_bimodule.json"
    wide.write_text(
        json.dumps({"alg_dim": 2, "mod_dim": 3, "left": [zero] * 2, "right": [zero] * 2, "beta": identity(3)})
    )
    t = tmp_path / "t.json"
    t.write_text(json.dumps({"T": identity(3)[:2]}))
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"T": [row[:2] for row in identity(3)]}))
    two, three = role_inputs[2], role_inputs[3]
    for head in (("check", "--kind", "o-operator"), ("induce", "--what", "o-operator", "--no-strict")):
        code, _, err = run_cli(*head, "--operator", str(t), "--bimodule", str(wide), two["mono"])
        assert code == 0, (head, err)
    # but only an operator between spaces of one dimension can be inverted
    refusal = "error: operator between spaces of different dimension is not invertible\n"
    for strict in ((), ("--no-strict",)):
        argv = ("induce", "--what", "invertible-o", *strict, "--operator", str(t), "--bimodule", str(wide))
        assert run_cli(*argv, two["mono"]) == (2, "", refusal)
    code, _, err = run_cli(
        "check", "--kind", "homomorphism", "--operator", str(f), "--target", three["target"], two["mono"]
    )
    assert code == 0, err


@pytest.fixture()
def split_o_inputs(a1_file, a1_sum_file, tmp_path):
    """The identity on the regular bimodule of d2.A1's sum, the split FILE d2.A1 and the FILE of its
    sum (same twist)."""
    bim = tmp_path / "bim.json"
    bim.write_text(json.dumps(bimodule_obj(regular_bimodule(load_algebra(a1_sum_file, None)))))
    ident = tmp_path / "id.json"
    ident.write_text('{"T": [["1", "0"], ["0", "1"]]}')
    return ("--operator", str(ident), "--bimodule", str(bim)), a1_file, a1_sum_file


@pytest.mark.parametrize("what", ["o-operator", "invertible-o"])
def test_o_operator_inductions_read_no_product_unless_strict(split_o_inputs, what):
    """Without the strict check, neither construction reads FILE's product: a split FILE gives what
    the FILE of its sum gives.  The strict check reads 'mul' and refuses the split FILE."""
    options, split, summed = split_o_inputs
    head = ("induce", "--what", what, *options, "--format", "structured")
    code, out, err = run_cli(*head, "--no-strict", split)
    assert code == 0, err
    assert (code, out) == run_cli(*head, "--no-strict", summed)[:2]
    assert_rejected(*run_cli(*head, split), "has no product 'mul'")


@pytest.mark.parametrize("kind", ["rota-baxter", "o-operator"])
def test_operator_check_reads_the_product_before_the_shape(split_o_inputs, tmp_path, kind):
    """On a split FILE an operator of the wrong shape is reported as the missing product, not the shape."""
    options, split, summed = split_o_inputs
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"T": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
    options = ("--operator", str(wide), *options[2:]) if kind == "o-operator" else ("--operator", str(wide))
    assert_rejected(*run_cli("check", "--kind", kind, *options, split), "has no product 'mul'")
    shape = "must map the module into the algebra" if kind == "o-operator" else "must act on the algebra"
    assert_rejected(*run_cli("check", "--kind", kind, *options, summed), shape)


def test_cocycle_splitting_raises_in_order():
    """DimensionMismatch before Singular before NotACocycle, each on a form that also has the later faults."""
    a = load_entry("d2.A1")
    with pytest.raises(DimensionMismatch):
        rhizaform_from_cocycle(a, ScalarForm(3, Matrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]])))
    singular = ScalarForm(2, Matrix.from_rows([[1, 1], [1, 1]]))
    assert not is_nondegenerate(singular) and scalar_cocycle_residuals(a, singular)
    with pytest.raises(Singular):
        rhizaform_from_cocycle(a, singular)
    identity = ScalarForm(2, Matrix.identity(2))
    assert scalar_cocycle_residuals(a, identity)
    with pytest.raises(NotACocycle):
        rhizaform_from_cocycle(a, identity)
    assert rhizaform_from_cocycle(a, identity, strict=False).kind == "rhizaform"
