"""Work counts of the integer routes: how often a call inverts, clears or builds a Fraction product.

Each test counts the calls of a library function with ``conftest.count_calls``, which wraps it in
every loaded ``rhizalab`` module that binds it.  Times on a shared host drift; these counts repeat
exactly.

* ``rhizaform_from_cocycle`` inverts B^T once and hands B^T itself on as
  T^-1.
* Every route that clears (``CLEARING_ROUTES``) clears once, by its one
  ``_integers`` call from ``axioms._twisted``: ``check_rota_baxter``,
  ``check_o_operator``, ``check_homomorphism`` and ``check_rb_family``
  clear every structure they read, equivariance included (it fails on
  their inputs), for any semigroup size; the averaging, O-operator,
  invertible O-operator and family inductions and the cocycle splitting,
  strict or not, because the strict check reads the clearing the splitting
  reads, without calling the public check.  ``tensor_collapse`` reads the
  stored integer table and clears nothing.
* The strict cyclic-form solvers read the working product of a split
  algebra as the sum of its products' integer tables, without building the
  ``Fraction`` sum (``algmodel._combination``), and read the
  anti-associativity test and every row off one clearing: they clear once,
  as the plain solvers do.
* A catalog report clears its entry once, with or without the oracle.
* The twisted columns are built only where they are read: one
  ``_left_columns`` per basis vector for the checks that read only
  alpha(x) o -, none for the plain solvers.
* The anti-associativity test of a sum of products stops at the first
  failing triple: it builds one ``Violation``, which the strict cyclic-form
  solvers and ``catalog verify --oracle`` rely on.
* The cyclic-form solvers build one cyclic row per rotation orbit,
  (n^3 + 2n)/3 rows, once per solve, and stay over int from the kernel to
  the form: they call ``exactlin._cleared`` for nothing.
* ``Subspace.full`` builds the identity's rows, already canonical, with no
  elimination.
* Elimination back-substitutes only where reduced rows are read: ``rank``,
  ``is_nondegenerate``, the catalog's cyclic-form dimension
  (``_vector_cocycle_dim``), ``Subspace.contains`` and the series witness
  (``_difference_witness``) read the forward pass alone (the dimension
  back-substitutes once, for the scalar kernel whose basis it reads), and a
  kernel with a pivot in every column, as the dense n = 5 scalar cyclic
  system has, is empty without one.
* One nilpotency analysis builds each product of subspace rows once, shared
  by its three series and the one-product reducts.
* The degree-3 residual writer makes no call for a term whose table cell is
  empty.
* ``catalog.verify_all`` lists the catalog once with ``entry_ids`` and reads
  each selected entry once with ``load_catalog_entry``, with or without the
  oracle.
* A reader resolves each distinct coefficient text once per document
  (``exactlin.rational`` is called at most once per text, and on nothing
  but texts: a ``Matrix`` keeps the ``Fraction``s it is given): a dense
  n = 6 algebra file with entries in {-1, 0, 1}, and a family file whose
  sections, twist map and ``params`` share their texts.
* A product is stored in integer form, and its dense ``Fraction`` tensor
  (``BilinearOp.coeffs``) is built only for ``BilinearOp.entry``: the
  catalog, the split check, the oracle (which reads the nonzero structure
  constants), the cyclic-form solvers, the averaging and cocycle splittings
  and the product bimodules, from file to printed output, read it for no
  product.
"""

import contextlib
import functools
import io
import json
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from rhizalab import algmodel, axioms, catalog, cocycles, exactlin, files, nilpotency
from rhizalab.algmodel import BilinearOp, HomAlgebra, _matrix_obj, serialize_algebra
from rhizalab.axioms import check_jacobi_jordan, check_multiplicativity, inner_derivation
from rhizalab.catalog import load_entry, verify_all, verify_entry
from rhizalab.cocycles import (
    rhizaform_from_cocycle,
    scalar_cocycle_space,
    vector_cocycle_residuals,
    vector_cocycle_space,
)
from rhizalab.family import RBFamily, Semigroup, check_rb_family, induced_family_rhizaform, tensor_collapse
from rhizalab.nilpotency import Subspace
from rhizalab.operators import (
    LinearOperator,
    check_bimodule,
    check_homomorphism,
    check_o_operator,
    check_rota_baxter,
    compatible_from_invertible_o_operator,
    induced_rhizaform_from_o_operator,
    induced_rhizaform_from_rb,
    regular_bimodule,
    rhizaform_bimodule,
)
from rhizalab.cli import main
from tests.conftest import block_sum, count_calls, nondegenerate_in_span, skew_4dim, sum_mono
from tests.test_cocycles import _dense_twist, _singular_twist, _sparse_tensor

F = Fraction
ETA = {"eta": F(1)}


@functools.cache
def _split_skew():
    """A split algebra (succ the skew 4-dimensional product, prec zero) and a nondegenerate form in
    its scalar cocycle space.  Both are frozen, so one search serves every test."""
    mono = skew_4dim()
    a = HomAlgebra.rhizaform(mono.mul, BilinearOp.zero(4), mono.alpha)
    return a, nondegenerate_in_span(scalar_cocycle_space(a), 4)


@pytest.mark.parametrize("strict", [True, False])
def test_cocycle_splitting_inverts_once(monkeypatch, strict):
    a, b = _split_skew()
    expected = rhizaform_from_cocycle(a, b, strict=strict)
    calls = count_calls(monkeypatch, "exactlin.invert")
    assert rhizaform_from_cocycle(a, b, strict=strict) == expected
    assert len(calls) == 1


def _sum_d3_a7():
    """A mono algebra whose twist is not the identity, so equivariance can fail."""
    return sum_mono(load_entry("d3.A7", ETA))


R = LinearOperator.from_rows([[F(1, 2), 0, 0], [1, 3, 0], [0, 1, 1]])


def _route_inputs() -> SimpleNamespace:
    """The sum of d3.A7 (twist not the identity) and d3.A7 itself, the sum of d2.A1 with a map into the
    former, the operator R and a Z/3 family with R at index 1, which fail, and operators that pass: an
    averaging operator r (r(e1) = e4) of the skew algebra, alone, on its regular bimodule and at both
    indices of a Z/2 family, and the identity, an invertible O-operator of the split products' bimodule
    over their sum."""
    split, small = load_entry("d3.A7", ETA), load_entry("d2.A1", ETA)
    cocycle, b = _split_skew()
    r = LinearOperator.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    return SimpleNamespace(
        split=split,
        s=_sum_d3_a7(),
        summed=sum_mono(split),
        skew=skew_4dim(),
        small=sum_mono(small),
        into=LinearOperator.from_rows([[1, 0], [0, F(1, 2)], [0, 0]]),
        w=vector_cocycle_space(split)[0],
        cocycle=cocycle,
        b=b,
        r=r,
        family=RBFamily(Semigroup.cyclic(3), {0: LinearOperator.identity(3), 1: R, 2: LinearOperator.zero(3, 3)}),
        skew_family=RBFamily(Semigroup.cyclic(2), {0: r, 1: r}),
    )


CLEARING_ROUTES = {
    "check_bimodule": lambda x: check_bimodule(x.s, rhizaform_bimodule(x.split)),
    "check_homomorphism": lambda x: check_homomorphism(R, x.s, x.s),
    "check_homomorphism between dimensions": lambda x: check_homomorphism(x.into, x.small, x.s),
    "inner_derivation star": lambda x: inner_derivation((F(1, 2), 0, -1), x.split, "star"),
    "inner_derivation mixed": lambda x: inner_derivation((F(1, 2), 0, -1), x.split, "mixed"),
    "vector_cocycle_residuals": lambda x: vector_cocycle_residuals(x.split, x.w),
    "tensor_collapse": lambda x: tensor_collapse(x.s, x.family),
    "check_rota_baxter": lambda x: check_rota_baxter(R, x.s),
    "check_o_operator": lambda x: check_o_operator(R, x.s, regular_bimodule(x.s)),
    "check_rb_family": lambda x: check_rb_family(x.family, x.s),
    "rhizaform_from_cocycle": lambda x: rhizaform_from_cocycle(x.cocycle, x.b),
    "rhizaform_from_cocycle strict=False": lambda x: rhizaform_from_cocycle(x.cocycle, x.b, strict=False),
    "verify_entry": lambda x: verify_entry("d3.A4", ETA),
}
INDUCTIONS = {
    "induced_rhizaform_from_rb": lambda x, strict: induced_rhizaform_from_rb(x.r, x.skew, strict=strict),
    "induced_rhizaform_from_o_operator": lambda x, strict: induced_rhizaform_from_o_operator(
        x.r, x.skew, regular_bimodule(x.skew), strict=strict
    ),
    "compatible_from_invertible_o_operator": lambda x, strict: compatible_from_invertible_o_operator(
        LinearOperator.identity(3), x.summed, rhizaform_bimodule(x.split), strict=strict
    ),
    "induced_family_rhizaform": lambda x, strict: induced_family_rhizaform(x.skew_family, x.skew, strict=strict),
}
for _name, _induce in INDUCTIONS.items():
    for _strict in (True, False):
        CLEARING_ROUTES[f"{_name} strict={_strict}"] = lambda x, induce=_induce, strict=_strict: induce(x, strict)


@pytest.mark.parametrize("route", CLEARING_ROUTES)
def test_every_clearing_is_made_by_the_view(monkeypatch, route):
    x = _route_inputs()
    expected = CLEARING_ROUTES[route](x)
    if route in ("check_rota_baxter", "check_o_operator", "check_homomorphism"):
        assert expected.failed_ids()[0] == "equivariance"  # so the twist is cleared with the rest
    if route == "check_rb_family":
        assert [v.basis_tuple[0] for v in expected.violations if v.identity_id == "equivariance"][0] == 1
    calls = count_calls(monkeypatch, "algmodel._integers")
    assert CLEARING_ROUTES[route](x) == expected
    assert calls == ([] if route == "tensor_collapse" else ["_twisted"])


def test_full_subspace_runs_no_elimination(monkeypatch):
    expected = [Subspace.full(n) for n in range(5)]
    calls = count_calls(monkeypatch, "exactlin._echelon")
    assert [Subspace.full(n) for n in range(5)] == expected
    assert calls == []


def test_rank_readers_run_no_back_substitution(monkeypatch):
    rng = random.Random("dense-n5")
    dense = HomAlgebra.rhizaform(_sparse_tensor(rng, 5, 0.5), _sparse_tensor(rng, 5, 0.5), _dense_twist(rng, 5))
    view = axioms._view(dense)
    assert exactlin.rank(exactlin.Matrix.from_rows(cocycles._cyclic_rows(view)[0].values())) == 25
    a, b = _split_skew()
    m = exactlin.Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, F(1, 2)]])
    x = Subspace.from_vectors(3, [[1, 2, 3], [0, 1, 1]])
    y = Subspace.from_vectors(3, [[1, 2, 3], [0, 0, 1]])
    z = Subspace.from_vectors(3, [[1, 3, 4]])
    reads = {
        "scalar_cocycle_space": lambda: scalar_cocycle_space(dense),
        "rank": lambda: exactlin.rank(m),
        "is_nondegenerate": lambda: cocycles.is_nondegenerate(b),
        "_vector_cocycle_dim": lambda: cocycles._vector_cocycle_dim(axioms._view(a)),
        "contains": lambda: (x.contains(y), y.contains(Subspace.zero(3)), x.contains(z)),
        "_difference_witness": lambda: nilpotency._difference_witness(x, y),
    }
    expected = {name: read() for name, read in reads.items()}
    assert expected["scalar_cocycle_space"] == [] and expected["rank"] == 2 and expected["is_nondegenerate"]
    assert expected["contains"] == (False, True, True)
    forward = count_calls(monkeypatch, "exactlin._forward")
    back = count_calls(monkeypatch, "exactlin._back_substitute")
    for name, read in reads.items():
        forward.clear()
        back.clear()
        assert read() == expected[name], name
        assert forward, name
        # the cyclic-form dimension reads the basis of the scalar kernel, and only the rank after it
        assert back == (["_kernel"] if name == "_vector_cocycle_dim" else []), name


def test_cyclic_pass_stops_at_n_times_the_twist_rank(monkeypatch):
    """Every cyclic row lies in R^n (x) im(alpha).  On a dense n = 5 algebra with a rank-4 twist the
    cyclic system, 45 distinct rows in 25 columns, has rank 20, and a scalar solve stops its forward
    pass once it has 20 pivots: every row that pass reduces becomes a pivot row, each reduced by at
    most the pivots before it (at most 0 + 1 + ... + 19 = 190 eliminations).  Reading on, the other
    25 rows would each be reduced to zero (612 eliminations in all)."""
    rng = random.Random("dense-n5-rank4")
    a = HomAlgebra.rhizaform(_sparse_tensor(rng, 5, 0.5), _sparse_tensor(rng, 5, 0.5), _singular_twist(rng, 5))
    rows = list(cocycles._cyclic_rows(axioms._view(a))[0].values())
    assert (exactlin.rank(a.alpha.matrix), len(set(map(tuple, rows))), len(exactlin._forward(rows))) == (4, 45, 20)
    expected = scalar_cocycle_space(a)
    real, reduced = exactlin._eliminate, []  # per reduction step of the cyclic forward pass: is the row nonzero

    def eliminate(r, prow, c, f):
        out = real(r, prow, c, f)
        if len(r) == 25 and sys._getframe(1).f_code.co_name == "_forward":
            reduced.append(any(out))
        return out

    monkeypatch.setattr(exactlin, "_eliminate", eliminate)
    assert scalar_cocycle_space(a) == expected
    assert reduced and all(reduced)
    assert len(reduced) <= 190


@pytest.mark.parametrize("solve", [scalar_cocycle_space, vector_cocycle_space])
def test_strict_solvers_build_no_fraction_sum(monkeypatch, solve):
    a = load_entry("d2.A7", {"eta": F(1)})  # split, and its sum is anti-associative
    expected = solve(a, strict=True)
    assert expected
    calls = count_calls(monkeypatch, "algmodel._combination")
    assert solve(a, strict=True) == expected
    assert calls == []


@pytest.mark.parametrize("entry", ["d3.A16", "d2.A7"])
@pytest.mark.parametrize("solve, clearings", [(scalar_cocycle_space, 1), (vector_cocycle_space, 1)])
def test_strict_solvers_clear_as_often_as_plain_ones(monkeypatch, entry, solve, clearings):
    a = load_entry(entry, {"eta": F(1)})
    expected = {strict: solve(a, strict=strict) for strict in (True, False)}
    assert expected[True] == expected[False]
    calls = count_calls(monkeypatch, "algmodel._integers")
    for strict in (True, False):
        calls.clear()
        assert solve(a, strict=strict) == expected[strict]
        assert len(calls) == clearings, strict


@pytest.mark.parametrize("solve", [scalar_cocycle_space, vector_cocycle_space])
def test_solvers_build_one_cyclic_row_per_orbit_and_clear_nothing(monkeypatch, solve):
    rng = random.Random("dense-n4")  # the n = 4 algebras of test_vector_solver_builds_no_system_beyond_n_cubed
    dense = HomAlgebra.rhizaform(_sparse_tensor(rng, 4, 0.5), _sparse_tensor(rng, 4, 0.5), _dense_twist(rng, 4))
    algebras = [dense, block_sum(sum_mono(load_entry("d2.A1")), sum_mono(load_entry("d2.A7")))]
    expected = [solve(a) for a in algebras]
    clearings = count_calls(monkeypatch, "exactlin._cleared")
    built = []
    real = cocycles._cyclic_rows

    def recording(*args, **kwargs):
        rows, scale = real(*args, **kwargs)
        built.append(len(rows))
        return rows, scale

    monkeypatch.setattr(cocycles, "_cyclic_rows", recording)
    assert [solve(a) for a in algebras] == expected
    assert clearings == []
    assert built == [(4**3 + 2 * 4) // 3] * len(algebras)


@pytest.mark.parametrize("with_oracle", [False, True])
def test_catalog_reports_clear_each_entry_once(monkeypatch, with_oracle):
    ids = ["d2.A1", "d2.A7", "d3.A4", "d3.A16"]
    expected = verify_all(ETA, ids=ids, with_oracle=with_oracle)
    calls = count_calls(monkeypatch, "algmodel._integers")
    assert verify_all(ETA, ids=ids, with_oracle=with_oracle) == expected
    assert len(calls) == len(ids)
    calls.clear()
    assert verify_entry("d3.A4", ETA) == expected.reports[2]
    assert len(calls) == 1


@pytest.mark.parametrize("with_oracle", [False, True])
def test_catalog_verify_reads_entries_through_the_public_loaders(monkeypatch, with_oracle):
    selected = [eid for eid in catalog.entry_ids() if eid.startswith("d3.")]
    expected = verify_all(ETA, dim=3, with_oracle=with_oracle)
    listings = count_calls(monkeypatch, "catalog.entry_ids")
    loads = count_calls(monkeypatch, "catalog.load_catalog_entry", key=lambda entry_id: entry_id)
    clearings = count_calls(monkeypatch, "algmodel._integers")
    assert verify_all(ETA, dim=3, with_oracle=with_oracle) == expected
    assert len(listings) == 1
    assert loads == selected
    assert len(clearings) == len(selected)


def test_one_analysis_builds_each_subspace_product_once(monkeypatch):
    """Over the 23 entries at eta = 1, the right, left and full series and the one-product reducts
    of one analysis share their product rows and spans: at most 1144 subspace-row products, against
    2194 when each series and reduct builds its own, and no more eliminations (271).  Every
    elimination starts with the forward pass, which the containment tests and the series witness
    run alone, so the forward passes are counted."""
    algebras = [load_entry(eid, ETA) for eid in catalog.entry_ids()]
    expected = [nilpotency.analyze(a) for a in algebras]
    products = count_calls(monkeypatch, "algmodel._product_into")
    eliminations = count_calls(monkeypatch, "exactlin._forward")
    assert [nilpotency.analyze(a) for a in algebras] == expected
    assert len(algebras) == 23
    assert len(products) <= 1144
    assert len(eliminations) <= 271


def test_residual_writer_skips_empty_cells(monkeypatch):
    """A term of the degree-3 writer whose table cell is empty adds nothing and makes no call: the
    split check of d3.A16 applies 108 twisted columns, against 198 with one call per term."""
    a = load_entry("d3.A16", ETA)
    expected = axioms.check_rhizaform(a)
    calls = count_calls(monkeypatch, "algmodel._apply_into")
    assert axioms.check_rhizaform(a) == expected
    assert len(calls) == 108


@pytest.mark.parametrize("check", [check_jacobi_jordan, check_multiplicativity])
def test_single_sided_checks_build_only_the_left_columns(monkeypatch, check):
    s = _sum_d3_a7()
    expected = check(s.mul, s.alpha)
    calls = count_calls(monkeypatch, "algmodel._left_columns")
    assert check(s.mul, s.alpha) == expected
    assert len(calls) == s.dim


@pytest.mark.parametrize("solve", [scalar_cocycle_space, vector_cocycle_space])
def test_plain_solvers_build_no_twisted_columns(monkeypatch, solve):
    a = load_entry("d3.A16", ETA)
    expected = solve(a)
    calls = count_calls(monkeypatch, "algmodel._left_columns")
    assert solve(a) == expected
    assert calls == []


def test_sum_anti_associative_stops_at_the_first_failing_triple(monkeypatch):
    # e_i e_j = e_1 and alpha = id: every triple fails, (e_1 e_1) e_1 + e_1 (e_1 e_1) = 2 e_1 first
    mul = BilinearOp.from_entries(2, [(i, j, 0, F(1)) for i in range(2) for j in range(2)])
    a = HomAlgebra.mono(mul, algmodel.LinearMap.identity(2))
    assert len(axioms.check_hom_anti_associative(a.mul, a.alpha).violations) == 8
    calls = count_calls(monkeypatch, "axioms.Violation")
    assert axioms._sum_anti_associative(axioms._view(a)) is False
    assert len(calls) == 1


def _dense_mono_text(n: int) -> str:
    """A mono algebra file listing all n^3 structure constants, each "-1", "0" or "1"."""
    rng = random.Random(n)
    basis = range(1, n + 1)
    entries = [[i, j, k, rng.choice(["-1", "0", "1"])] for i in basis for j in basis for k in basis]
    alpha = [["1" if r == c else "0" for c in range(n)] for r in range(n)]
    return json.dumps({"dim": n, "kind": "mono", "alpha": alpha, "mul": entries})


def _family_text() -> str:
    """A family over Z/3 whose six sections, twist map and params share the texts "1/2", "-1", "1" and "eta"."""
    cells = ["1/2", "-1", "1", "eta", "-eta", "1/2"]
    sections = {str(lam): [[1 + lam, 2, 1 + (e + lam) % 2, co] for e, co in enumerate(cells)] for lam in range(3)}
    doc = {
        "dim": 3,
        "omega": {"size": 3, "table": [[(a + b) % 3 for b in range(3)] for a in range(3)]},
        "alpha": [["1", "0", "0"], ["0", "-1", "1/2"], ["0", "0", "eta"]],
        "params": {"eta": "1/2"},
    }
    return json.dumps({**doc, "succ": sections, "prec": sections})


READS = {
    "algebra": (lambda path: files.load_algebra(path, {}), _dense_mono_text(6), {"-1", "0", "1"}),
    "family": (lambda path: files.read_family(files.load_json(path), {}), _family_text(), {"1/2", "-1", "1", "0"}),
}


@pytest.mark.parametrize("role", READS)
def test_readers_resolve_each_text_once_per_document(monkeypatch, tmp_path, role):
    read, text, literals = READS[role]
    path = tmp_path / "doc.json"
    path.write_text(text)
    expected = read(str(path))
    calls = count_calls(monkeypatch, "exactlin.rational", key=lambda token: token)
    for _ in range(2):  # nothing is kept between documents: a second read resolves its texts again
        calls.clear()
        assert read(str(path)) == expected
        assert all(isinstance(t, str) for t in calls), [t for t in calls if not isinstance(t, str)]
        assert sorted(calls) == sorted(literals)


def count_dense_reads(monkeypatch) -> list:
    """Record every read of ``BilinearOp.coeffs``, the dense Fraction tensor, on any product."""
    build = BilinearOp.__dict__["coeffs"].func
    reads = []

    def coeffs(op):
        reads.append(type(op).__name__)
        return build(op)

    monkeypatch.setattr(BilinearOp, "coeffs", property(coeffs))
    return reads


def _route_files(tmp_path) -> dict:
    """An entry of the catalog, the skew 4-dimensional algebra with an averaging operator that is not
    zero (R(e1) = e4), and a split algebra with a nondegenerate form in its scalar cocycle space."""
    split, b = _split_skew()
    docs = {
        "A": serialize_algebra(load_entry("d3.A7", ETA)),
        "S": serialize_algebra(skew_4dim()),
        "R": '{"R": [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"], ["1", "0", "0", "0"]]}',
        "SPLIT": serialize_algebra(split),
        "B": json.dumps({"B": _matrix_obj(b.matrix)}),
    }
    for name, text in docs.items():
        (tmp_path / f"{name}.json").write_text(text)
    return {f"{{{name}}}": str(tmp_path / f"{name}.json") for name in docs}


ROUTES = [
    ("catalog", "verify", "--param", "eta=1"),
    ("check", "--kind", "rhizaform", "{A}"),
    ("check", "--oracle", "--kind", "rhizaform", "{A}"),
    ("catalog", "verify", "--oracle", "--param", "eta=1"),
    ("cocycles", "--scalar", "{S}"),
    ("cocycles", "--vector", "{A}"),
    ("induce", "--what", "rb", "--operator", "{R}", "{S}"),
    ("induce", "--what", "cocycle", "--form", "{B}", "{SPLIT}"),
    ("induce", "--what", "regular-bimodule", "{S}"),
    ("induce", "--what", "rhizaform-bimodule", "{A}"),
]


@pytest.mark.parametrize("fmt", ["table", "structured"])
@pytest.mark.parametrize("route", ROUTES, ids=lambda r: " ".join(r[:3]))
def test_integer_routes_build_no_dense_tensor(monkeypatch, tmp_path, route, fmt):
    paths = _route_files(tmp_path)
    argv = [paths.get(arg, arg) for arg in route] + ["--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        expected = main(argv), out.getvalue()
    reads = count_dense_reads(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert (main(argv), out.getvalue()) == expected
    assert expected[0] == 0 and reads == []


def test_the_counter_sees_dense_reads(monkeypatch):
    """The counter sees reads: ``BilinearOp.entry`` reads the Fraction tensor."""
    a = load_entry("d3.A7", ETA)
    reads = count_dense_reads(monkeypatch)
    assert a.succ.entry(0, 0) == tuple(a.succ.coeffs[0][0])
    assert set(reads) == {"BilinearOp"}
