"""The oracle against its parent route and against mutants of its evaluator.

``tests/parent_oracle.py`` keeps the oracle as it was before it owned its
evaluator (every product through ``eval_product``, every twist recomputed
inside the loops).  Both must give the same verdict on every input.  The
mutant tests show that criterion 01's comparison would notice a wrong
evaluator.
"""

import ast
import contextlib
import inspect
import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

import tests.test_acceptance as acceptance
from rhizalab import oracle
from rhizalab.algmodel import HomAlgebra, LinearMap, sum_product
from rhizalab.exactlin import Matrix
from rhizalab.operators import rhizaform_bimodule
from tests import parent_oracle
from tests.conftest import catalog_algebras, graded_split_algebra, random_map, random_split_algebra

F = Fraction
PUBLIC = (
    "rhizaform_identities",
    "rhizaform",
    "dendriform_identities",
    "dendriform",
    "anti_associative",
    "multiplicative",
    "jacobi_jordan",
    "pre_jacobi_jordan",
    "alpha_derivation",
    "two_nilpotent",
    "bimodule",
    "rota_baxter",
    "o_operator",
)
ETAS = (F(0), F(1), F(-1, 2), F(1024, 81))


def calls(a: HomAlgebra, maps: list[LinearMap]):
    """(function name, arguments) for every public oracle function on ``a``.

    ``maps`` serve as derivations, averaging operators and O-operators on the
    rhizaform bimodule; the identity is an O-operator there, the zero map is
    an averaging operator and a derivation, so both verdicts occur.
    """
    s = sum_product(a)
    m = rhizaform_bimodule(a)
    out = [(name, (a,)) for name in ("rhizaform_identities", "rhizaform", "dendriform_identities", "dendriform")]
    out.append(("two_nilpotent", (a,)))
    out += [(name, (s, a.alpha)) for name in ("anti_associative", "jacobi_jordan", "pre_jacobi_jordan")]
    out += [("multiplicative", (a.product(p), a.alpha)) for p in ("succ", "prec")]
    out.append(("bimodule", (s, a.alpha, m.left, m.right, m.beta)))
    for d in maps:
        out += [("alpha_derivation", (d, a, p)) for p in ("succ", "prec")]
        out.append(("rota_baxter", (d.matrix, s, a.alpha)))
        out.append(("o_operator", (d.matrix, s, a.alpha, m.left, m.right, m.beta)))
    return out


def standard_maps(rng: random.Random, n: int) -> list[LinearMap]:
    return [LinearMap(n, Matrix.zero(n, n)), LinearMap.identity(n), random_map(rng, n, identity_bias=0)]


def differential_inputs():
    """The catalog at every eta (an entry without eta once), then seeded algebras."""
    seen = set()
    for eta in ETAS:
        rng = random.Random(f"catalog-{eta}")
        for eid, a in catalog_algebras({"eta": eta}):
            key = (eid, tuple(a.products.items()), a.alpha)
            if key not in seen:
                seen.add(key)
                yield f"{eid}@eta={eta}", a, standard_maps(rng, a.dim)
    rng = random.Random(20261018)
    for trial in range(12):
        n = 2 + trial % 3
        yield f"random{trial}", random_split_algebra(rng, n), standard_maps(rng, n)
        yield f"graded{trial}", graded_split_algebra(rng, n), standard_maps(rng, n)


def test_oracle_matches_parent_route():
    """Every public function gives the parent's verdict on the catalog at four
    etas and on seeded random and graded algebras with n = 2-4."""
    public = {
        name
        for name, f in vars(oracle).items()
        if inspect.isfunction(f) and f.__module__ == oracle.__name__ and not name.startswith("_")
    }
    assert public == set(PUBLIC)
    mismatches, seen = [], {name: set() for name in PUBLIC}
    for label, a, maps in differential_inputs():
        for name, args in calls(a, maps):
            got = getattr(oracle, name)(*args)
            if got != getattr(parent_oracle, name)(*args):
                mismatches.append(f"{label}:{name}")
            seen[name].update(got.values() if isinstance(got, dict) else (got,))
    assert mismatches == []
    assert {name: verdicts for name, verdicts in seen.items() if verdicts != {True, False}} == {}


def transposed_table(op):
    """Mutant: c[j][i] read in place of c[i][j]."""
    n = op.dim
    return tuple(tuple(op.coeffs[j][i] for j in range(n)) for i in range(n))


def dropped_twist(m):
    """Mutant: every matrix's images are the basis vectors (the twist is dropped)."""
    return [tuple(F(int(r == i)) for r in range(m.rows)) for i in range(m.cols)]


@pytest.mark.parametrize("name, mutant", [("_table", transposed_table), ("_images", dropped_twist)])
def test_criterion_01_catches_evaluator_mutants(monkeypatch, name, mutant):
    """Criterion 01's comparison, run against a mutated oracle evaluator,
    reports mismatches on the catalog and the seeded random algebras."""
    monkeypatch.setattr(oracle, name, mutant)
    with pytest.raises(AssertionError) as failed, contextlib.redirect_stdout(io.StringIO()):
        acceptance.test_criterion_01_oracle_equivalence()
    assert failed.value.args and failed.value.args[0]


def test_oracle_imports_only_data_classes():
    """The second opinion shares no evaluator with the library: it imports the
    data classes and calls none of their arithmetic."""
    tree = ast.parse(inspect.getsource(oracle))
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    assert imported == {
        ("algmodel", "BilinearOp"),
        ("algmodel", "HomAlgebra"),
        ("algmodel", "LinearMap"),
        ("exactlin", "Matrix"),
    }
    called = {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert called & {"apply", "times", "column", "image_of_basis"} == set()


def test_only_the_oracle_routes_import_the_oracle():
    """No library computation goes through the Fraction evaluator: the only library modules that
    import ``rhizalab.oracle`` are the two ``--oracle`` routes, the CLI and the catalog."""
    package = Path(inspect.getfile(oracle)).parent
    importers = set()
    for path in package.rglob("*.py"):
        here = path.parent.relative_to(package.parent).parts  # the package the module imports from
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                parts = list(here[: len(here) + 1 - node.level]) if node.level else []
                base = ".".join(parts + [node.module] if node.module else parts)
                targets = {base, *(f"{base}.{alias.name}" for alias in node.names)}
            else:
                continue
            if "rhizalab.oracle" in targets:
                importers.add(path.relative_to(package).as_posix())
    assert importers == {"cli.py", "catalog/__init__.py"}
