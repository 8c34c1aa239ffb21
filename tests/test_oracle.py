"""The oracle against the ``Fraction`` reference checkers and against mutants of its evaluator.

Every public oracle function must give the verdict of the matching report of
``tests/fraction_checkers.py`` (``REFERENCE``) on every input, also on inputs
whose coefficients cancel exactly and on near misses of the catalog.  The
mutant tests show that criterion 01's comparison, or the near misses, would
notice a wrong evaluator.
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
from rhizalab.algmodel import BilinearOp, HomAlgebra, LinearMap, sum_product
from rhizalab.axioms import check_rhizaform
from rhizalab.exactlin import Matrix, invert
from rhizalab.operators import Bimodule, rhizaform_bimodule
from tests import fraction_checkers as ref
from tests.conftest import (
    catalog_algebras,
    graded_split_algebra,
    random_map,
    random_split_algebra,
    sparse_edge_algebras,
)
from tests.fraction_checkers import apply, eval_product, times

F = Fraction


def _identities(report, ids) -> dict[str, bool]:
    failed = {v.identity_id for v in report.violations}
    return {ident: ident not in failed for ident in (*ids, "mult_succ", "mult_prec")}


def _module(mul, left, right, beta) -> Bimodule:
    return Bimodule(mul.dim, beta.dim, left, right, beta)


# each public oracle function, on its raw arguments, as the verdict of the matching reference report
REFERENCE = {
    "rhizaform_identities": lambda a: _identities(ref.rhizaform(a), ("req1", "req2", "req3")),
    "rhizaform": lambda a: ref.rhizaform(a).passed,
    "dendriform_identities": lambda a: _identities(ref.dendriform(a), ("den1", "den2", "den3")),
    "dendriform": lambda a: ref.dendriform(a).passed,
    "anti_associative": lambda mul, alpha: ref.hom_anti_associative(mul, alpha).passed,
    "multiplicative": lambda op, alpha: ref.multiplicativity(op, alpha).passed,
    "jacobi_jordan": lambda mul, alpha: ref.jacobi_jordan(mul, alpha).passed,
    "pre_jacobi_jordan": lambda mul, alpha: ref.pre_jacobi_jordan(mul, alpha).passed,
    "alpha_derivation": lambda d, a, name: ref.alpha_derivation(d, a, name).passed,
    "two_nilpotent": lambda a: ref.two_nilpotent(a).passed,
    "bimodule": lambda mul, alpha, left, right, beta: ref.bimodule(
        HomAlgebra.mono(mul, alpha), _module(mul, left, right, beta)
    ).passed,
    "rota_baxter": lambda r, mul, alpha: ref.rota_baxter(r, HomAlgebra.mono(mul, alpha)).passed,
    "o_operator": lambda t, mul, alpha, left, right, beta: ref.o_operator(
        t, HomAlgebra.mono(mul, alpha), _module(mul, left, right, beta)
    ).passed,
}
ETAS = (F(0), F(1), F(-1, 2), F(1024, 81))


def calls(a: HomAlgebra, maps: list[Matrix]):
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
        out.append(("rota_baxter", (d, s, a.alpha)))
        out.append(("o_operator", (d, s, a.alpha, m.left, m.right, m.beta)))
    return out


def standard_maps(rng: random.Random, n: int) -> list[Matrix]:
    return [Matrix.zero(n, n), Matrix.identity(n), random_map(rng, n, identity_bias=0).matrix]


def differential_inputs():
    """The catalog at every eta (an entry without eta once), seeded algebras, then the sparse edge
    cases."""
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
    rng = random.Random("sparse-edge")
    for label, a in sparse_edge_algebras():
        yield label, a, standard_maps(rng, a.dim)


def test_oracle_matches_fraction_reference():
    """Every public function gives the reference report's verdict on the catalog at four
    etas and on seeded random and graded algebras with n = 2-4."""
    public = {
        name
        for name, f in vars(oracle).items()
        if inspect.isfunction(f) and f.__module__ == oracle.__name__ and not name.startswith("_")
    }
    assert public == set(REFERENCE)
    mismatches, seen = [], {name: set() for name in REFERENCE}
    for label, a, maps in differential_inputs():
        for name, args in calls(a, maps):
            got = getattr(oracle, name)(*args)
            if got != REFERENCE[name](*args):
                mismatches.append(f"{label}:{name}")
            seen[name].update(got.values() if isinstance(got, dict) else (got,))
    assert mismatches == []
    assert {name: verdicts for name, verdicts in seen.items() if verdicts != {True, False}} == {}


# fractions over 2, 3, 5 and 7; each is paired with m - c (m = -1, 0, 1), so the pair sums to an integer
CANCELLING = (F(1, 2), F(-1, 3), F(2, 3), F(1, 5), F(-3, 5), F(1, 7), F(4, 7))


def cancelling_split_algebra(rng: random.Random, n: int) -> HomAlgebra:
    """succ and prec whose coefficients cancel in their sum: eta against -eta, or c against m - c
    for a fraction c from ``CANCELLING``; the twist's columns pair such fractions too."""
    eta = rng.choice(ETAS[1:])

    def pair():
        r = rng.random()
        if r < 0.45:
            return 0, 0
        if r < 0.65:
            return eta, -eta
        if r < 0.9:
            c = rng.choice(CANCELLING)
            return c, rng.choice((-1, 0, 1)) - c
        return rng.choice(((1, 0), (0, -1)))

    cells = [[[pair() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    succ, prec = (
        BilinearOp(n, [[[cell[side] for cell in row] for row in grid] for grid in cells]) for side in (0, 1)
    )
    if rng.random() < 0.3:
        return HomAlgebra.rhizaform(succ, prec, LinearMap.identity(n))
    rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    i, j = rng.sample(range(n), 2)
    c = rng.choice(CANCELLING)
    rows[i][j], rows[j][j] = c, 1 - c
    return HomAlgebra.rhizaform(succ, prec, LinearMap.from_rows(rows))


def transported(rng: random.Random, a: HomAlgebra) -> HomAlgebra:
    """``a`` in the basis of the columns of P = U L, for unit triangular U and L^T with entries from
    ``CANCELLING``: isomorphic to ``a``, so every verdict is ``a``'s, while the fractions of its
    structure constants cancel exactly in the products of its basis vectors."""
    n = a.dim

    def unit_upper():
        rows = [[F(int(i == j)) if i >= j else rng.choice(CANCELLING) for j in range(n)] for i in range(n)]
        return Matrix.from_rows(rows)

    u, v = unit_upper(), unit_upper()
    p = times(u, Matrix.from_rows([v.entries[j::n] for j in range(n)]))
    q = invert(p)
    basis = [p.entries[j::n] for j in range(n)]

    def moved(op):
        return BilinearOp(n, [[list(apply(q, eval_product(op, x, y))) for y in basis] for x in basis])

    alpha = LinearMap(n, times(q, times(a.alpha.matrix, p)))
    return HomAlgebra.rhizaform(moved(a.succ), moved(a.prec), alpha)


def perturbed(rng: random.Random, a: HomAlgebra) -> HomAlgebra:
    """``a`` with one structure constant of succ or prec, or one twist entry, moved by a small
    fraction or by eta, or set to zero."""
    n = a.dim
    grids = {name: [[list(cell) for cell in row] for row in a.product(name).coeffs] for name in a.products}
    rows = [list(a.alpha.matrix.entries[r * n : (r + 1) * n]) for r in range(n)]
    i, j, k = (rng.randrange(n) for _ in range(3))
    target = rows[i] if rng.random() < 0.2 else grids[rng.choice(("succ", "prec"))][i][j]
    move = rng.choice((*CANCELLING, *ETAS[1:], None))
    target[k] = F(0) if move is None else target[k] + move
    return HomAlgebra.rhizaform(
        BilinearOp(n, grids["succ"]), BilinearOp(n, grids["prec"]), LinearMap.from_rows(rows)
    )


def near_miss_inputs():
    """Seeded algebras whose sums cancel exactly; then each catalog entry (at each eta, an entry
    without eta once) that passes the rhizaform check, in its own basis and transported, with a
    one-coefficient perturbation of each."""
    rng = random.Random(2026101921)
    for trial in range(16):
        n = 2 + trial % 2
        yield f"cancelling{trial}", cancelling_split_algebra(rng, n), standard_maps(rng, n)
    seen = set()
    for eta in ETAS:
        for eid, a in catalog_algebras({"eta": eta}):
            key = (eid, tuple(a.products.items()), a.alpha)
            if key not in seen and check_rhizaform(a).passed:
                seen.add(key)
                for label, b in ((f"{eid}@eta={eta}", a), (f"{eid}@eta={eta}/P", transported(rng, a))):
                    yield label, b, standard_maps(rng, a.dim)
                    yield f"{label}~", perturbed(rng, b), standard_maps(rng, a.dim)


def test_oracle_matches_fraction_reference_on_cancellations_and_near_misses():
    """All 13 public functions give the reference's verdict where coefficients cancel exactly, so a
    zero left in a vector or a wrong int/Fraction mix would show, and on near misses of the
    catalog; each function gives both verdicts."""
    mismatches, seen = [], {name: set() for name in REFERENCE}
    for label, a, maps in near_miss_inputs():
        for name, args in calls(a, maps):
            got = getattr(oracle, name)(*args)
            if got != REFERENCE[name](*args):
                mismatches.append(f"{label}:{name}")
            seen[name].update(got.values() if isinstance(got, dict) else (got,))
    assert mismatches == []
    assert {name: verdicts for name, verdicts in seen.items() if verdicts != {True, False}} == {}


REAL_TABLE = oracle._table


def transposed_table(op):
    """Mutant: c[j][i] read in place of c[i][j]."""
    return [list(column) for column in zip(*REAL_TABLE(op))]


def dropped_twist(m):
    """Mutant: every matrix's images are the basis vectors (the twist is dropped)."""
    return [{i: 1} for i in range(m.cols)]


def kept_zeros(c, x, y):
    """Mutant: x o y holds every coordinate, zeros included (a dense vector as a dict)."""
    out = dict.fromkeys(range(len(c[0])), 0)
    for i, xi in x.items():
        for j, yj in y.items():
            for k, ck in c[i][j].items():
                out[k] += xi * yj * ck
    return out


def kept_cancelled_zeros(c, x, y):
    """Mutant: x o y keeps the coordinates whose sum cancelled to zero."""
    out = {}
    for i, xi in x.items():
        for j, yj in y.items():
            for k, ck in c[i][j].items():
                out[k] = out.get(k, 0) + xi * yj * ck
    return out


def dropped_denominator(v):
    """Mutant: every structure constant and matrix entry read as its numerator."""
    return v.numerator


def kept_sign(x):
    """Mutant: -x computed as x."""
    return x


@pytest.mark.parametrize(
    "name, mutant",
    [
        ("_table", transposed_table),
        ("_images", dropped_twist),
        ("_product", kept_zeros),
        ("_product", kept_cancelled_zeros),
        ("_exact", dropped_denominator),
        ("_neg", kept_sign),
    ],
)
def test_criterion_01_catches_evaluator_mutants(monkeypatch, name, mutant):
    """Criterion 01's comparison, run against a mutated oracle evaluator,
    reports mismatches on the catalog and the seeded random algebras."""
    monkeypatch.setattr(oracle, name, mutant)
    with pytest.raises(AssertionError) as failed, contextlib.redirect_stdout(io.StringIO()):
        acceptance.test_criterion_01_oracle_equivalence()
    assert failed.value.args and failed.value.args[0]


def test_near_misses_catch_a_product_that_keeps_cancelled_zeros(monkeypatch):
    """The near misses see a ``_product`` that keeps the zeros its sums cancel to: the transported
    entries have many identities that hold while a product cancels (criterion 01 has one such input,
    ``cancelling_split_algebra``)."""
    monkeypatch.setattr(oracle, "_product", kept_cancelled_zeros)
    assert any(
        getattr(oracle, name)(*args) != REFERENCE[name](*args)
        for _, a, maps in near_miss_inputs()
        for name, args in calls(a, maps)
    )


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


def test_oracle_never_divides_or_rounds():
    """The oracle's values stay exact: int arithmetic never becomes float, because the module has no
    ``/`` or ``//`` and calls neither ``float`` nor ``round``."""
    tree = ast.parse(inspect.getsource(oracle))
    divisions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Div, ast.FloorDiv))
    ]
    assert divisions == []
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert called & {"float", "round"} == set()


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
