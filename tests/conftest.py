"""Shared fixtures: deterministic random structures, small searched examples, and a call counter."""

from __future__ import annotations

import importlib
import itertools
import random
import sys
from fractions import Fraction

import pytest

from rhizalab import nilpotency
from rhizalab.algmodel import BilinearOp, HomAlgebra, LinearMap, sum_product
from rhizalab.axioms import CheckReport, _view, check_hom_anti_associative
from rhizalab.catalog import entry_ids, load_entry
from rhizalab.cocycles import is_nondegenerate
from rhizalab.exactlin import Matrix, invert
from rhizalab.operators import check_rota_baxter
from tests.fraction_checkers import apply, basis_vec, eval_product, scaled, times, vec_add, vec_is_zero

F = Fraction
SMALL = (F(-1), F(0), F(1))
ETA_DEFAULT = {"eta": F(1)}


def random_tensor(rng: random.Random, n: int) -> BilinearOp:
    return BilinearOp(
        n, [[[rng.choice(SMALL) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    )


def random_map(rng: random.Random, n: int, identity_bias: float = 0.2) -> LinearMap:
    if rng.random() < identity_bias:
        return LinearMap.identity(n)
    return LinearMap.from_rows([[rng.choice(SMALL) for _ in range(n)] for _ in range(n)])


def random_split_algebra(rng: random.Random, n: int) -> HomAlgebra:
    return HomAlgebra.rhizaform(random_tensor(rng, n), random_tensor(rng, n), random_map(rng, n))


def graded_split_algebra(rng: random.Random, n: int) -> HomAlgebra:
    """e_i o e_j lands in span(e_k : k > max(i, j)), so the series descend through several terms."""
    def tensor():
        return BilinearOp(n, [
            [[rng.choice((F(-1), F(0), F(1))) if k > max(i, j) else F(0) for k in range(n)] for j in range(n)]
            for i in range(n)
        ])
    return HomAlgebra.rhizaform(tensor(), tensor(), LinearMap.identity(n))


def sum_mono(a: HomAlgebra) -> HomAlgebra:
    """The mono algebra of a split algebra's summed product, with its twist."""
    return HomAlgebra.mono(sum_product(a), a.alpha)


def conjugate(a: HomAlgebra, p: Matrix, alpha: Matrix | None = None) -> HomAlgebra:
    """The algebra carried along the basis change p (x o' y = p^-1 (p x o p y)), with the twist
    ``alpha`` when given, else p^-1 alpha p."""
    p_inv = invert(p)
    n = a.dim
    cols = [p.column(i) for i in range(n)]
    products = {
        name: BilinearOp(n, [[apply(p_inv, eval_product(op, cols[i], cols[j])) for j in range(n)] for i in range(n)])
        for name, op in a.products.items()
    }
    return HomAlgebra(n, products, LinearMap(n, alpha or times(times(p_inv, a.alpha.matrix), p)))


def count_calls(monkeypatch, qualified: str, key=None) -> list:
    """Wrap the library function ``qualified`` ("module.name", e.g. "algmodel._integers") in every
    loaded ``rhizalab`` module that binds it: modules import by name (``from .exactlin import
    invert``), so a wrapper on the defining module alone would miss their calls.  The returned list
    grows by one entry per call, the name of the function that made it, or ``key`` of the call's
    arguments."""
    module_name, name = qualified.rsplit(".", 1)
    real = getattr(importlib.import_module(f"rhizalab.{module_name}"), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name if key is None else key(*args, **kwargs))
        return real(*args, **kwargs)

    for loaded, module in list(sys.modules.items()):
        if (loaded == "rhizalab" or loaded.startswith("rhizalab.")) and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def catalog_algebras(params=None) -> list[tuple[str, HomAlgebra]]:
    params = ETA_DEFAULT if params is None else params
    return [(eid, load_entry(eid, params)) for eid in entry_ids()]


def catalog_sums(params=None) -> list[tuple[str, HomAlgebra]]:
    """Mono algebras carrying the summed product of every entry."""
    return [(eid, sum_mono(a)) for eid, a in catalog_algebras(params)]


def anti_associative_sums(params=None) -> list[tuple[str, HomAlgebra]]:
    return [
        (eid, s)
        for eid, s in catalog_sums(params)
        if check_hom_anti_associative(s.mul, s.alpha).passed
    ]


def rhizaform_passing_entries(params=None) -> list[tuple[str, HomAlgebra]]:
    from rhizalab.axioms import check_rhizaform

    return [(eid, a) for eid, a in catalog_algebras(params) if check_rhizaform(a).passed]


GRID_VALUES = (F(-1), F(-1, 2), F(0), F(1, 2), F(1))


def alpha_stability(a: HomAlgebra) -> CheckReport:
    """The alpha-stability report along the full series of ``analyze(a)``, for any twist.  ``analyze``
    reports it only where the twist is multiplicative for every product, and there it cannot fail:
    alpha(S_1) lies in S_1 = A, and alpha(S_i <> S_j) in alpha(S_i) <> alpha(S_j), so in S_i <> S_j."""
    return nilpotency._alpha_stability(nilpotency.analyze(a).series["full"], _view(a).twist)


def padded_term(terms, g: int):
    """The g-th term (1-based) of a series given up to stabilization: past its end, its last term,
    which every later term equals (the stop rule in the ``nilpotency`` module doc)."""
    return terms[min(g, len(terms)) - 1]


def rb_grid(algebra: HomAlgebra, values=GRID_VALUES) -> list[Matrix]:
    """All 2x2 operators over the value grid passing the averaging identity."""
    assert algebra.dim == 2
    found = []
    for e in itertools.product(values, repeat=4):
        op = Matrix.from_rows([[e[0], e[1]], [e[2], e[3]]])
        if check_rota_baxter(op, algebra).passed:
            found.append(op)
    return found


def z2_rb_family_fixture(algebra: HomAlgebra, values=SMALL):
    """All Z/2-indexed operator families over a small grid passing the
    coupled averaging identity on a 2-dim algebra."""
    from rhizalab.family import RBFamily, Semigroup, check_rb_family

    z2 = Semigroup.cyclic(2)
    mats = [
        Matrix.from_rows([[e[0], e[1]], [e[2], e[3]]])
        for e in itertools.product(values, repeat=4)
    ]
    singles = [m for m in mats if check_rota_baxter(m, algebra).passed]
    found = []
    for r0 in singles:
        for r1 in mats:
            rf = RBFamily(z2, {0: r0, 1: r1})
            if check_rb_family(rf, algebra).passed:
                found.append(rf)
    return found


def plain_family_identities_hold(f) -> bool:
    """Untwisted family axioms, evaluated from scratch (no twist map anywhere)."""
    n = f.dim
    s = f.semigroup
    es = [basis_vec(n, i) for i in range(n)]
    for lam in range(s.size):
        for om in range(s.size):
            lo = s.mul(lam, om)
            for x in es:
                for y in es:
                    for z in es:
                        pl = eval_product(f.prec[lam], x, y)
                        sl = eval_product(f.succ[lam], x, y)
                        inner_mix = vec_add(
                            eval_product(f.prec[om], y, z), eval_product(f.succ[lam], y, z)
                        )
                        r2 = vec_add(
                            eval_product(f.prec[om], pl, z),
                            eval_product(f.prec[lo], x, inner_mix),
                        )
                        r3 = vec_add(
                            eval_product(f.prec[om], sl, z),
                            eval_product(f.succ[lam], x, eval_product(f.prec[om], y, z)),
                        )
                        first = vec_add(eval_product(f.prec[om], x, y), sl)
                        r1 = vec_add(
                            eval_product(f.succ[lo], first, z),
                            eval_product(f.succ[lam], x, eval_product(f.succ[om], y, z)),
                        )
                        if not (vec_is_zero(r1) and vec_is_zero(r2) and vec_is_zero(r3)):
                            return False
    return True


def skew_subspace(space: list[Matrix], dim: int) -> list[Matrix]:
    """Basis of the antisymmetric part of a solved form space."""
    if not space:
        return []
    rows = []
    for p in range(dim):
        for q in range(p, dim):
            rows.append([b.at(p, q) + b.at(q, p) for b in space])
    from rhizalab.exactlin import nullspace_basis

    return [form_combination(y, space) for y in nullspace_basis(Matrix.from_rows(rows))]


def form_combination(coeffs, space: list[Matrix]) -> Matrix:
    """sum_t coeffs[t] * space[t]"""
    n = space[0].rows
    return Matrix(n, n, [sum(c * b.entries[e] for c, b in zip(coeffs, space)) for e in range(n * n)])


def nondegenerate_in_span(space: list[Matrix]) -> Matrix | None:
    """Deterministic search for a nondegenerate form in a solution space."""
    if not space:
        return None
    for b in space:
        if is_nondegenerate(b):
            return b
    for b1, b2 in itertools.combinations(space, 2):
        cand = form_combination((1, 1), (b1, b2))
        if is_nondegenerate(cand):
            return cand
    for coeffs in itertools.product((F(-1), F(1), F(2)), repeat=len(space)):
        cand = form_combination(coeffs, space)
        if is_nondegenerate(cand):
            return cand
    return None


@pytest.fixture(scope="session")
def a_d2_a1() -> HomAlgebra:
    return load_entry("d2.A1")


@pytest.fixture(scope="session")
def a_d2_a7() -> HomAlgebra:
    return load_entry("d2.A7")


def zero_product_mono(n: int, alpha: LinearMap | None = None) -> HomAlgebra:
    return HomAlgebra.mono(BilinearOp.zero(n), alpha or LinearMap.identity(n))


def antisym_3dim() -> HomAlgebra:
    """e1*e2 = e3, e2*e1 = -e3, identity twist; anti-associative, odd dimension."""
    return HomAlgebra.mono(
        BilinearOp.from_entries(3, [(0, 1, 2, F(1)), (1, 0, 2, F(-1))]),
        LinearMap.identity(3),
    )


def skew_4dim() -> HomAlgebra:
    """e1*e2 = e4, e2*e1 = -e4, identity twist; admits nondegenerate skew cocycles."""
    return HomAlgebra.mono(
        BilinearOp.from_entries(4, [(0, 1, 3, F(1)), (1, 0, 3, F(-1))]),
        LinearMap.identity(4),
    )


def triple_product_rhizaform() -> HomAlgebra:
    """succ: e1e1=e2, e1e2=e3, e2e1=-e3; prec zero; identity twist.

    Anti-associative single product with a nonzero triple product, so the
    signed split identities hold while the sign-free ones fail.
    """
    succ = BilinearOp.from_entries(
        3, [(0, 0, 1, F(1)), (0, 1, 2, F(1)), (1, 0, 2, F(-1))]
    )
    return HomAlgebra.rhizaform(succ, BilinearOp.zero(3), LinearMap.identity(3))


def negated_split_fixture(n: int = 2) -> HomAlgebra:
    """prec = -succ with a two-step product; splits sum to zero."""
    succ = BilinearOp.from_entries(n, [(0, 0, 1, F(1))])
    return HomAlgebra.rhizaform(succ, scaled(succ, -1), LinearMap.identity(n))


def block_sum(x: HomAlgebra, y: HomAlgebra) -> HomAlgebra:
    """x and y side by side: each product (of the same names) and the twist block-diagonal."""
    m, n = x.dim, y.dim

    def entries(name):
        shifted = [(m + i, m + j, m + k, c) for i, j, k, c in y.products[name].nonzero_entries()]
        return x.products[name].nonzero_entries() + shifted

    rows = [[*x.alpha.matrix.row(r), *[F(0)] * n] for r in range(m)]
    rows += [[*[F(0)] * m, *y.alpha.matrix.row(r)] for r in range(n)]
    products = {name: BilinearOp.from_entries(m + n, entries(name)) for name in x.products}
    return HomAlgebra(m + n, products, LinearMap.from_rows(rows))


def sparse_edge_algebras() -> list[tuple[str, HomAlgebra]]:
    """Split algebras on which the checkers meet whole triples with no live term and the oracle
    multiplies zero vectors: prec all zero, a zero twist, and a block-diagonal sum of d2.A1 and d3.A7."""
    rng = random.Random(3601)
    zero_prec = HomAlgebra.rhizaform(random_tensor(rng, 3), BilinearOp.zero(3), random_map(rng, 3, 0))
    zero_twist = HomAlgebra.rhizaform(random_tensor(rng, 3), random_tensor(rng, 3), LinearMap.from_rows([[0] * 3] * 3))
    blocks = block_sum(load_entry("d2.A1", ETA_DEFAULT), load_entry("d3.A7", ETA_DEFAULT))
    return [("zero-prec", zero_prec), ("zero-twist", zero_twist), ("block-sum", blocks)]
