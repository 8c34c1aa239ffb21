"""The cyclic-form solvers against the pipeline that reads the whole cyclic system.

Every cyclic row lies in R^n (x) im(alpha), so the solvers stop the forward
pass over the cyclic system at n * rank(alpha) pivots, and they read the rows
of the second condition (invariance or the twist) as sparse (column, value)
pairs.  The reference here is the pipeline without either: the cyclic kernel
from every row, with no bound, and the second condition built as dense rows
and spread entry by entry.  Both give the same forms, in the same order, on
twists of every rank 0..n (n = 2-5) over dense, sparse and direct-sum
algebras, and on every catalog entry at eta = 1, 0 and -1/3.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from rhizalab import exactlin
from rhizalab.algmodel import HomAlgebra, _sparse
from rhizalab.axioms import _view
from rhizalab.cocycles import (
    ScalarForm,
    VectorForm,
    _cyclic_rows,
    _vector_cocycle_dim,
    scalar_cocycle_space,
    vector_cocycle_space,
)
from rhizalab.exactlin import Matrix
from tests.conftest import catalog_algebras
from tests.test_cocycles import _sparse_tensor, _twist_of_rank, direct_sum

F = Fraction


def add_form_terms(row, u, w, n, stride=1, offset=0):
    for p, up in u:
        for q, wq in w:
            row[(p * n + q) * stride + offset] += up * wq


def dense_invariance_rows(view):
    n, images, dd = len(view.twist), view.twist, view.d * view.d
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            add_form_terms(row, images[i], images[j], n)
            row[i * n + j] -= dd
            rows.append(row)
    return rows


def dense_twist_rows(view):
    n, images = len(view.twist), view.twist
    lifted = [[0] * n for _ in range(n)]
    for r, image in enumerate(images):
        for c, x in image:
            lifted[c][r] = x * view.d
    rows = []
    for i in range(n):
        minus_image = [(p, -x) for p, x in images[i]]
        for j in range(n):
            for c in range(n):
                row = [0] * (n * n * n)
                row[(i * n + j) * n : (i * n + j + 1) * n] = lifted[c]
                add_form_terms(row, minus_image, images[j], n, n, c)
                rows.append(row)
    return rows


def dense_spread(flat, sparse, width, size):
    out = [0] * (size * width)
    for col, x in enumerate(flat):
        if x:
            a, s = divmod(col, width)
            for b, y in sparse[a]:
                out[b * width + s] += x * y
    return out


def reference_forms(a: HomAlgebra, width: int, second) -> list[tuple[list[int], int]]:
    """The flat integer forms and their scales, from the whole cyclic system and dense second rows."""
    view = _view(a)
    n = len(view.twist)
    kernel = exactlin._kernel(list(_cyclic_rows(view)[0].values()), n * n)
    d = lcm(*(d_t for _, d_t in kernel))
    block = [[(pq, x * (d // d_t)) for pq, x in enumerate(b) if x] for b, d_t in kernel]
    at = [[] for _ in range(n * n)]
    for t, b in enumerate(block):
        for pq, x in b:
            at[pq].append((t, x))
    rows = [dense_spread(row, at, width, len(block)) for row in second(view)]
    size = len(block) * width
    return [(dense_spread(c, block, width, n * n), d * d_c) for c, d_c in exactlin._kernel(rows, size)]


def reference_scalar_space(a: HomAlgebra) -> list[ScalarForm]:
    n = a.dim
    forms = reference_forms(a, 1, dense_invariance_rows)
    return [ScalarForm(n, Matrix(n, n, [Fraction(x, d) for x in v])) for v, d in forms]


def reference_vector_space(a: HomAlgebra) -> list[VectorForm]:
    n = a.dim
    forms = reference_forms(a, n, dense_twist_rows)
    cells = [([_sparse(v[pq * n : (pq + 1) * n]) for pq in range(n * n)], d) for v, d in forms]
    return [VectorForm._from_table([c[p * n : (p + 1) * n] for p in range(n)], d) for c, d in cells]


def assert_same_spaces(a: HomAlgebra, label) -> None:
    scalar, vector = reference_scalar_space(a), reference_vector_space(a)
    assert scalar_cocycle_space(a) == scalar, label
    assert vector_cocycle_space(a) == vector, label
    assert _vector_cocycle_dim(_view(a)) == len(vector), label


def _rank_cases(n: int):
    """Dense and sparse split algebras with a twist of each rank 0..n, and direct sums of two smaller
    ones whose twist ranks add to each rank."""
    rng = random.Random(f"rank-bound-{n}")
    for r in range(n + 1):
        for density in (0.6, 0.15):
            succ, prec = _sparse_tensor(rng, n, density), _sparse_tensor(rng, n, density)
            yield (r, density), HomAlgebra.rhizaform(succ, prec, _twist_of_rank(rng, n, r))
        if n >= 3:
            m = n // 2
            r1 = min(r, m)
            parts = []
            for k, rk in ((m, r1), (n - m, r - r1)):
                succ, prec = _sparse_tensor(rng, k, 0.5), _sparse_tensor(rng, k, 0.5)
                parts.append(HomAlgebra.rhizaform(succ, prec, _twist_of_rank(rng, k, rk)))
            yield (r, "sum"), direct_sum(*parts)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_solvers_match_the_whole_cyclic_system_at_every_twist_rank(n):
    """At every rank r some case's cyclic system has rank n * r, so its forward pass stops at the
    bound before reading every row."""
    ranks, attained = set(), set()
    for label, a in _rank_cases(n):
        assert_same_spaces(a, (n, label))
        r = exactlin.rank(a.alpha.matrix)
        ranks.add(r)
        if len(exactlin._forward(list(_cyclic_rows(_view(a))[0].values()))) == n * r:
            attained.add(r)
    assert ranks == attained == set(range(n + 1))


@pytest.mark.parametrize("eta", [F(1), F(0), F(-1, 3)])
def test_solvers_match_the_whole_cyclic_system_on_the_catalog(eta):
    algebras = catalog_algebras({"eta": eta})
    assert len(algebras) == 23
    for eid, a in algebras:
        assert_same_spaces(a, (eid, eta))

