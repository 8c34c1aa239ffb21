"""The cyclic-form solvers against the reference that reads the whole cyclic system.

Every cyclic row lies in R^n (x) im(alpha), so the solvers stop the forward
pass over the cyclic system at n * rank(alpha) pivots, and they read the rows
of the second condition (invariance or the twist) as sparse (column, value)
pairs.  The reference, ``fraction_checkers.scalar_cocycle_space`` and
``vector_cocycle_space``, has neither: it builds the cyclic row at every
triple, with no bound, and the second condition as dense rows.  Both give the
same forms, in the same order, on twists of every rank 0..n (n = 2-5) over
dense, sparse and direct-sum algebras, and on every catalog entry at eta = 1,
0 and -1/3.
"""

import random
from fractions import Fraction

import pytest

from rhizalab import exactlin
from rhizalab.algmodel import HomAlgebra
from rhizalab.axioms import _view
from rhizalab.cocycles import _cyclic_rows, _vector_cocycle_dim, scalar_cocycle_space, vector_cocycle_space
from tests import fraction_checkers as ref
from tests.conftest import block_sum, catalog_algebras, sum_mono
from tests.test_cocycles import _sparse_tensor, _twist_of_rank

F = Fraction


def assert_same_spaces(a: HomAlgebra, label) -> None:
    vector = ref.vector_cocycle_space(a)
    assert scalar_cocycle_space(a) == ref.scalar_cocycle_space(a), label
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
            yield (r, "sum"), block_sum(*map(sum_mono, parts))


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

