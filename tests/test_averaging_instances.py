"""Positive averaging-operator instances in dimension 3, from invertible derivations.

An invertible R satisfies R(x)*R(y) = R(R(x)*y + x*R(y)) exactly when
D = R^-1 is a derivation of the product, D(x*y) = D(x)*y + x*D(y), and
R alpha = alpha R exactly when D alpha = alpha D.  Both conditions are
linear in the n^2 entries of D, so the alpha-commuting derivations of a
summed catalog product are a kernel, and an invertible combination of its
basis gives an averaging operator R = D^-1.

On d2.A7 and d3.A16 (alpha = id) the induced split algebra passes
``check_rhizaform``.  d3.A7 and d3.A15 have alpha != id and sums that are
not multiplicative, which the theorem assumes, so their induced algebras
fail exactly ``mult_succ`` and ``mult_prec``.  These are the only passing
inputs of the operator checks whose equivariance reads a twist other than
the identity.  Every verdict is compared with the oracle's, on R and on
each one-coefficient perturbation of R.
"""

import random
from fractions import Fraction

import pytest

from rhizalab import oracle
from rhizalab.algmodel import HomAlgebra, sum_product
from rhizalab.axioms import check_rhizaform
from rhizalab.catalog import load_entry
from rhizalab.exactlin import Matrix, invert, nullspace_basis, rank
from rhizalab.operators import (
    check_o_operator,
    check_rota_baxter,
    induced_rhizaform_from_rb,
    regular_bimodule,
)

F = Fraction
# entry -> (dimension of its alpha-commuting derivations at eta = 1, identities its induced algebra fails)
CASES = {
    "d2.A7": (2, set()),
    "d3.A16": (5, set()),
    "d3.A7": (2, {"mult_succ", "mult_prec"}),
    "d3.A15": (2, {"mult_succ", "mult_prec"}),
}


def derivation_rows(s: HomAlgebra) -> list[list[Fraction]]:
    """D(e_i*e_j) - D(e_i)*e_j - e_i*D(e_j) at each (i, j, k), then (D alpha - alpha D)[r][c], in the
    unknowns D[r][c] (column r*n + c; column c of D is D(e_c))."""
    n, c, a = s.dim, s.mul.coeffs, s.alpha.matrix
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [F(0)] * (n * n)
                for m in range(n):
                    row[k * n + m] += c[i][j][m]
                    row[m * n + i] -= c[m][j][k]
                    row[m * n + j] -= c[i][m][k]
                rows.append(row)
    for r in range(n):
        for col in range(n):
            row = [F(0)] * (n * n)
            for m in range(n):
                row[r * n + m] += a.at(m, col)
                row[m * n + col] -= a.at(r, m)
            rows.append(row)
    return rows


def averaging_operators(eid: str) -> tuple[HomAlgebra, int, list[Matrix]]:
    """The summed algebra of ``eid`` at eta = 1, the dimension of its alpha-commuting derivations, and
    R = D^-1 for the invertible D among ten seeded integer combinations of their kernel basis."""
    a = load_entry(eid, {"eta": F(1)})
    s = HomAlgebra.mono(sum_product(a), a.alpha)
    n = s.dim
    kernel = nullspace_basis(Matrix.from_rows(derivation_rows(s)))
    rng = random.Random(eid)
    found = []
    for _ in range(10):
        coeffs = [rng.randint(-3, 3) for _ in kernel]
        d = Matrix(n, n, [sum(x * b[q] for x, b in zip(coeffs, kernel)) for q in range(n * n)])
        if rank(d) == n:
            found.append(invert(d))
    return s, len(kernel), found


def verdicts(r: Matrix, s: HomAlgebra) -> tuple[bool, bool]:
    """The checkers' verdicts on R as an averaging operator and as an O-operator on the regular
    bimodule, each asserted equal to the oracle's."""
    m = regular_bimodule(s)
    rb, o = check_rota_baxter(r, s).passed, check_o_operator(r, s, m).passed
    assert rb == oracle.rota_baxter(r, s.mul, s.alpha)
    assert o == oracle.o_operator(r, s.mul, s.alpha, m.left, m.right, m.beta)
    return rb, o


def central(s: HomAlgebra, row: int, col: int) -> bool:
    """The unit matrix E with e_col -> e_row maps into the annihilator, kills every product (no
    product has an e_col coordinate) and commutes with alpha: then R + E is an averaging operator
    whenever R is, since every term E adds to the identity vanishes."""
    n, c, a = s.dim, s.mul.coeffs, s.alpha.matrix
    annihilates = not any(c[row][k][m] or c[k][row][m] for k in range(n) for m in range(n))
    kills_products = not any(c[i][j][col] for i in range(n) for j in range(n))
    commutes = all((k == row) * a.at(col, m) == a.at(k, row) * (m == col) for k in range(n) for m in range(n))
    return annihilates and kills_products and commutes


@pytest.mark.parametrize("eid", sorted(CASES))
def test_invertible_derivations_give_averaging_operators(eid):
    kernel_dim, fails = CASES[eid]
    s, dim, operators = averaging_operators(eid)
    assert dim == kernel_dim
    assert len(operators) >= 5
    assert (s.alpha.matrix == Matrix.identity(s.dim)) == (not fails)
    for r in operators:
        assert verdicts(r, s) == (True, True)
        induced = induced_rhizaform_from_rb(r, s)
        report = check_rhizaform(induced)
        assert set(report.failed_ids()) == fails
        for ident, ok in oracle.rhizaform_identities(induced).items():
            assert report.identity_passed(ident) == ok, ident


@pytest.mark.parametrize("eid", sorted(CASES))
def test_one_coefficient_perturbations_fail_unless_central(eid):
    """Adding 1 to one entry of R fails both checks, with checker = oracle, except where the unit
    matrix added is central (``central``), which leaves an averaging operator."""
    s, _, operators = averaging_operators(eid)
    n = s.dim
    outcomes = []
    for r in operators:
        for q in range(n * n):
            entries = list(r.entries)
            entries[q] += 1
            perturbed = Matrix(n, n, entries)
            expected = central(s, *divmod(q, n))
            assert verdicts(perturbed, s) == (expected, expected), (r, divmod(q, n))
            outcomes.append(expected)
    assert outcomes.count(False) > outcomes.count(True)
