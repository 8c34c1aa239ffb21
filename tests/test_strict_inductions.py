"""The strict operator inductions refuse a failing operator with a fixed exception and message.

On the sums of d2.A1 and d3.A7, R is 1/2 on the diagonal and 1 just below
it: invertible, and neither twist-equivariant nor averaging.  Each strict
induction names the identities the operator fails, in report order.

A strict induction checks the very tables it returns: a splitting with one
cell changed fails the check of an operator that passes it otherwise.
"""

from fractions import Fraction

import pytest

from rhizalab import family, operators
from rhizalab.algmodel import BilinearOp, HomAlgebra, LinearMap, sum_product
from rhizalab.catalog import load_entry
from rhizalab.errors import NotAnOOperator, NotARotaBaxterOperator
from rhizalab.family import RBFamily, Semigroup, induced_family_rhizaform
from rhizalab.operators import (
    LinearOperator,
    compatible_from_invertible_o_operator,
    induced_rhizaform_from_o_operator,
    induced_rhizaform_from_rb,
    regular_bimodule,
)

F = Fraction


def _sum_and_r(entry: str):
    a = load_entry(entry, {"eta": F(1)})
    n = a.dim
    rows = [[F(1, 2) if i == j else 1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
    return HomAlgebra.mono(sum_product(a), a.alpha), LinearOperator.from_rows(rows)


INDUCTIONS = {
    "rb": lambda s, r: induced_rhizaform_from_rb(r, s),
    "o-operator": lambda s, r: induced_rhizaform_from_o_operator(r, s, regular_bimodule(s)),
    "invertible-o": lambda s, r: compatible_from_invertible_o_operator(r, s, regular_bimodule(s)),
    "family": lambda s, r: induced_family_rhizaform(
        RBFamily(Semigroup.cyclic(2), {0: LinearOperator.identity(s.dim), 1: r}), s
    ),
}
REFUSALS = {
    "rb": (NotARotaBaxterOperator, "operator fails ('equivariance', 'rb_identity')"),
    "o-operator": (NotAnOOperator, "operator fails ('equivariance', 'o_identity')"),
    "invertible-o": (NotAnOOperator, "operator fails ('equivariance', 'o_identity')"),
    "family": (NotARotaBaxterOperator, "family fails ('equivariance', 'rb_identity')"),
}


@pytest.mark.parametrize("entry", ["d2.A1", "d3.A7"])
@pytest.mark.parametrize("what", sorted(INDUCTIONS))
def test_strict_induction_refuses_with_its_message(entry, what):
    s, r = _sum_and_r(entry)
    error, message = REFUSALS[what]
    with pytest.raises(error) as caught:
        INDUCTIONS[what](s, r)
    assert type(caught.value) is error
    assert str(caught.value) == message


def _tampered_split(split):
    """``operators._split`` with one nonzero cell, e_1 succ e_1 = e_1 at D^2, added to the tables it returns."""

    def wrapped(*args):
        succ, prec = split(*args)
        return [[((0, 1),), *succ[0][1:]], *succ[1:]], prec

    return wrapped


def test_strict_induction_checks_the_splitting_it_returns(monkeypatch):
    # the identity operator on the zero algebra with alpha = id passes the averaging identity and, on
    # the regular bimodule, the O-identity: both sides vanish, so only the tampered cell can fail
    z = HomAlgebra.mono(BilinearOp.zero(2), LinearMap.identity(2))
    r = LinearOperator.identity(2)
    rf = RBFamily(Semigroup.cyclic(2), {0: r, 1: r})
    induced_rhizaform_from_rb(r, z)
    induced_rhizaform_from_o_operator(r, z, regular_bimodule(z))
    induced_family_rhizaform(rf, z)
    tampered = _tampered_split(operators._split)
    monkeypatch.setattr(operators, "_split", tampered)
    monkeypatch.setattr(family, "_split", tampered)
    with pytest.raises(NotARotaBaxterOperator):
        induced_rhizaform_from_rb(r, z)
    with pytest.raises(NotAnOOperator):
        induced_rhizaform_from_o_operator(r, z, regular_bimodule(z))
    with pytest.raises(NotARotaBaxterOperator):
        induced_family_rhizaform(rf, z)
