"""Work counts of the integer routes: how often a call inverts, clears or builds a Fraction product.

Each test installs a counting wrapper on a library function with
``monkeypatch``, in every ``rhizalab`` module that holds it: modules import
by name (``from .exactlin import invert``), so a wrapper on the defining
module alone would miss their calls.  Times on a shared host drift; these
counts repeat exactly.

* ``rhizaform_from_cocycle`` inverts B^T once and hands B^T itself on as
  T^-1.
* ``check_rota_baxter``, ``check_o_operator``, ``check_homomorphism`` and
  ``check_rb_family`` clear every structure they read, equivariance
  included, in one ``_integers`` call, for any semigroup size.
* The strict cyclic-form solvers read the working product of a split
  algebra as the sum of its products' integer tables, without building the
  ``Fraction`` sum (``algmodel._combination``), and read the
  anti-associativity test and the cyclic rows off one clearing: they clear
  as often as the plain solvers, the scalar one twice (the invariance rows
  read only alpha, at their own D_alpha) and the algebra-valued one once.
"""

from fractions import Fraction

import pytest

from rhizalab import algmodel, axioms, catalog, cocycles, exactlin, family, files, nilpotency, operators
from rhizalab.algmodel import BilinearOp, HomAlgebra, sum_product
from rhizalab.catalog import load_entry
from rhizalab.cocycles import rhizaform_from_cocycle, scalar_cocycle_space, vector_cocycle_space
from rhizalab.family import RBFamily, Semigroup, check_rb_family
from rhizalab.operators import (
    LinearOperator,
    check_homomorphism,
    check_o_operator,
    check_rota_baxter,
    regular_bimodule,
)
from tests.conftest import nondegenerate_in_span, skew_4dim

F = Fraction
MODULES = (algmodel, axioms, catalog, cocycles, exactlin, family, files, nilpotency, operators)


def count_calls(monkeypatch, name: str) -> list:
    """Wrap the library function ``name`` wherever it is looked up; the returned list grows by one
    entry per call."""
    real = next(getattr(m, name) for m in MODULES if hasattr(m, name))
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for module in MODULES:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def _split_skew():
    """A split algebra (succ the skew 4-dimensional product, prec zero) and a nondegenerate form in
    its scalar cocycle space."""
    mono = skew_4dim()
    a = HomAlgebra.rhizaform(mono.mul, BilinearOp.zero(4), mono.alpha)
    return a, nondegenerate_in_span(scalar_cocycle_space(a), 4)


@pytest.mark.parametrize("strict", [True, False])
def test_cocycle_splitting_inverts_once(monkeypatch, strict):
    a, b = _split_skew()
    expected = rhizaform_from_cocycle(a, b, strict=strict)
    calls = count_calls(monkeypatch, "invert")
    assert rhizaform_from_cocycle(a, b, strict=strict) == expected
    assert len(calls) == 1


def _sum_d3_a7():
    """A mono algebra whose twist is not the identity, so equivariance can fail."""
    a = load_entry("d3.A7", {"eta": F(1)})
    return HomAlgebra.mono(sum_product(a), a.alpha)


R = LinearOperator.from_rows([[F(1, 2), 0, 0], [1, 3, 0], [0, 1, 1]])


@pytest.mark.parametrize("kind", ["rota-baxter", "o-operator", "homomorphism"])
def test_operator_checks_clear_once(monkeypatch, kind):
    s = _sum_d3_a7()
    check = {
        "rota-baxter": lambda: check_rota_baxter(R, s),
        "o-operator": lambda: check_o_operator(R, s, regular_bimodule(s)),
        "homomorphism": lambda: check_homomorphism(R, s, s),
    }[kind]
    expected = check()
    assert expected.failed_ids()[0] == "equivariance"
    calls = count_calls(monkeypatch, "_integers")
    assert check() == expected
    assert len(calls) == 1


def test_family_check_clears_once_for_every_semigroup_size(monkeypatch):
    s = _sum_d3_a7()
    ops = {0: LinearOperator.identity(3), 1: R, 2: LinearOperator.zero(3, 3)}
    rf = RBFamily(Semigroup.cyclic(3), ops)
    expected = check_rb_family(rf, s)
    assert [v.basis_tuple[0] for v in expected.violations if v.identity_id == "equivariance"][0] == 1
    calls = count_calls(monkeypatch, "_integers")
    assert check_rb_family(rf, s) == expected
    assert len(calls) == 1


@pytest.mark.parametrize("solve", [scalar_cocycle_space, vector_cocycle_space])
def test_strict_solvers_build_no_fraction_sum(monkeypatch, solve):
    a = load_entry("d2.A7", {"eta": F(1)})  # split, and its sum is anti-associative
    expected = solve(a, strict=True)
    assert expected
    calls = count_calls(monkeypatch, "_combination")
    assert solve(a, strict=True) == expected
    assert calls == []


@pytest.mark.parametrize("entry", ["d3.A16", "d2.A7"])
@pytest.mark.parametrize("solve, clearings", [(scalar_cocycle_space, 2), (vector_cocycle_space, 1)])
def test_strict_solvers_clear_as_often_as_plain_ones(monkeypatch, entry, solve, clearings):
    a = load_entry(entry, {"eta": F(1)})
    expected = {strict: solve(a, strict=strict) for strict in (True, False)}
    assert expected[True] == expected[False]
    calls = count_calls(monkeypatch, "_integers")
    for strict in (True, False):
        calls.clear()
        assert solve(a, strict=strict) == expected[strict]
        assert len(calls) == clearings, strict
