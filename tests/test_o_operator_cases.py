"""The averaging operator and the cyclic form as two cases of one O-operator.

An averaging (weight-zero Rota-Baxter) operator R on a mono algebra S is an
O-operator of the regular bimodule of S, and a nondegenerate form B gives
the invertible O-operator (B^T)^-1 of the coregular bimodule, the dual of the
regular one.  The first test compares the library's averaging routes with its
O-operator routes; the second compares the test-side ``Fraction``
constructions, so that it shows the identity of the two splittings and not
the library's code path.  The algebras are the catalog sums and seeded random
mono algebras of dimension 2-4, with operators and forms drawn from
{-1, 0, 1}, so most operators fail the identity.
"""

from __future__ import annotations

import random
from dataclasses import replace

from rhizalab.algmodel import HomAlgebra
from rhizalab.cocycles import ScalarForm, is_nondegenerate
from rhizalab.exactlin import Matrix, invert
from rhizalab.operators import (
    LinearOperator,
    check_o_operator,
    check_rota_baxter,
    dual_bimodule,
    induced_rhizaform_from_o_operator,
    induced_rhizaform_from_rb,
    regular_bimodule,
)
from tests import fraction_checkers as ref
from tests.conftest import SMALL, catalog_sums, random_map, random_tensor


def _algebras() -> list[HomAlgebra]:
    rng = random.Random(71)
    randoms = [HomAlgebra.mono(random_tensor(rng, 2 + s % 3), random_map(rng, 2 + s % 3)) for s in range(20)]
    return [s for _, s in catalog_sums()] + randoms


def _matrix(rng: random.Random, n: int) -> Matrix:
    return Matrix.from_rows([[rng.choice(SMALL) for _ in range(n)] for _ in range(n)])


def test_averaging_operator_is_the_o_operator_of_the_regular_bimodule():
    rng = random.Random(72)
    draws = passing = 0
    for s in _algebras():
        reg = regular_bimodule(s)
        for _ in range(4):
            r = LinearOperator(s.dim, s.dim, _matrix(rng, s.dim))
            averaging, o_operator = check_rota_baxter(r, s), check_o_operator(r, s, reg)
            renamed = tuple(
                replace(v, identity_id="o_identity") if v.identity_id == "rb_identity" else v
                for v in averaging.violations
            )
            assert (averaging.passed, renamed) == (o_operator.passed, o_operator.violations)
            assert induced_rhizaform_from_rb(r, s, strict=False) == induced_rhizaform_from_o_operator(
                r, s, reg, strict=False
            )
            draws += 1
            passing += averaging.passed
    assert draws == 172 and 0 < passing < draws // 4


def test_cyclic_form_splitting_is_the_compatible_splitting_on_the_coregular_bimodule():
    rng = random.Random(73)
    compared = 0
    for s in _algebras():
        coregular = dual_bimodule(regular_bimodule(s))
        for _ in range(4):
            b = ScalarForm(s.dim, _matrix(rng, s.dim))
            if not is_nondegenerate(b):
                continue
            t = LinearOperator(s.dim, s.dim, invert(b.matrix.transpose()))
            assert ref.rhizaform_from_cocycle(s, b) == ref.compatible_from_invertible_o_operator(t, s, coregular)
            compared += 1
    assert compared >= 80
