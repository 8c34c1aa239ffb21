import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhizalab.algmodel import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    _write_json,
    parse_algebra,
    serialize_algebra,
    sum_product,
)
from rhizalab.errors import (
    DimensionMismatch,
    MissingProduct,
    ParseError,
    UnboundParameter,
)
from rhizalab.exactlin import vec_zero
from tests.conftest import random_map, random_tensor
from tests.fraction_checkers import apply, basis_vec, eval_product, scaled

F = Fraction


def test_eval_on_basis_pair(a_d2_a1):
    e2 = basis_vec(2, 1)
    assert eval_product(a_d2_a1.succ, e2, e2) == (F(1), F(0))


def test_eval_zero_vector(a_d2_a1):
    assert eval_product(a_d2_a1.succ, vec_zero(2), basis_vec(2, 1)) == vec_zero(2)


def test_eval_expands_bilinearly(a_d2_a1):
    x = (F(1), F(1))  # e1 + e2
    e2 = basis_vec(2, 1)
    # only the e2-e2 product is nonzero
    assert eval_product(a_d2_a1.succ, x, e2) == (F(1), F(0))


def test_eval_dimension_mismatch(a_d2_a1):
    with pytest.raises(DimensionMismatch):
        eval_product(a_d2_a1.succ, (F(1),), basis_vec(2, 0))


def test_eval_bilinearity_randomized():
    rng = random.Random(23)
    scalars = [F(-2), F(-1, 2), F(1, 3), F(2)]
    for _ in range(40):
        n = rng.choice([2, 3])
        op = random_tensor(rng, n)
        a, b = rng.choice(scalars), rng.choice(scalars)
        x, y, z = (basis_vec(n, rng.randrange(n)) for _ in range(3))
        combo = tuple(a * xi + b * yi for xi, yi in zip(x, y))
        left = eval_product(op, combo, z)
        expected = tuple(
            a * u + b * v
            for u, v in zip(eval_product(op, x, z), eval_product(op, y, z))
        )
        assert left == expected


def test_sum_product_d2_a1(a_d2_a1):
    s = sum_product(a_d2_a1)
    assert s.entry(1, 1) == (F(2), F(0))


def test_sum_product_d2_a7(a_d2_a7):
    s = sum_product(a_d2_a7)
    assert s.entry(0, 0) == (F(0), F(2))


def test_sum_product_cancellation():
    rng = random.Random(5)
    succ = random_tensor(rng, 2)
    a = HomAlgebra.rhizaform(succ, scaled(succ, -1), LinearMap.identity(2))
    assert sum_product(a).is_zero()


def test_sum_product_needs_splits(a_d2_a1):
    mono = HomAlgebra.mono(sum_product(a_d2_a1), a_d2_a1.alpha)
    with pytest.raises(MissingProduct):
        sum_product(mono)


def test_product_key_validation():
    op = BilinearOp.zero(2)
    with pytest.raises(MissingProduct):
        HomAlgebra(2, {"succ": op}, LinearMap.identity(2))
    with pytest.raises(MissingProduct):
        HomAlgebra(2, {"mul": op, "succ": op}, LinearMap.identity(2))


ALGEBRA_TEXT = """
{"dim": 2, "kind": "rhizaform",
 "alpha": [["1", "1"], ["0", "1"]],
 "succ": [[2, 2, 1, "1"]],
 "prec": [[2, 2, 1, "1"]]}
"""


def test_parse_basic():
    a = parse_algebra(ALGEBRA_TEXT)
    assert a.dim == 2
    assert a.kind == "rhizaform"
    assert a.succ.entry(1, 1) == (F(1), F(0))
    assert apply(a.alpha, basis_vec(2, 1)) == (F(1), F(1))


def test_parse_serialize_round_trip():
    a = parse_algebra(ALGEBRA_TEXT)
    assert parse_algebra(serialize_algebra(a)) == a


def test_round_trip_preserves_params():
    text = """
    {"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]],
     "mul": [[1, 1, 2, "eta"]], "params": {"eta": "1/4"}}
    """
    a = parse_algebra(text)
    assert a.mul.entry(0, 0) == (F(0), F(1, 4))
    assert parse_algebra(serialize_algebra(a)) == a


def test_parse_empty_products_is_zero():
    a = parse_algebra('{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]]}')
    assert a.mul.is_zero()


def test_parse_parameter_binding():
    text = '{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]], "mul": [[1,1,1,"eta"]]}'
    a = parse_algebra(text, bindings={"eta": F(1, 4)})
    assert a.mul.entry(0, 0) == (F(1, 4), F(0))
    neg = parse_algebra(text.replace('"eta"', '"-eta"'), bindings={"eta": F(1, 4)})
    assert neg.mul.entry(0, 0) == (F(-1, 4), F(0))


def test_parse_unbound_parameter():
    text = '{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]], "mul": [[1,1,1,"eta"]]}'
    with pytest.raises(UnboundParameter) as err:
        parse_algebra(text)
    assert err.value.name == "eta"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_algebra('{"dim": 2,,}')
    assert err.value.position is not None


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "mono", "alpha": [["1"]]}',  # missing dim
        '{"dim": 2, "kind": "blob", "alpha": [["1","0"],["0","1"]]}',  # bad kind
        '{"dim": 2, "kind": "mono", "alpha": [["1","0"]]}',  # ragged alpha
        '{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]], "mul": [[1,1,3,"1"]]}',
        '{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]], "mul": [[1,1,1,0.5]]}',
        '{"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]], "succ": [[1,1,1,"1"]]}',
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_algebra(text)


def test_round_trip_on_random_algebras():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.choice([2, 3])
        a = HomAlgebra.rhizaform(random_tensor(rng, n), random_tensor(rng, n), random_map(rng, n))
        assert parse_algebra(serialize_algebra(a)) == a


def test_optional_second_map_round_trips():
    text = """
    {"dim": 2, "kind": "mono", "alpha": [["1","0"],["0","1"]],
     "beta": [["0","1"],["1","0"]], "mul": []}
    """
    a = parse_algebra(text)
    assert a.beta is not None
    assert apply(a.beta, (F(1), F(0))) == (F(0), F(1))
    assert parse_algebra(serialize_algebra(a)) == a


def test_from_entries_adds_repeated_entries():
    op = BilinearOp.from_entries(
        2, [(0, 0, 0, "1/2"), (0, 0, 0, "-1/2"), (0, 0, 0, "1/3"), (1, 1, 1, 0), (1, 1, 1, "2"), (0, 1, 0, F(3))]
    )
    assert op.nonzero_entries() == [(0, 0, 0, F(1, 3)), (0, 1, 0, F(3)), (1, 1, 1, F(2))]
    assert all(type(c) is Fraction for row in op.coeffs for col in row for c in col)


@pytest.mark.parametrize("bad", [True, False, None, 0.5])
def test_coefficients_refuse_non_rationals(bad):
    with pytest.raises(ParseError):
        BilinearOp(1, [[[bad]]])
    with pytest.raises(ParseError):
        BilinearOp.from_entries(1, [(0, 0, 0, bad)])


# Text of every kind the writer must escape: non-ASCII, control characters, lone surrogates.
_TEXT = st.text(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr)), max_size=8)
_LEAVES = st.one_of(
    _TEXT,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([True, False, None, 0, 1, -1, 2**64, 2**64 + 1, -(2**64) - 1]),
)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_DOCS)
@example({"": [{}, [], (), "", "\ud800", "\x00\x1f\x7f\"\\", "é€😀", True, 1, False, 0, None, 2**64, -(2**64), 10**40]})
@example({})
@example(())
@example(True)
@example("\udfff")
def test_json_writer_matches_stdlib(doc):
    assert _write_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("leaf", [0.5, F(1, 2), {1, 2}, b"x"])
def test_json_writer_refuses_other_types(leaf):
    for doc in (leaf, [leaf], {"x": leaf}, ("y", leaf)):
        with pytest.raises(TypeError):
            _write_json(doc)
