import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbatl import INF, VectorError, bound_minus_cost, vec_leq
from rbatl.vectors import (
    is_bound_vec,
    is_cost_vec,
    split,
    vec_add,
    vec_geq,
    vec_sort_key,
)

scalars = st.one_of(st.integers(min_value=0, max_value=20), st.just(INF))
bounds = st.lists(scalars, min_size=0, max_size=4).map(tuple)
costs = st.lists(st.integers(min_value=-5, max_value=5), min_size=0,
                 max_size=4).map(tuple)


def test_leq_examples():
    assert vec_leq((0, 0), (0, 0))
    assert vec_leq((3, 1), (INF, 1))
    assert not vec_leq((2, 1), (1, 2))
    assert vec_leq((INF,), (INF,))
    assert not vec_leq((INF,), (7,))


def test_leq_length_mismatch():
    with pytest.raises(VectorError):
        vec_leq((1, 2), (1,))


def test_minus_cost_examples():
    assert bound_minus_cost((3, 1), (-2, 1)) == (5, 0)
    assert bound_minus_cost((INF, INF), (5, 0)) == (INF, INF)
    assert bound_minus_cost((0, 1), (1, -1)) is None


def test_minus_cost_zero_identity():
    for e in [(0,), (3, INF), (INF, 0, 7)]:
        assert bound_minus_cost(e, (0,) * len(e)) == e


def test_infinity_scalar_rules():
    assert 3 <= INF and 3 < INF and INF <= INF and INF >= 5
    assert not INF < INF and not INF <= 3
    assert INF - 4 is INF and INF + 4 is INF and 4 + INF is INF
    assert INF == INF and INF != 0


@given(bounds, bounds, bounds)
def test_pointwise_partial_order(x, y, z):
    n = min(len(x), len(y), len(z))
    x, y, z = x[:n], y[:n], z[:n]
    assert vec_leq(x, x)
    if vec_leq(x, y) and vec_leq(y, x):
        assert x == y
    if vec_leq(x, y) and vec_leq(y, z):
        assert vec_leq(x, z)


@given(bounds, costs, costs)
def test_minus_cost_composes(e, k1, k2):
    n = min(len(e), len(k1), len(k2))
    e, k1, k2 = e[:n], k1[:n], k2[:n]
    lhs = bound_minus_cost(e, k1)
    if lhs is not None:
        lhs = bound_minus_cost(lhs, k2)
    rhs = bound_minus_cost(e, vec_add(k1, k2))
    if lhs is not None and rhs is not None:
        assert lhs == rhs


@given(bounds, bounds)
def test_sort_key_extends_pointwise_order(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    if vec_leq(x, y) and x != y:
        assert vec_sort_key(x) < vec_sort_key(y)


def test_split_examples():
    assert split((1,)) == [((1,), (0,))]
    assert split((2,)) == [((2,), (0,)), ((1,), (1,))]
    assert split((INF,)) == []
    assert split(()) == []


def test_split_general_properties():
    b = (2, 1, INF)
    pairs = split(b)
    assert len(pairs) == len({dp for _, dp in pairs})  # duplicate-free
    assert len(pairs) == (2 + 1) * (1 + 1) - 1
    for d, dp in pairs:
        assert vec_add_with_inf(d, dp) == b
        assert any(x is not INF and x > 0 for x in d)
        assert all((x is INF) == (y is INF) for x, y in zip(d, b))
    # increasing second component: any pointwise-smaller d' comes earlier
    for i, (_, dp1) in enumerate(pairs):
        for _, dp2 in pairs[i + 1:]:
            assert not (vec_leq(dp2, dp1) and dp2 != dp1)


def vec_add_with_inf(x, y):
    return tuple(INF if (a is INF or b is INF) else a + b for a, b in zip(x, y))


def test_misc_helpers():
    assert vec_geq((2,), (1,))
    assert is_bound_vec((0, INF)) and not is_bound_vec((-1,))
    assert is_cost_vec((-1, 4)) and not is_cost_vec((INF,))
