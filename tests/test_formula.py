import copy
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbatl import (
    FALSE,
    INF,
    TRUE,
    And,
    CoalitionAlways,
    CoalitionNext,
    CoalitionUntil,
    FormulaError,
    Not,
    Or,
    Prop,
    format_formula,
    parse_formula,
    sub_ordered,
    sub_plus,
    translate_endowments,
    with_bound,
)
import rbatl.formula
from rbatl.formula import children, is_modal
from rbatl.vectors import all_inf, is_all_inf


def test_parse_until_example():
    f = parse_formula("<{a1}: 3,1> (true U p)")
    assert f == CoalitionUntil(("a1",), (3, 1), TRUE, Prop("p"))


def test_parse_inf_bound_is_unbounded_modality():
    f = parse_formula("<{a1}: inf,inf> G p")
    assert f == CoalitionAlways(("a1",), (INF, INF), Prop("p"))
    assert is_all_inf(f.bound)


def test_parse_negative_bound_rejected():
    with pytest.raises(FormulaError):
        parse_formula("<{a1}: -1> X p")


def test_parse_error_positions():
    with pytest.raises(FormulaError) as err:
        parse_formula("p | ")
    assert err.value.position == 4
    with pytest.raises(FormulaError):
        parse_formula("<{a}: 1> (p U q")
    with pytest.raises(FormulaError):
        parse_formula("p q")


def test_parse_connective_precedence():
    f = parse_formula("!p | q & r")
    assert f == Or(Not(Prop("p")), And(Prop("q"), Prop("r")))


def test_parse_empty_coalition_and_nested():
    f = parse_formula("<{}: 0> X <{a,b}: 1,2> G p")
    assert f == CoalitionNext(
        (), (0,), CoalitionAlways(("a", "b"), (1, 2), Prop("p"))
    )


def test_coalitions_normalize():
    assert CoalitionNext(("b", "a", "a"), (0,), TRUE).coalition == ("a", "b")
    assert parse_formula("<{b,a}: 0> X p") == parse_formula("<{a,b}: 0> X p")


def test_endowment_translation_examples():
    assert translate_endowments("<{a:1; b:2}> X p") == CoalitionNext(
        ("a", "b"), (3,), Prop("p")
    )
    assert translate_endowments("<{a:2,1}> G p") == CoalitionAlways(
        ("a",), (2, 1), Prop("p")
    )
    assert translate_endowments("<{a:inf; b:2}> X p").bound == (INF,)


def test_endowment_missing_row():
    with pytest.raises(FormulaError, match="no endowment row"):
        translate_endowments("<{a; b:2}> X p")
    with pytest.raises(FormulaError, match="no endowment row"):
        translate_endowments("<{a:1; b}> X p")
    with pytest.raises(FormulaError):
        parse_formula("<{a:1; b:2}> X p")  # only the translator accepts rows


names = st.sampled_from(["p", "q", "r0"])
agent_sets = st.lists(st.sampled_from(["a1", "a2", "a3"]), min_size=0,
                      max_size=3).map(lambda xs: tuple(sorted(set(xs))))
bound_vecs = st.lists(
    st.one_of(st.integers(min_value=0, max_value=9), st.just(INF)),
    min_size=1, max_size=3,
).map(tuple)


def formulas(depth=3):
    base = st.one_of(st.just(TRUE), st.just(FALSE), names.map(Prop))
    if depth == 0:
        return base
    sub = formulas(depth - 1)
    return st.one_of(
        base,
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(agent_sets, bound_vecs, sub).map(
            lambda t: CoalitionNext(*t)
        ),
        st.tuples(agent_sets, bound_vecs, sub).map(
            lambda t: CoalitionAlways(*t)
        ),
        st.tuples(agent_sets, bound_vecs, sub, sub).map(
            lambda t: CoalitionUntil(*t)
        ),
    )


@given(formulas())
def test_print_parse_round_trip(f):
    assert parse_formula(format_formula(f)) == f


@given(formulas(depth=2))
def test_sub_ordered_invariants(f):
    order = sub_ordered(f)
    assert order[-1] == f
    assert len(order) == len(set(order))
    index = {g: i for i, g in enumerate(order)}
    for g in order:
        for c in children(g):
            assert index[c] < index[g]
        if is_modal(g) and not is_all_inf(g.bound):
            assert index[with_bound(g, all_inf(len(g.bound)))] < index[g]


def test_sub_ordered_example_order():
    f = parse_formula("<{a1}: 3,1> (true U p)")
    order = sub_ordered(f)
    expected = [TRUE, Prop("p"), with_bound(f, (INF, INF)), f]
    assert [g for g in order if g in expected] == expected


def test_sub_ordered_nested_modalities():
    inner = CoalitionAlways(("a",), (1,), Prop("p"))
    outer = CoalitionUntil(("a",), (2,), inner, Prop("q"))
    order = sub_ordered(outer)
    index = {g: i for i, g in enumerate(order)}
    for inner_version in (inner, with_bound(inner, (INF,))):
        for outer_version in (outer, with_bound(outer, (INF,))):
            assert index[inner_version] < index[outer_version]


def test_sub_plus_split_variants():
    f = CoalitionAlways(("a",), (2,), Prop("p"))
    order = sub_plus(f)
    assert with_bound(f, (1,)) in order
    assert with_bound(f, (0,)) in order
    index = {g: i for i, g in enumerate(order)}
    assert index[with_bound(f, (0,))] < index[with_bound(f, (1,))] < index[f]


def test_sub_plus_inf_bound_adds_nothing():
    f = CoalitionAlways(("a",), (INF,), Prop("p"))
    assert sub_plus(f) == sub_ordered(f)


def bound_monotone(order):
    """Whether each modality in order comes after its all-INF variant, and
    each until/always after every variant of it with the same type,
    coalition, children and INF components and a pointwise smaller bound.

    Per key, over the grid of the bounds' own component values,
    latest[v] is the largest index of a variant whose bound is <= v.
    Every strictly smaller bound is <= one of v's one-step-lower grid
    points, so the check costs grid points times components, not pairs.
    """
    index = {g: i for i, g in enumerate(order)}
    groups = {}
    for i, g in enumerate(order):
        if not is_modal(g):
            continue
        if index.get(with_bound(g, all_inf(len(g.bound))), i + 1) > i:
            return False
        if not isinstance(g, CoalitionNext):
            key = (type(g), g.coalition, children(g),
                   tuple(x is INF for x in g.bound))
            groups.setdefault(key, {})[g.bound] = i
    for at in groups.values():
        r = len(next(iter(at)))
        values = [sorted({b[k] for b in at}) for k in range(r)]
        lower = [dict(zip(vs[1:], vs)) for vs in values]
        latest = {}
        for v in itertools.product(*values):
            below = max((latest[v[:k] + (lower[k][v[k]],) + v[k + 1:]]
                         for k in range(r) if v[k] in lower[k]), default=-1)
            if v in at and at[v] < below:
                return False
            latest[v] = max(below, at.get(v, -1))
    return True


@given(formulas(depth=2))
def test_sub_plus_is_bound_monotone_order(f):
    order = sub_plus(f)
    assert set(sub_ordered(f)) <= set(order)
    assert len(order) == len(set(order))
    index = {g: i for i, g in enumerate(order)}
    for g in order:
        for c in children(g):
            assert index[c] < index[g]
    assert bound_monotone(order)


def test_bound_monotone_rejects_misordered_variants():
    f = CoalitionAlways(("a1",), (2, 1, INF), Prop("p"))
    order = sub_plus(f)
    assert bound_monotone(order)
    shuffled = list(order)
    random.Random(0).shuffle(shuffled)
    assert not bound_monotone(shuffled)
    # one swapped pair: a finite bound and a finite bound below it
    i, j = order.index(f), order.index(with_bound(f, (1, 1, INF)))
    swapped = list(order)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert not bound_monotone(swapped)
    # the all-INF variant after a bounded version
    top = with_bound(f, (INF, INF, INF))
    late = [g for g in order if g != top] + [top]
    assert not bound_monotone(late)


def test_format_formula_prints_any_depth():
    f = Prop("p")
    for _ in range(5000):
        f = Not(f)
    assert format_formula(f) == "!" * 5000 + "p"


def test_deep_formula_hashes_compares_and_formats():
    def build():
        f = Prop("p")
        for _ in range(100000):
            f = Not(f)
        return f

    f, g = build(), build()
    assert f is g and f == g and hash(f) == hash(g)
    assert {f: 1}[g] == 1
    assert format_formula(f) == repr(f) == "!" * 100000 + "p"
    assert copy.deepcopy(f) is f and copy.copy(f) is f
    del f, g  # freeing a deep chain must not overflow either


def test_equal_formulas_are_one_node():
    text = "<{b,a}: 2,inf> (p U !q) & <{}: 0,1> G (p | true)"
    f = parse_formula(text)
    assert parse_formula(text) is f
    assert parse_formula(format_formula(f)) is f
    assert CoalitionNext(["a", "a"], [1], TRUE) is CoalitionNext(("a",), (1,), TRUE)
    with pytest.raises(AttributeError):
        f.left = TRUE
    with pytest.raises(AttributeError):
        del f.left


def test_all_inf_variant_is_already_in_the_closure():
    f = parse_formula("<{a}: 1,2> X <{b}: 0,inf> (p U <{}: 3,3> G q)")
    order = sub_ordered(f)
    nodes = len(rbatl.formula._table)
    for g in order:
        if is_modal(g):
            top = with_bound(g, all_inf(len(g.bound)))
            assert any(h is top for h in order)
    assert len(rbatl.formula._table) == nodes  # every lookup was a hit
