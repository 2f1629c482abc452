import random

import pytest

from rbatl import (
    EngineError,
    INF,
    Model,
    Semantics,
    model_check,
    parse_formula,
    rb_atl_label,
    split,
)
from rbatl.formula import sub_ordered, with_bound
from rbatl.symbolic import is_consumption_only

import modelgen
from ladder import ladder_until


def test_refuses_production_models(fig1):
    assert not is_consumption_only(fig1)
    with pytest.raises(EngineError, match="produces"):
        rb_atl_label(fig1, parse_formula("p"))


def test_chain_thresholds(chain):
    assert is_consumption_only(chain)
    two = parse_formula("<{a}: 2> (true U p)")
    one = parse_formula("<{a}: 1> (true U p)")
    assert "c0" in rb_atl_label(chain, two)[two]
    assert "c0" not in rb_atl_label(chain, one)[one]
    assert rb_atl_label(chain, one)[one] == frozenset({"c1", "c2"})


def test_zero_inf_bound_cases(chain):
    # all-INF until reduces to the classical fixpoint
    f = parse_formula("<{a}: inf> (true U p)")
    assert rb_atl_label(chain, f)[f] == chain.state_set()
    # zero-budget always: idle loops qualify everywhere
    g = parse_formula("<{a}: 0> G true")
    assert rb_atl_label(chain, g)[g] == chain.state_set()
    # zero-budget until only reaches p for free
    h = parse_formula("<{a}: 0> (true U p)")
    assert rb_atl_label(chain, h)[h] == frozenset({"c2"})


def test_goal_states_always_labelled(chain):
    # a goal state failing the invariant is still in the until label
    f = parse_formula("<{a}: 2> (false U p)")
    assert rb_atl_label(chain, f)[f] == frozenset({"c2"})
    assert model_check(chain, f)[f] == frozenset({"c2"})


def test_ladder_uses_split_variants(chain):
    f = parse_formula("<{a}: 2> (true U p)")
    labels = rb_atl_label(chain, f)
    texts = {t for t in (
        "<{a}: 0> (true U p)", "<{a}: 1> (true U p)", "<{a}: 2> (true U p)"
    )}
    for text in texts:
        assert parse_formula(text) in labels


def _no_affordable_move():
    """u can only pay 1 to reach v; under a zero budget it has no move."""
    return Model(
        agents=["a0"], resources=["e"], states=["u", "v"], labels={},
        actions={"u": {"a0": {"pay": (1,)}}, "v": {"a0": {"idle": (0,)}}},
        transitions={"u": {("pay",): "v"}, "v": {("idle",): "v"}},
        total=False,
    )


def _free_loop_then_spend():
    """From s, a0's free go leads to o1 or o2 as a1 chooses; o1 goes back
    to s for free, o2 pays 1 to reach the free loop z.  Under budget 1, a0
    keeps h forever from s, o1, o2 and z: the loop through o1 is free and
    the one spend happens at o2.  x is the one state without h."""
    free, idle = (0,), {"idle": (0,)}
    return Model(
        agents=["a0", "a1"], resources=["e"],
        states=["s", "o1", "o2", "z", "x"],
        labels={"h": ["s", "o1", "o2", "z"]},
        actions={
            "s": {"a0": {"go": free}, "a1": {"l": free, "r": free}},
            "o1": {"a0": {"back": free}, "a1": idle},
            "o2": {"a0": {"pay": (1,)}, "a1": idle},
            "z": {"a0": idle, "a1": idle},
            "x": {"a0": idle, "a1": idle},
        },
        transitions={
            "s": {("go", "l"): "o1", ("go", "r"): "o2"},
            "o1": {("back", "idle"): "s"},
            "o2": {("pay", "idle"): "z"},
            "z": {("idle", "idle"): "z"},
            "x": {("idle", "idle"): "x"},
        },
        total=False,
    )


def _agreement_cases():
    rng = random.Random(41)
    for _ in range(40):
        m = modelgen.random_consumption_model(rng)
        yield m, modelgen.random_formula(rng, m), Semantics.RBATL
    for seed in range(60):
        rng = random.Random(seed)
        m = modelgen.random_consumption_model(rng, total=False)
        f = modelgen.random_formula(rng, m)
        for mode in (Semantics.RBATL, Semantics.NT):
            yield m, f, mode
        # with some transitions dropped, one state can mix moves with and
        # without outcomes (seeds 53 and 54 once disagreed under nt)
        partial = modelgen.drop_transitions(rng, m)
        for mode in Semantics:
            yield partial, f, mode
    rng = random.Random(159)  # once gave a wrong <{a1}: 2,2> G label
    m = modelgen.random_consumption_model(rng)
    yield m, modelgen.random_formula(rng, m), Semantics.RBATL
    yield _no_affordable_move(), parse_formula("<{a0}: 0> G true"), Semantics.RBATL
    yield _free_loop_then_spend(), parse_formula("<{a0}: 1> G h"), Semantics.RBATL
    for mode in (Semantics.NT, Semantics.RAL_FINITE):
        yield (modelgen.dead_end_until_game(),
               parse_formula("<{a}: 1> (true U p)"), mode)
        yield modelgen.dead_end_always_game(), parse_formula("<{a}: 0> G true"), mode


def _agree_with_ladder(m, f, mode, sym_labels):
    """Every bounded until of the ladder against the reference, which
    shares no code with the credit engine; the number compared."""
    ladder = ladder_until(m, f, sym_labels, mode)
    for g, want in ladder.items():
        assert sym_labels[g] == want, (mode, g, sorted(sym_labels[g]),
                                       sorted(want))
    return len(ladder)


def test_engine_agreement_random():
    untils = 0
    for m, f, mode in _agreement_cases():
        tree_labels = model_check(m, f, mode)
        sym_labels = rb_atl_label(m, f, mode)
        for g in sub_ordered(f):
            assert tree_labels[g] == sym_labels[g], (
                mode, g, sorted(tree_labels[g]), sorted(sym_labels[g]))
        untils += _agree_with_ladder(m, f, mode, sym_labels)
    assert untils > 500


def test_engine_agreement_with_inf_components():
    rng = random.Random(42)
    untils = 0
    for _ in range(25):
        m = modelgen.random_consumption_model(rng)
        f = modelgen.random_formula(rng, m, inf_prob=0.3)
        tree_labels = model_check(m, f)
        sym_labels = rb_atl_label(m, f)
        for g in sub_ordered(f):
            assert tree_labels[g] == sym_labels[g]
        untils += _agree_with_ladder(m, f, Semantics.RBATL, sym_labels)
    assert untils > 20


def test_label_monotone_across_ladder(chain):
    f = parse_formula("<{a}: 3> (true U p)")
    labels = rb_atl_label(chain, f)
    prev = frozenset()
    for b in range(4):
        cur = labels[parse_formula("<{a}: %d> (true U p)" % b)]
        assert prev <= cur
        prev = cur


def test_unit_cost_chain_ladder_of_201_bounds():
    # c_i wins at bound k iff its distance to p, n - 1 - i, is at most k;
    # the ladder labels all 201 variants off one set of minimal credits
    n = 200
    m = modelgen.zero_cost_chain(n, cost=1)
    f = parse_formula("<{a}: 200> (true U p)")
    labels = rb_atl_label(m, f)
    for k in range(201):
        want = frozenset(f"c{i}" for i in range(n) if n - 1 - i <= k)
        assert labels[with_bound(f, (k,))] == want
