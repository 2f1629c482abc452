import random
from collections import Counter

import pytest

from rbatl import (
    INF,
    CoalitionAlways,
    CoalitionUntil,
    Model,
    Prop,
    Semantics,
    TRUE,
    VectorError,
    atl_label,
    model_check,
    parse_formula,
    pre,
    rb_atl_label,
)
from rbatl.atl import Arena, consumption_joint, move, moves
from rbatl.formula import sub_ordered
from rbatl.model import JointAction
from rbatl.vectors import all_inf

import modelgen

MODES = (Semantics.RBATL, Semantics.NT, Semantics.RAL_FINITE)


# -- loop-until-stable reference for the arena's pre and the fixpoints ----


def loop_pre(m, coalition, rho, bound, mode):
    """pre rebuilt from `moves` on every call."""
    agents = m.normalize_coalition(coalition)
    return frozenset(
        s for s in m.states
        if any(all(o in rho for o in outs)
               for _, _, _, outs in moves(m, s, agents, bound, mode))
    )


def loop_fixpoint(m, coalition, hold, goal, mode):
    """The fixpoints under the all-INF bound by rounds of `loop_pre` until
    nothing changes: the least one given a goal, else the greatest."""
    top = all_inf(m.r)
    if goal is None:
        rho = hold
        while True:
            nxt = hold & loop_pre(m, coalition, rho, top, mode)
            if nxt == rho:
                return rho
            rho = nxt
    rho, tau = goal, hold & loop_pre(m, coalition, goal, top, mode)
    while not tau <= rho:
        rho = rho | tau
        tau = hold & loop_pre(m, coalition, rho, top, mode)
    return rho


def differential_models(rng):
    """Random models (total, non-total and with dropped transitions) and
    the two dead-end games, some consumption-only."""
    yield modelgen.dead_end_until_game()
    yield modelgen.dead_end_always_game()
    for _ in range(12):
        m = modelgen.random_model(rng, max_states=7)
        yield m
        yield modelgen.drop_transitions(rng, m)
        yield modelgen.random_model(rng, max_states=7, total=False)
        yield modelgen.random_consumption_model(rng, max_states=7)


def random_states(rng, m, p):
    return frozenset(s for s in m.states if rng.random() < p)


def test_pre_empty_target_on_total_model(fig1):
    assert pre(fig1, ("a1",), frozenset(), (INF, INF)) == frozenset()


def test_pre_expensive_move(fig1):
    assert "s" in pre(fig1, ("a1",), {"s_prime"}, (5, 0))
    assert "s" not in pre(fig1, ("a1",), {"s_prime"}, (4, 0))


def test_pre_mode_split(fig4):
    # the joint move is free as a net sum but costs one unit of consumption
    assert "s" in pre(fig4, ("a", "b"), {"t"}, (0,), Semantics.RBATL)
    assert "s" in pre(fig4, ("a", "b"), {"t"}, (0,), Semantics.NT)
    assert "s" not in pre(fig4, ("a", "b"), {"t"}, (0,), Semantics.RAL_FINITE)
    assert "s" in pre(fig4, ("a", "b"), {"t"}, (1,), Semantics.RAL_FINITE)


def test_pre_nt_requires_outcomes(fig4):
    # t is a deadlock: the empty coalition's only move has no outcomes,
    # which counts vacuously under the total-model reading but not in nt
    assert "t" in pre(fig4, (), {"t"}, (INF,), Semantics.RBATL)
    assert "t" not in pre(fig4, (), {"t"}, (INF,), Semantics.NT)
    # a coalition with an empty menu has no move at all in any mode
    assert "t" not in pre(fig4, ("a", "b"), {"t"}, (INF,), Semantics.RBATL)


def test_consumption_joint(fig4):
    move = JointAction(("a", "b"), ("alpha", "beta"))
    assert fig4.cost_joint("s", move) == (0,)
    assert consumption_joint(fig4, "s", move) == (1,)


def test_atl_label_next_true_is_everything(fig1):
    f = parse_formula("<{a1}: inf,inf> X true")
    assert model_check(fig1, f)[f] == fig1.state_set()


def test_atl_label_until_fixpoint(fig1):
    f = parse_formula("<{a1}: inf,inf> (true U p)")
    assert "s_I" in model_check(fig1, f)[f]


def test_atl_label_always_false_is_empty(fig1):
    f = parse_formula("<{a1}: inf,inf> G false")
    assert model_check(fig1, f)[f] == frozenset()


def test_pre_monotone_in_target_and_bound():
    rng = random.Random(11)
    for _ in range(20):
        m = modelgen.random_model(rng)
        A = modelgen.random_coalition(rng, m)
        rho1 = {s for s in m.states if rng.random() < 0.4}
        rho2 = rho1 | {s for s in m.states if rng.random() < 0.3}
        b1 = modelgen.random_bound(rng, m)
        b2 = tuple(x + rng.randint(0, 2) for x in b1)
        for mode in (Semantics.RBATL, Semantics.NT):
            assert pre(m, A, rho1, b1, mode) <= pre(m, A, rho2, b1, mode)
            assert pre(m, A, rho1, b1, mode) <= pre(m, A, rho1, b2, mode)


def test_fixpoints_stabilize_within_state_count():
    rng = random.Random(12)
    for _ in range(10):
        m = modelgen.random_model(rng)
        top = all_inf(m.r)
        goal = m.proposition_states("p")
        rho = frozenset()
        for _ in range(len(m.states) + 1):
            nxt = goal | pre(m, m.agents, rho, top)
            if nxt == rho:
                break
            rho = nxt
        else:
            raise AssertionError("until fixpoint did not stabilize in |S| steps")


def test_nt_equals_rbatl_on_total_models():
    rng = random.Random(13)
    for _ in range(15):
        m = modelgen.random_model(rng, total=True)
        f = modelgen.random_formula(rng, m)
        a = model_check(m, f, Semantics.RBATL)
        b = model_check(m, f, Semantics.NT)
        assert all(a[g] == b[g] for g in sub_ordered(f))


def test_arena_pre_matches_the_loop():
    rng = random.Random(14)
    checked = 0
    for m in differential_models(rng):
        for mode in MODES:
            A = modelgen.random_coalition(rng, m)
            arena = Arena(m, A, mode)  # one arena across many calls
            for _ in range(6):
                rho = random_states(rng, m, 0.5)
                bound = modelgen.random_bound(rng, m, inf_prob=0.3)
                for b in (bound, all_inf(m.r)):
                    assert arena.pre(rho, b) == loop_pre(m, A, rho, b, mode)
                    assert pre(m, A, rho, b, mode) == arena.pre(rho, b)
                    checked += 1
    assert checked > 1000


def unbounded(m, A, hold, goal, mode):
    """The all-INF until (given a goal) or always over placeholder
    propositions labelled hold and goal, by `atl_label`."""
    labels = {Prop("h"): hold, Prop("g"): goal}
    if goal is None:
        f = CoalitionAlways(A, all_inf(m.r), Prop("h"))
    else:
        f = CoalitionUntil(A, all_inf(m.r), Prop("h"), Prop("g"))
    return atl_label(m, f, labels, mode)


def test_arena_fixpoint_matches_the_loop():
    rng = random.Random(15)
    for m in differential_models(rng):
        for mode in MODES:
            A = modelgen.random_coalition(rng, m)
            for _ in range(4):
                hold = random_states(rng, m, 0.7)
                goal = random_states(rng, m, 0.3)
                for g in (goal, None):
                    want = loop_fixpoint(m, A, hold, g, mode)
                    assert unbounded(m, A, hold, g, mode) == want


def test_arena_fixpoint_keeps_a_move_without_outcomes():
    # s's only move has no outcomes: it wins vacuously under rbatl alone,
    # so s is in both fixpoints with an empty base, and in neither in nt
    m = Model(agents=["a"], resources=["e"], states=["s", "t"], labels={},
              actions={"s": {"a": {"dead": (0,)}}, "t": {"a": {"go": (0,)}}},
              transitions={"t": {("go",): "s"}}, total=False)
    hold = frozenset(m.states)
    for mode, want in ((Semantics.RBATL, hold), (Semantics.NT, frozenset())):
        for goal in (frozenset(), None):
            got = unbounded(m, ["a"], hold, goal, mode)
            assert got == want
            assert got == loop_fixpoint(m, ["a"], hold, goal, mode)


def count_rows(monkeypatch):
    calls = Counter()
    compile_row = Arena._compile_row

    def counted(arena, state):
        calls[state, arena.agents] += 1
        return compile_row(arena, state)

    monkeypatch.setattr(Arena, "_compile_row", counted)
    return calls


def test_rows_compiled_once_per_state_coalition_and_call(monkeypatch):
    rng = random.Random(16)
    m = modelgen.random_consumption_model(rng, max_states=12)
    while len(m.states) < 12:
        m = modelgen.random_consumption_model(rng, max_states=12)
    calls = count_rows(monkeypatch)
    f = parse_formula("<{a0}: 3,3> (!q U p)")
    rb_atl_label(m, f)
    assert calls and max(calls.values()) == 1
    calls.clear()
    chain = modelgen.zero_cost_chain(100)
    model_check(chain, parse_formula("<{a}: 0> (true U p)"))
    assert calls and max(calls.values()) == 1


def test_compiled_rows_match_moves():
    # besides the random models, an unvalidated one whose transitions use
    # an action outside a menu, the wrong arity or an undeclared target,
    # with states declared out of name order
    stray = Model(
        agents=["a", "b"], resources=["e"], states=["s", "t", "d"],
        labels={},
        actions={"s": {"a": {"go": (1,), "stay": (0,)},
                       "b": {"x": (-1,), "z": (0,)}},
                 "t": {"a": {"go": (0,)}}},
        transitions={"s": {("go", "x"): "t", ("go", "z"): "d",
                           ("go", "y"): "s", ("stay",): "s",
                           ("fly", "x"): "s", ("stay", "x"): "gone",
                           ("stay", "z"): "s"},
                     "t": {("go", "x"): "s"}},
        total=False)
    rng = random.Random(17)
    checked = 0
    for m in [stray, *differential_models(rng)]:
        for mode in MODES:
            for A in ([], list(m.agents), modelgen.random_coalition(rng, m)):
                arena = Arena(m, A, mode)
                for s in m.states:
                    want = [(mv[0].actions, mv[1], mv[2], tuple(mv[3]))
                            for mv in moves(m, s, arena.agents, all_inf(m.r),
                                            mode)]
                    assert list(arena.row(s)) == want
                    checked += 1
    assert checked > 1000
    # a multi-outcome row keeps model state order, not name order
    assert Arena(stray, ["a"]).row("s")[0][3] == ("t", "d")
    assert Arena(stray, []).row("s")[0][3] == ("s", "t", "d", "gone")


def test_row_and_move_check_cost_lengths():
    # an unvalidated one-resource model whose action x costs a 2-vector
    m = Model(
        agents=["a", "b"], resources=["e"], states=["s"], labels={},
        actions={"s": {"a": {"x": (1, 2)}, "b": {"y": (0,)}}},
        transitions={"s": {("x", "y"): "s"}}, total=False)
    for mode in MODES:
        for A in (["a"], ["a", "b"]):
            with pytest.raises(VectorError):
                Arena(m, A, mode).row("s")
            ja = JointAction(tuple(A), ("x", "y")[:len(A)])
            with pytest.raises(VectorError):
                move(m, "s", ja, all_inf(1), mode)
    with pytest.raises(VectorError):
        Arena(modelgen.zero_cost_chain(2), ["a"]).moves("c0", (0, 0))


def test_long_chain_fixpoints():
    m = modelgen.zero_cost_chain(2000)
    until = parse_formula("<{a}: 0> (true U p)")
    always = parse_formula("<{a}: inf> G !p")
    assert len(rb_atl_label(m, until)[until]) == 2000
    assert len(rb_atl_label(m, always)[always]) == 1999
