import random
from collections import Counter

from rbatl import (
    INF,
    Model,
    Prop,
    Semantics,
    TRUE,
    atl_label,
    model_check,
    parse_formula,
    pre,
    rb_atl_label,
)
from rbatl.atl import Arena, consumption_joint, moves
from rbatl.formula import sub_ordered
from rbatl.model import JointAction
from rbatl.vectors import all_inf, proj_inf

import modelgen

MODES = (Semantics.RBATL, Semantics.NT, Semantics.RAL_FINITE)


# -- loop-until-stable reference for the arena's pre and fixpoint ----------


def loop_pre(m, coalition, rho, bound, mode):
    """pre rebuilt from `moves` on every call."""
    agents = m.normalize_coalition(coalition)
    return frozenset(
        s for s in m.states
        if any(all(o in rho for o in outs)
               for _, _, _, outs in moves(m, s, agents, bound, mode))
    )


def loop_fixpoint(m, coalition, hold, base, bound, mode, *, greatest=False):
    """The fixpoints by rounds of `loop_pre` until nothing changes."""
    if greatest:
        rho = hold
        while True:
            nxt = hold & (base | loop_pre(m, coalition, rho, bound, mode))
            if nxt == rho:
                return rho
            rho = nxt
    rho, tau = base, hold & loop_pre(m, coalition, base, bound, mode)
    while not tau <= rho:
        rho = rho | tau
        tau = hold & loop_pre(m, coalition, rho, bound, mode)
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


def test_arena_fixpoint_matches_the_loop():
    rng = random.Random(15)
    for m in differential_models(rng):
        for mode in MODES:
            A = modelgen.random_coalition(rng, m)
            arena = Arena(m, A, mode)
            for _ in range(4):
                hold = random_states(rng, m, 0.7)
                base = random_states(rng, m, 0.3)
                bound = modelgen.random_bound(rng, m, inf_prob=0.3)
                for b in (bound, proj_inf(bound), all_inf(m.r)):
                    for greatest in (False, True):
                        want = loop_fixpoint(m, A, hold, base, b, mode,
                                             greatest=greatest)
                        got = arena.fixpoint(hold, base, b, greatest=greatest)
                        assert got == want


def test_arena_fixpoint_keeps_a_move_without_outcomes():
    # s's only move has no outcomes: it wins vacuously under rbatl alone,
    # so s is in both fixpoints with an empty base, and in neither in nt
    m = Model(agents=["a"], resources=["e"], states=["s", "t"], labels={},
              actions={"s": {"a": {"dead": (0,)}}, "t": {"a": {"go": (0,)}}},
              transitions={"t": {("go",): "s"}}, total=False)
    hold, top = frozenset(m.states), all_inf(1)
    for mode, want in ((Semantics.RBATL, hold), (Semantics.NT, frozenset())):
        for greatest in (False, True):
            got = Arena(m, ["a"], mode).fixpoint(hold, frozenset(), top,
                                                 greatest=greatest)
            assert got == want
            assert got == loop_fixpoint(m, ["a"], hold, frozenset(), top,
                                        mode, greatest=greatest)


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
                    want = [(*mv, frozenset(mv[3])) for mv in
                            moves(m, s, arena.agents, all_inf(m.r), mode)]
                    assert list(arena.row(s)) == want
                    checked += 1
    assert checked > 1000


def test_long_chain_fixpoints():
    m = modelgen.zero_cost_chain(2000)
    until = parse_formula("<{a}: 0> (true U p)")
    always = parse_formula("<{a}: inf> G !p")
    assert len(rb_atl_label(m, until)[until]) == 2000
    assert len(rb_atl_label(m, always)[always]) == 1999
