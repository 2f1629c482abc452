import random
from collections import Counter, deque

import pytest

from rbatl import (
    INF,
    FormulaError,
    ModelError,
    Model,
    Semantics,
    VectorError,
    box_strategy,
    find_witness,
    model_check,
    node0,
    parse_formula,
    until_strategy,
    validate_witness,
    with_bound,
)
from rbatl import checker
from rbatl.checker import SearchStats
from rbatl.formula import (
    CoalitionAlways,
    CoalitionNext,
    CoalitionUntil,
    TRUE,
    Or,
    Prop,
    format_formula,
    sub_ordered,
)
from rbatl.vectors import all_inf, is_all_inf

import modelgen
from pumping import pumping_until


def sat(m, text, mode=Semantics.RBATL, **kw):
    f = parse_formula(text)
    return m, f, model_check(m, f, mode, **kw)[f]


def test_fig1_positive_claims(fig1):
    for text in ("<{a1}: 3,1> (true U p)", "<{a1,a2}: 0,1> (true U p)"):
        _, _, states = sat(fig1, text)
        assert "s_I" in states, text


def test_fig1_negative_claims(fig1):
    for text in (
        "<{a1}: 2,1> (true U p)",
        "<{a1}: 3,0> (true U p)",
        "<{a1}: 0,0> (true U p)",
        "<{a1,a2}: 0,0> (true U p)",
    ):
        _, _, states = sat(fig1, text)
        assert "s_I" not in states, text


def test_until_goal_state_needs_no_budget(fig1):
    _, _, states = sat(fig1, "<{a1}: 0,0> (false U p)")
    assert states == frozenset({"s_prime"})


def test_until_guard_prunes(fig1):
    f = parse_formula("<{a1}: 9,9> (true U q)")
    m = Model(
        agents=fig1.agents, resources=fig1.resources, states=fig1.states,
        labels={"p": ["s_prime"], "q": []},
        actions=fig1.actions, transitions=fig1.transitions, total=True,
    )
    labels = model_check(m, f)
    assert labels[f] == frozenset()


def test_box_zero_cost_idling(fig1):
    _, _, states = sat(fig1, "<{a1,a2}: 0,0> G true")
    assert states == fig1.state_set()


def test_box_draining_invariant(drain):
    # keeping p costs one unit per step: no finite budget suffices,
    # while the unbounded modality holds classically
    for b in ("0", "3", "9"):
        _, _, states = sat(drain, "<{a}: %s> G p" % b)
        assert "u" not in states, b
    _, _, states = sat(drain, "<{a}: inf> G p")
    assert "u" in states


def test_box_equal_loop_succeeds_at_zero(drain):
    _, _, states = sat(drain, "<{a}: 0> G true")
    assert states == drain.state_set()


def test_next_dispatches_to_pre(fig1):
    _, _, states = sat(fig1, "<{a1}: 5,0> X p")
    assert states == frozenset({"s", "s_prime"})
    _, _, states = sat(fig1, "<{a1}: 4,0> X p")
    assert states == frozenset({"s_prime"})


def test_and_or_not_desugaring_consistency(fig1):
    m, f, states = sat(fig1, "p & !p | true & false")
    assert states == frozenset()
    _, _, states = sat(fig1, "!(p | !p)")
    assert states == frozenset()


def test_model_check_rejects_bad_inputs(fig1):
    with pytest.raises(FormulaError):
        model_check(fig1, parse_formula("<{a1}: 1> X p"))  # wrong arity
    with pytest.raises(FormulaError):
        model_check(fig1, parse_formula("mystery"))
    broken = Model(
        agents=fig1.agents, resources=fig1.resources, states=fig1.states,
        labels=fig1.labels,
        actions={**fig1.actions,
                 "s": {"a1": {"idle": (0, 0)}, "a2": {"idle": (0, 0)}}},
        transitions=fig1.transitions, total=True,
    )
    with pytest.raises(ModelError):
        model_check(broken, parse_formula("p"))


def test_direct_strategy_entry_points(fig1):
    f = parse_formula("<{a1,a2}: 0,1> (true U p)")
    labels = model_check(fig1, f)
    assert until_strategy(fig1, node0("s_I", (0, 1)), f, labels) is True
    assert until_strategy(fig1, node0("s_I", (0, 0)),
                          with_bound(f, (0, 0)), labels) is False
    g = parse_formula("<{a1}: 0,0> G true")
    glabels = model_check(fig1, g)
    assert box_strategy(fig1, node0("s", (0, 0)), g, glabels) is True


def test_strategies_compute_a_missing_guard(fig1):
    # labels that hold only the children, not the all-INF variants: both
    # entry points compute the guard and agree with model_check
    labels = {Prop("p"): frozenset({"s_prime"}), TRUE: fig1.state_set()}
    for text in ("<{a1,a2}: 0,1> (true U p)", "<{a1,a2}: 0,1> G true",
                 "<{a1}: 0,0> G true"):
        f = parse_formula(text)
        strategy = (until_strategy if isinstance(f, CoalitionUntil)
                    else box_strategy)
        want = model_check(fig1, f)[f]
        for s in fig1.states:
            got = strategy(fig1, node0(s, f.bound), f, labels)
            assert got == (s in want), (text, s)


def test_fan_out_game_joins_outcomes(monkeypatch):
    # b sends s to one of 6 branches, each with 4 moves costing (j, 3 - j):
    # a product over the outcomes' antichains builds 4**6 candidates per
    # move, where joining them one outcome at a time keeps 4.  The product
    # made 29,422 + 9,094 comparisons here.
    m = modelgen.fan_out_game(6, 4)
    calls = 0
    leq = checker._leq

    def counting(x, y):
        nonlocal calls
        calls += 1
        return leq(x, y)

    monkeypatch.setattr(checker, "_leq", counting)
    for text in ("<{a}: 4,4> (true U p)", "<{a}: 4,4> G (p | !p)"):
        assert "s" in sat(m, text)[2]
    assert calls <= 2000
    for text in ("<{a}: 1,1> (true U p)", "<{a}: 1,1> G (p | !p)"):
        assert "s" not in sat(m, text)[2]


def test_inf_bound_search_equals_fixpoint_labelling():
    rng = random.Random(21)
    for _ in range(25):
        m = modelgen.random_model(rng)
        top = all_inf(m.r)
        A = modelgen.random_coalition(rng, m)
        hold = modelgen.random_propositional(rng)
        goal = modelgen.random_propositional(rng)
        for f in (CoalitionUntil(A, top, hold, goal),
                  CoalitionAlways(A, top, hold)):
            labels = model_check(m, f)
            run = (until_strategy if isinstance(f, CoalitionUntil)
                   else box_strategy)
            got = frozenset(s for s in m.states
                            if run(m, node0(s, top), f, labels))
            assert got == labels[f]


def test_bound_monotonicity_random():
    rng = random.Random(22)
    for _ in range(30):
        m = modelgen.random_model(rng)
        A = modelgen.random_coalition(rng, m)
        hold = modelgen.random_propositional(rng)
        goal = modelgen.random_propositional(rng)
        b = modelgen.random_bound(rng, m)
        bigger = tuple(x + rng.randint(0, 2) for x in b)
        kind = rng.choice(("U", "G", "X"))
        if kind == "U":
            small = CoalitionUntil(A, b, hold, goal)
        elif kind == "G":
            small = CoalitionAlways(A, b, hold)
        else:
            small = CoalitionNext(A, b, hold)
        large = with_bound(small, bigger)
        unbounded = with_bound(small, all_inf(m.r))
        low = model_check(m, small)[small]
        high = model_check(m, large)[large]
        top = model_check(m, unbounded)[unbounded]
        assert low <= high <= top


def test_implicit_hold_soundness():
    # every state satisfying the unbounded until outside the goal region
    # must satisfy the hold formula (justifies skipping an explicit check)
    rng = random.Random(23)
    for _ in range(25):
        m = modelgen.random_model(rng)
        A = modelgen.random_coalition(rng, m)
        hold = modelgen.random_propositional(rng)
        goal = modelgen.random_propositional(rng)
        f = CoalitionUntil(A, all_inf(m.r), hold, goal)
        labels = model_check(m, f)
        assert labels[f] - labels[goal] <= labels[hold]


def _differential_cases():
    rng = random.Random(24)
    for i in range(100):
        m = modelgen.random_model(rng, max_states=8, total=i % 2 == 0)
        cases = [m, modelgen.drop_transitions(rng, m)] if i % 3 == 0 else [m]
        f = CoalitionUntil(modelgen.random_coalition(rng, m),
                           modelgen.random_bound(rng, m),
                           modelgen.random_formula(rng, m, modal_depth=1),
                           modelgen.random_propositional(rng))
        for g in (f, modelgen.random_formula(rng, m)):
            yield from ((case, g) for case in cases)
    until_game = modelgen.dead_end_until_game()
    for b in (0, 1, 5):
        yield until_game, parse_formula("<{a}: %d> (true U p)" % b)
    always_game = modelgen.dead_end_always_game()
    for b in (0, 1, 2):
        yield always_game, CoalitionUntil(
            ("a",), (b,), TRUE,
            Or(CoalitionNext(("a",), (1,), TRUE),
               CoalitionAlways(("a",), (b,), TRUE)))


def test_credits_match_pumping_search():
    # the paper's pumping search is the reference for every bounded until
    # label, and each satisfied state's certificate replays as it is
    checked = 0
    for m, f in _differential_cases():
        for mode in Semantics:
            labels = model_check(m, f, mode)
            for g in sub_ordered(f):
                if not isinstance(g, CoalitionUntil) or is_all_inf(g.bound):
                    continue
                agents = m.normalize_coalition(g.coalition)
                guard = labels[with_bound(g, all_inf(m.r))]
                want = frozenset(
                    s for s in m.states
                    if pumping_until(m, agents, guard, labels[g.goal], mode,
                                     s, g.bound))
                assert labels[g] == want, (format_formula(g), mode)
                for s in labels[g]:
                    tree = find_witness(m, g, s, mode, labels=labels)
                    assert validate_witness(m, tree,
                                            phi_states=labels[g.hold],
                                            psi_states=labels[g.goal])
                checked += 1
    assert checked >= 500


def test_zero_cost_chain_of_2000_states():
    n = 2000
    m = modelgen.zero_cost_chain(n)
    f = parse_formula("<{a}: 0> (true U p)")
    stats = SearchStats()
    assert model_check(m, f, stats=stats)[f] == m.state_set()
    assert stats.nodes == n  # one credit per state; the guard is read off it


def test_zero_cost_chain_until_recomputes_each_state_once(monkeypatch):
    # credit 0 is final for an until, so a state that holds it is not
    # queued again when its idle loop or its successor changes
    runs = []

    class Recording(deque):
        def __init__(self, *args):
            super().__init__(*args)
            self.popped = Counter()
            runs.append(self.popped)

        def popleft(self):
            s = super().popleft()
            self.popped[s] += 1
            return s

    monkeypatch.setattr(checker, "deque", Recording)
    n = 50
    m = modelgen.zero_cost_chain(n)
    f = parse_formula("<{a}: 0> (true U p)")
    assert model_check(m, f)[f] == m.state_set()
    solved = m.state_set() - m.proposition_states("p")
    assert len(runs) == 1  # f's run also gives its guard
    for popped in runs:
        assert set(popped) == solved
        assert set(popped.values()) == {1}


def test_bounded_until_reads_its_guard_off_its_own_run(monkeypatch):
    # the all-INF variant is the set of states with any credit of the
    # bounded until's run, so it runs no credits of its own
    made = []
    credits = checker._Credits

    def counted(arena, f, *args):
        made.append(f)
        return credits(arena, f, *args)

    monkeypatch.setattr(checker, "_Credits", counted)
    m = modelgen.zero_cost_chain(6)
    f = parse_formula("<{a}: 3> (true U p)")
    labels = model_check(m, f)
    assert len(made) == 1
    assert labels[f] == labels[with_bound(f, (INF,))] == m.state_set()


def test_untils_of_two_inf_patterns_read_one_run_exactly():
    # the conjuncts share one run over both components, and each reads
    # the label it has alone, where its run tracks only its finite one
    f = parse_formula("<{a0}: 2,inf> (p U q) & <{a0}: inf,1> (p U q)")
    rng = random.Random(43)
    checked = pruned = 0
    for i in range(200):
        m = modelgen.random_model(rng, max_states=8, cost_hi=5,
                                  total=i % 2 == 0)
        cases = [m, modelgen.drop_transitions(rng, m)] if i % 3 == 0 else [m]
        for case in cases:
            for mode in Semantics:
                labels = model_check(case, f, mode)
                guard = labels[with_bound(f.left, all_inf(2))]
                for g in (f.left, f.right):
                    assert labels[g] == model_check(case, g, mode)[g], (
                        i, mode, format_formula(g))
                    checked += 1
                    pruned += labels[g] != guard
    assert checked >= 1500 and pruned >= 50  # bounds that bind


def test_wrong_length_availability_raises(fig1):
    f = CoalitionUntil(("a1", "a2"), (0,), TRUE, Prop("p"))
    labels = {TRUE: fig1.state_set(), Prop("p"): frozenset({"s_prime"})}
    with pytest.raises(VectorError):
        until_strategy(fig1, node0("s_I", (0,)), f, labels)
    g = CoalitionAlways(("a1", "a2"), (0,), TRUE)
    with pytest.raises(VectorError):
        box_strategy(fig1, node0("s_I", (0,)), g, labels)


def test_single_resource_depth_bound():
    rng = random.Random(25)
    for _ in range(30):
        m = modelgen.random_model(rng, r=1)
        f = modelgen.random_formula(rng, m, modal_depth=1)
        stats = SearchStats()
        model_check(m, f, stats=stats)
        assert stats.max_depth <= 2 * len(m.states) + 1


def test_ral_mode_uses_consumption_filter(fig4):
    f = parse_formula("<{a,b}: 0> X p")
    assert "s" in model_check(fig4, f, Semantics.RBATL)[f]
    assert "s" in model_check(fig4, f, Semantics.NT)[f]
    assert "s" not in model_check(fig4, f, Semantics.RAL_FINITE)[f]
    g = parse_formula("<{a,b}: 1> X p")
    assert "s" in model_check(fig4, g, Semantics.RAL_FINITE)[g]


def test_ral_mode_until(fig4):
    f = parse_formula("<{a,b}: 0> (true U p)")
    assert "s" in model_check(fig4, f, Semantics.NT)[f]
    assert "s" not in model_check(fig4, f, Semantics.RAL_FINITE)[f]


def test_stats_are_populated(fig1):
    f = parse_formula("<{a1,a2}: 0,1> (true U p)")
    stats = SearchStats()
    model_check(fig1, f, stats=stats)
    assert stats.nodes > 0
    assert stats.max_depth >= 3


def _consumption_always_cases():
    """Bounded always over consumption-only models, r = 1-3, total,
    non-total and with dropped transitions, 20% inf components, for each
    of the four coalitions of two agents, the empty one included."""
    rng = random.Random(31)
    coalitions = ((), ("a0",), ("a1",), ("a0", "a1"))
    for i in range(80):
        m = modelgen.random_consumption_model(rng, r=1 + i % 3,
                                              total=i % 2 == 0)
        if i % 3 == 0:
            m = modelgen.drop_transitions(rng, m)
        for A in coalitions:
            child = modelgen.random_formula(rng, m, modal_depth=1,
                                            inf_prob=0.2)
            bound = modelgen.random_bound(rng, m, inf_prob=0.2)
            if is_all_inf(bound):
                bound = (0,) + bound[1:]
            yield m, CoalitionAlways(A, bound, child)


def test_always_credits_match_tree_search():
    # the and-or tree search is the reference for every bounded always
    # label of a consumption-only model, which credits decide
    checked = 0
    for m, f in _consumption_always_cases():
        for mode in Semantics:
            labels = model_check(m, f, mode)
            for g in sub_ordered(f):
                if not isinstance(g, CoalitionAlways) or is_all_inf(g.bound):
                    continue
                want = frozenset(
                    s for s in m.states
                    if box_strategy(m, node0(s, g.bound), g, labels, mode))
                assert labels[g] == want, (format_formula(g), mode)
                checked += 1
    assert checked >= 1000


def test_always_with_production_needs_credit_above_the_bound():
    # s produces 10 on its way to t, where pay spends 6 to reach the free
    # loop u; idle leads out of h.  A cap at the bound 0 would lose s.
    m = Model(
        agents=["a"], resources=["e"], states=["s", "t", "u", "x"],
        labels={"h": ["s", "t", "u"]},
        actions={"s": {"a": {"idle": (0,), "prod": (-10,)}},
                 "t": {"a": {"idle": (0,), "pay": (6,)}},
                 "u": {"a": {"idle": (0,)}}, "x": {"a": {"idle": (0,)}}},
        transitions={"s": {("idle",): "x", ("prod",): "t"},
                     "t": {("idle",): "x", ("pay",): "u"},
                     "u": {("idle",): "u"}, "x": {("idle",): "x"}},
        total=True)
    f = parse_formula("<{a}: 0> G h")
    for mode in Semantics:
        assert model_check(m, f, mode)[f] == frozenset({"s", "u"}), mode


def test_empty_coalition_always_spends_nothing():
    # the tree search walked every simple path of this 20-state game,
    # about 2.9M nodes; the empty coalition spends nothing, so the bound
    # does not matter and credits recompute each state once
    m = modelgen.random_model(random.Random(6), max_states=20)
    f = parse_formula("<{}: 1,3> G (q | q | !q)")
    stats = SearchStats()
    labels = model_check(m, f, stats=stats)
    assert labels[f] == labels[with_bound(f, all_inf(m.r))]
    assert stats.nodes <= 100


def test_labels_come_in_sub_ordered_order():
    rng = random.Random(7)
    for _ in range(40):
        m = modelgen.random_model(rng, max_states=4, r=2)
        f = modelgen.random_formula(rng, m, inf_prob=0.2)
        assert list(model_check(m, f)) == sub_ordered(f)
