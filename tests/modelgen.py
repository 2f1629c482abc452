"""Seeded random models, nets and formulas for the differential suites,
and small fixed games that the engines once disagreed on."""

import itertools

from rbatl import Model, PetriNet, Prop, TRUE, Not, Or, And
from rbatl import CoalitionNext, CoalitionAlways, CoalitionUntil
from rbatl.vectors import all_inf

PROPS = ("p", "q")


def random_model(rng, *, max_states=6, n_agents=2, r=2, max_extra_actions=2,
                 cost_lo=-2, cost_hi=3, total=True):
    n_states = rng.randint(2, max_states)
    states = [f"s{i}" for i in range(n_states)]
    agents = [f"a{i}" for i in range(n_agents)]
    resources = [f"r{i}" for i in range(r)]
    actions = {}
    for s in states:
        actions[s] = {}
        for a in agents:
            menu = {}
            if total:
                menu["idle"] = (0,) * r
            elif rng.random() < 0.15:
                actions[s][a] = {}
                continue
            elif rng.random() < 0.6:
                menu["idle"] = (0,) * r
            lo = 0 if menu else 1
            for j in range(rng.randint(lo, max_extra_actions)):
                menu[f"x{j}"] = tuple(
                    rng.randint(cost_lo, cost_hi) for _ in range(r)
                )
            actions[s][a] = menu
    transitions = {}
    for s in states:
        menus = [tuple(actions[s][a]) for a in agents]
        moves = {}
        if all(menus):
            for combo in itertools.product(*menus):
                moves[combo] = rng.choice(states)
        transitions[s] = moves
    labels = {
        p: [s for s in states if rng.random() < 0.4] for p in PROPS
    }
    return Model(agents=agents, resources=resources, states=states,
                 labels=labels, actions=actions, transitions=transitions,
                 total=total)


def random_consumption_model(rng, **kw):
    kw.setdefault("cost_lo", 0)
    return random_model(rng, **kw)


def drop_transitions(rng, m, frac=0.3):
    """A non-total copy of m without about frac of each state's transition
    entries, so that one state can mix moves with and without outcomes."""
    transitions = {
        s: {combo: t for combo, t in moves.items() if rng.random() >= frac}
        for s, moves in m.transitions.items()
    }
    return Model(agents=m.agents, resources=m.resources, states=m.states,
                 labels=m.labels, actions=m.actions, transitions=transitions,
                 total=False)


def dead_end_until_game():
    """At s, go costs 5 and reaches the p-state t; dead is free and has no
    transition.  Under budget 1 only dead fits, and it counts only under
    rbatl, so <{a}: 1> (true U p) holds at s under rbatl alone."""
    return Model(
        agents=["a"], resources=["e"], states=["s", "t"], labels={"p": ["t"]},
        actions={"s": {"a": {"go": (5,), "dead": (0,)}},
                 "t": {"a": {"stay": (0,)}}},
        transitions={"s": {("go",): "t"}, "t": {("stay",): "t"}},
        total=False,
    )


def dead_end_always_game():
    """One state s: loop costs 1 and returns to s, dead is free and has no
    transition.  <{a}: 0> G true holds at s under rbatl alone, by dead."""
    return Model(
        agents=["a"], resources=["e"], states=["s"], labels={},
        actions={"s": {"a": {"loop": (1,), "dead": (0,)}}},
        transitions={"s": {("loop",): "s"}},
        total=False,
    )


def zero_cost_chain(n, cost=0):
    """Total chain c0 .. c(n-1) with p at the end: idle loops in place for
    free and go steps to the next state, free unless `cost` is given."""
    states = [f"c{i}" for i in range(n)]
    actions = {s: {"a": {"idle": (0,), "go": (cost,)}} for s in states}
    transitions = {s: {("idle",): s, ("go",): states[min(i + 1, n - 1)]}
                   for i, s in enumerate(states)}
    return Model(agents=["a"], resources=["e"], states=states,
                 labels={"p": [states[-1]]}, actions=actions,
                 transitions=transitions, total=True)


def fig1_with_gamma(fig1, k):
    """fig1 with the expensive move gamma costing k of r1."""
    actions = dict(fig1.actions)
    actions["s"] = {"a1": {"idle": (0, 0), "gamma": (k, 0)},
                    "a2": actions["s"]["a2"]}
    return Model(agents=fig1.agents, resources=fig1.resources,
                 states=fig1.states, labels=fig1.labels, actions=actions,
                 transitions=fig1.transitions, total=True)


def random_propositional(rng):
    roll = rng.random()
    p = Prop(rng.choice(PROPS))
    if roll < 0.45:
        return p
    if roll < 0.6:
        return Not(p)
    if roll < 0.75:
        return Or(p, Prop(rng.choice(PROPS)))
    if roll < 0.9:
        return And(p, Prop(rng.choice(PROPS)))
    return TRUE


def random_coalition(rng, m):
    if rng.random() < 0.1:
        return ()
    k = rng.randint(1, len(m.agents))
    return tuple(rng.sample(list(m.agents), k))


def random_bound(rng, m, max_bound=3, inf_prob=0.0):
    return tuple(
        all_inf(1)[0] if rng.random() < inf_prob else rng.randint(0, max_bound)
        for _ in range(m.r)
    )


def random_formula(rng, m, *, modal_depth=2, max_bound=3, inf_prob=0.0):
    def go(depth):
        if depth == 0 or rng.random() < 0.25:
            return random_propositional(rng)
        coalition = random_coalition(rng, m)
        bound = random_bound(rng, m, max_bound, inf_prob)
        kind = rng.choice(("X", "G", "U", "bool"))
        if kind == "X":
            return CoalitionNext(coalition, bound, go(depth - 1))
        if kind == "G":
            return CoalitionAlways(coalition, bound, go(depth - 1))
        if kind == "U":
            return CoalitionUntil(coalition, bound, go(depth - 1),
                                  random_propositional(rng))
        return Or(go(depth - 1), random_propositional(rng))

    return go(modal_depth)


def random_net(rng, *, max_places=4, max_transitions=4, max_weight=2,
               max_marking=3, max_target=4):
    n_p = rng.randint(1, max_places)
    n_t = rng.randint(0, max_transitions)
    places = tuple(f"p{i}" for i in range(n_p))
    transitions = tuple(f"t{i}" for i in range(n_t))
    arcs_in = {}
    arcs_out = {}
    for p in places:
        for t in transitions:
            if rng.random() < 0.4:
                arcs_in[(p, t)] = rng.randint(1, max_weight)
            if rng.random() < 0.4:
                arcs_out[(t, p)] = rng.randint(1, max_weight)
    marking = tuple(rng.randint(0, max_marking) for _ in places)
    target = tuple(rng.randint(0, max_target) for _ in places)
    net = PetriNet(places=places, transitions=transitions, arcs_in=arcs_in,
                   arcs_out=arcs_out, marking=marking)
    return net, target


def fan_out_game(branches, moves):
    """At s, a's one move go leads to t1 .. t(branches), as b chooses.
    Each ti has `moves` moves to the free p-loop g, the j-th costing
    (j, moves - 1 - j), so every ti's antichain has `moves` credits."""
    ts = [f"t{i}" for i in range(1, branches + 1)]
    costs = {f"m{j}": (j, moves - 1 - j) for j in range(moves)}
    actions = {"s": {"a": {"go": (0, 0)},
                     "b": {t: (0, 0) for t in ts}},
               "g": {"a": {"idle": (0, 0)}, "b": {"idle": (0, 0)}}}
    transitions = {"s": {("go", t): t for t in ts},
                   "g": {("idle", "idle"): "g"}}
    for t in ts:
        actions[t] = {"a": costs, "b": {"idle": (0, 0)}}
        transitions[t] = {(m, "idle"): "g" for m in costs}
    return Model(agents=["a", "b"], resources=["r1", "r2"],
                 states=["s", *ts, "g"], labels={"p": ["g"]},
                 actions=actions, transitions=transitions, total=False)
