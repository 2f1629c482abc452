"""Seeded benchmark inputs, built without the checker's code.

Models and nets are plain dicts in the JSON file formats (model format
version 1, net format version 1), so the program under test sees them only
through its own loaders.  Formulas are small tuples, rendered to concrete
syntax by `render`:

    ("true",) ("false",) ("prop", name) ("not", f) ("or", f, g) ("and", f, g)
    ("X", coalition, bound, f) ("G", coalition, bound, f)
    ("U", coalition, bound, hold, goal)

A coalition is a sorted tuple of agent names; a bound is a tuple with one
entry per resource, `None` standing for `inf`.
"""

from __future__ import annotations

import itertools

TRUE = ("true",)
FALSE = ("false",)
MODAL = ("X", "G", "U")
PROPS = ("p", "q")


def prop(name):
    return ("prop", name)


def is_modal(f) -> bool:
    return f[0] in MODAL


def children(f):
    if f[0] in ("not",):
        return (f[1],)
    if f[0] in ("or", "and"):
        return (f[1], f[2])
    if f[0] in ("X", "G"):
        return (f[3],)
    if f[0] == "U":
        return (f[3], f[4])
    return ()


def with_bound(f, bound):
    return (f[0], f[1], tuple(bound)) + f[3:]


def inf_variant(f):
    return with_bound(f, (None,) * len(f[2]))


def closure(f) -> set:
    """Subformulas of f plus the all-inf variant of every bounded modality:
    the formulas the general checker labels for f."""
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        stack.extend(children(g))
        if is_modal(g) and any(x is not None for x in g[2]):
            stack.append(inf_variant(g))
    return seen


def lower_bounds(bound):
    """Every bound d' <= bound that keeps its inf entries, except bound."""
    ranges = [(None,) if x is None else range(x + 1) for x in bound]
    return [d for d in itertools.product(*ranges) if d != tuple(bound)]


def ladder(f) -> set:
    """closure(f) plus the lower-bound variants the consumption-only engine
    also labels for every bounded until/always."""
    seen = closure(f)
    for g in list(seen):
        if g[0] in ("G", "U"):
            seen.update(with_bound(g, d) for d in lower_bounds(g[2]))
    return seen


def size(f) -> int:
    return 1 + sum(size(c) for c in children(f))


def _fmt_bound(bound) -> str:
    return ",".join("inf" if x is None else str(x) for x in bound)


def render(f) -> str:
    """Concrete syntax with every compound argument in parentheses."""
    kind = f[0]
    if kind in ("true", "false"):
        return kind
    if kind == "prop":
        return f[1]

    def arg(g):
        text = render(g)
        return text if g[0] in ("true", "false", "prop") else f"({text})"

    if kind == "not":
        return "!" + arg(f[1])
    if kind == "or":
        return f"{arg(f[1])} | {arg(f[2])}"
    if kind == "and":
        return f"{arg(f[1])} & {arg(f[2])}"
    prefix = "<{%s}: %s>" % (",".join(f[1]), _fmt_bound(f[2]))
    if kind == "U":
        return f"{prefix} ({arg(f[3])} U {arg(f[4])})"
    return f"{prefix} {kind} {arg(f[3])}"


# -- models ---------------------------------------------------------------


def _model(agents, resources, states, labels, actions, transitions):
    return {
        "format_version": 1,
        "agents": list(agents),
        "resources": list(resources),
        "states": list(states),
        "labels": {p: [s for s in states if s in ss]
                   for p, ss in sorted(labels.items())},
        "actions": actions,
        "transitions": [
            {"state": s, "action": list(combo), "next": nxt}
            for s, combo, nxt in transitions
        ],
        "total": True,
    }


def random_game(rng, n_states, *, cost_lo=-2, cost_hi=3, fixed_shape=False):
    """A total two-agent, two-resource game in the style of the random
    differential-test models: every agent has a free idle plus up to two
    actions with random costs, every full joint action has one random
    successor.  With `fixed_shape`, agent j has (k + j) mod 3 costed actions
    in state k and each proposition labels 40% of the states, so only
    costs, successors and which states are labelled depend on the seed."""
    states = [f"s{i}" for i in range(n_states)]
    agents = ["a0", "a1"]
    resources = ["r0", "r1"]
    actions = {}
    for k, s in enumerate(states):
        actions[s] = {}
        for i, a in enumerate(agents):
            menu = {"idle": [0, 0]}
            n = (k + i) % 3 if fixed_shape else rng.randint(0, 2)
            for j in range(n):
                menu[f"x{j}"] = [rng.randint(cost_lo, cost_hi) for _ in range(2)]
            actions[s][a] = menu
    transitions = []
    for s in states:
        for combo in itertools.product(*(actions[s][a] for a in agents)):
            transitions.append((s, combo, rng.choice(states)))
    if fixed_shape:
        labels = {p: set(rng.sample(states, round(0.4 * n_states)))
                  for p in PROPS}
    else:
        labels = {p: {s for s in states if rng.random() < 0.4} for p in PROPS}
    return _model(agents, resources, states, labels, actions, transitions)


def fig1(k):
    """The running example with the expensive move `gamma` costing k of r1:
    alpha trades 1 of r2 for 2 of r1, beta trades 1 of r1 back for 1 of r2."""
    states = ["s_I", "s", "s_prime"]
    actions = {
        "s_I": {"a1": {"idle": [0, 0], "alpha": [-2, 1]},
                "a2": {"idle": [0, 0]}},
        "s": {"a1": {"idle": [0, 0], "gamma": [k, 0]},
              "a2": {"idle": [0, 0], "beta": [1, -1]}},
        "s_prime": {"a1": {"idle": [0, 0]}, "a2": {"idle": [0, 0]}},
    }
    transitions = [
        ("s_I", ("idle", "idle"), "s_I"), ("s_I", ("alpha", "idle"), "s"),
        ("s", ("idle", "idle"), "s"), ("s", ("idle", "beta"), "s_I"),
        ("s", ("gamma", "idle"), "s_prime"),
        ("s", ("gamma", "beta"), "s_prime"),
        ("s_prime", ("idle", "idle"), "s_prime"),
    ]
    return _model(["a1", "a2"], ["r1", "r2"], states, {"p": {"s_prime"}},
                  actions, transitions)


def fig1_wins(k, coalition, bound) -> bool:
    """Closed form for <coalition: bound> (true U p) at s_I of fig1(k)."""
    r1, r2 = bound
    if coalition == ("a1", "a2"):
        return r2 is None or r2 >= 1
    if coalition == ("a1",):
        return ((r1 is None or r1 >= k - 2) and (r2 is None or r2 >= 1))
    raise ValueError(f"no closed form for coalition {coalition!r}")


def chain(n, cost, *, drift=False):
    """c0 -> c1 -> ... -> c(n-1) for agent a, each `go` costing `cost` of
    the one resource.  With drift, idling also moves on, so nothing can
    stay before the last state.  p labels the last state, q every even
    state."""
    states = [f"c{i}" for i in range(n)]
    actions = {}
    transitions = []
    for i, s in enumerate(states):
        menu = {"idle": [0]}
        last = i + 1 == n
        transitions.append((s, ("idle",), states[i + 1] if drift and not last else s))
        if not last:
            menu["go"] = [cost]
            transitions.append((s, ("go",), states[i + 1]))
        actions[s] = {"a": menu}
    labels = {"p": {states[-1]}, "q": set(states[::2])}
    return _model(["a"], ["e"], states, labels, actions, transitions)


def chain_wins(n, cost, bound, i) -> bool:
    """Closed form for <{a}: bound> (true U p) at c_i of chain(n, cost)."""
    return bound[0] is None or cost * (n - 1 - i) <= bound[0]


def gadget_chain(rng, n_gadgets, gadget_states=4):
    """A long-diameter consumption-only game: small random two-agent
    gadgets in a row.  Agent a0's `x0` always moves one state along the
    row, whatever a1 does; every other joint move stays put or jumps to a
    random state of the same gadget.  p labels the last state."""
    agents = ["a0", "a1"]
    states = [f"g{g}_{j}" for g in range(n_gadgets)
              for j in range(gadget_states)]
    actions, transitions = {}, []
    labels = {"p": {states[-1]}, "q": {states[-1]}}
    for k, s in enumerate(states):
        block = states[k - k % gadget_states:][:gadget_states]
        actions[s] = {}
        for a in agents:
            menu = {"idle": [0], "x0": [rng.randint(0, 1)]}
            if rng.random() < 0.5:
                menu["x1"] = [rng.randint(0, 1)]
            actions[s][a] = menu
        for combo in itertools.product(*(actions[s][a] for a in agents)):
            if combo[0] == "x0" and k + 1 < len(states):
                target = states[k + 1]
            elif combo == ("idle", "idle"):
                target = s
            else:
                target = rng.choice(block)
            transitions.append((s, combo, target))
        if rng.random() < 0.8:
            labels["q"].add(s)
    return _model(agents, ["e"], states, labels, actions, transitions)


# -- nets -----------------------------------------------------------------


def random_net(rng, *, max_places, max_transitions):
    """A net dict and a target marking, in the style of the differential
    suite's random nets: arc weights up to 2, initial marking up to 3 and
    target up to 4 per place."""
    places = [f"p{i}" for i in range(rng.randint(1, max_places))]
    transitions = [f"t{i}" for i in range(rng.randint(0, max_transitions))]
    arcs = []
    for p in places:
        for t in transitions:
            if rng.random() < 0.4:
                arcs.append({"from": p, "to": t, "weight": rng.randint(1, 2)})
            if rng.random() < 0.4:
                arcs.append({"from": t, "to": p, "weight": rng.randint(1, 2)})
    net = {
        "format_version": 1,
        "places": places,
        "transitions": transitions,
        "arcs": arcs,
        "marking": [rng.randint(0, 3) for _ in places],
    }
    return net, [rng.randint(0, 4) for _ in places]


# -- formulas -------------------------------------------------------------


COALITIONS = ((), ("a0",), ("a1",), ("a0", "a1"))


def random_propositional(rng):
    roll = rng.random()
    p = prop(rng.choice(PROPS))
    if roll < 0.45:
        return p
    if roll < 0.6:
        return ("not", p)
    if roll < 0.75:
        return ("or", p, prop(rng.choice(PROPS)))
    if roll < 0.9:
        return ("and", p, prop(rng.choice(PROPS)))
    return TRUE


def random_bound(rng, r, max_bound):
    return tuple(rng.randint(0, max_bound) for _ in range(r))


def game_formula(rng, outer, coalition, *, r=2, max_bound=3):
    """A depth-two formula whose top modality is `outer`, for `coalition`;
    the inner argument is another bounded modality or a propositional
    formula."""
    inner_kind = rng.choice(("X", "G", "U", "prop"))
    if inner_kind == "prop":
        inner = random_propositional(rng)
    else:
        inner_coal = rng.choice(COALITIONS)
        inner_bound = random_bound(rng, r, max_bound)
        if inner_kind == "U":
            inner = ("U", inner_coal, inner_bound, random_propositional(rng),
                     random_propositional(rng))
        else:
            inner = (inner_kind, inner_coal, inner_bound,
                     random_propositional(rng))
    bound = random_bound(rng, r, max_bound)
    if outer == "U":
        return ("U", coalition, bound, inner, random_propositional(rng))
    return (outer, coalition, bound, inner)
