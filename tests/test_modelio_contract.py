"""The model loader's error contract: one malformed file per type check of
`modelio`, each with its exact `ModelError` message, and the violations
of loaded and built models against the three-pass reference walk of
`violations_ref`."""

import copy
import json
import random

import pytest

from rbatl import Model, ModelError, loads_model, model_to_dict, validate_model

import modelgen
from violations_ref import reference_violations

BASE = {
    "format_version": 1,
    "agents": ["a", "b"],
    "resources": ["r"],
    "states": ["s", "t"],
    "labels": {"p": ["t"]},
    "actions": {"s": {"a": {"idle": [0], "go": [1]}, "b": {"idle": [0]}},
                "t": {"a": {"idle": [0]}, "b": {"idle": [0]}}},
    "transitions": [
        {"state": "s", "action": ["go", "idle"], "next": "t"},
        {"state": "s", "action": ["idle", "idle"], "next": "s"},
        {"state": "t", "action": ["idle", "idle"], "next": "t"},
    ],
    "total": True,
}

DELETE = object()
S_GO = {"state": "s", "action": ["go", "idle"], "next": "t"}

# (case, [(path, new value or DELETE), ...], message)
MALFORMED = [
    ("not an object", [((), [1, 2])], "model file must be a JSON object"),
    ("version missing", [(("format_version",), DELETE)],
     "unsupported model format_version None (expected 1)"),
    ("version wrong", [(("format_version",), 2)],
     "unsupported model format_version 2 (expected 1)"),
    ("version true", [(("format_version",), True)],
     "unsupported model format_version True (expected 1)"),
    ("agents missing", [(("agents",), DELETE)], "model file missing 'agents'"),
    ("total missing", [(("total",), DELETE)], "model file missing 'total'"),
    ("agents not a list", [(("agents",), "a")],
     "agents must be a list of strings"),
    ("resources not strings", [(("resources",), [1])],
     "resources must be a list of strings"),
    ("states not strings", [(("states",), ["s", None])],
     "states must be a list of strings"),
    ("labels not an object", [(("labels",), ["t"])], "labels must be an object"),
    ("label not a list", [(("labels", "p"), "t")],
     "labels['p'] must be a list of states"),
    ("label not strings", [(("labels", "p"), [0])],
     "labels['p'] must be a list of states"),
    ("actions not an object", [(("actions",), [])],
     "actions must be an object"),
    ("state actions not an object", [(("actions", "s"), [])],
     "actions['s'] must be an object"),
    ("menu not an object", [(("actions", "s", "a"), ["idle"])],
     "actions['s']['a'] must be an object"),
    ("cost not a list", [(("actions", "s", "a", "go"), 1)],
     "cost of 'go' at 's'/'a' must be a list of integers"),
    ("cost has a bool", [(("actions", "s", "a", "go"), [True])],
     "cost of 'go' at 's'/'a' must be a list of integers"),
    ("cost has a float", [(("actions", "s", "a", "go"), [1.0])],
     "cost of 'go' at 's'/'a' must be a list of integers"),
    ("cost an empty string", [(("actions", "s", "a", "go"), "")],
     "cost of 'go' at 's'/'a' must be a list of integers"),
    ("cost an empty object", [(("actions", "s", "b", "idle"), {})],
     "cost of 'idle' at 's'/'b' must be a list of integers"),
    ("transitions not a list", [(("transitions",), {})],
     "transitions must be a list"),
    ("transition not an object",
     [(("transitions", 1), ["s", ["go", "idle"], "t"])],
     "each transition needs state, action, next"),
    ("transition missing next",
     [(("transitions", 1), {"state": "s", "action": ["go", "idle"]})],
     "each transition needs state, action, next"),
    ("transition action not a list", [(("transitions", 1, "action"), "go")],
     "transition action at 's' must be a list of action names"),
    ("transition action not strings",
     [(("transitions", 1, "action"), ["go", 0])],
     "transition action at 's' must be a list of action names"),
    ("transition state a list", [(("transitions", 1, "state"), ["s"])],
     "transition state ['s'] must be a string"),
    ("transition next a list", [(("transitions", 1, "next"), ["s"])],
     "transition next at 's' must be a string"),
    ("transition next a number", [(("transitions", 1, "next"), 5)],
     "transition next at 's' must be a string"),
    ("duplicate transition",
     [(("transitions", 2), {**S_GO, "next": "s"})],
     "duplicate transition at 's' for ('go', 'idle')"),
    ("total not a boolean", [(("total",), 1)], "total must be a boolean"),
    # the first failing check wins, in file order
    ("bad cost before bad total",
     [(("total",), 1), (("actions", "t", "b", "idle"), "0")],
     "cost of 'idle' at 't'/'b' must be a list of integers"),
    ("bad label before bad actions",
     [(("labels", "q"), 1), (("actions",), [])],
     "labels['q'] must be a list of states"),
    ("missing key before a duplicate",
     [(("transitions", 2), dict(S_GO)), (("transitions",), DELETE)],
     "model file missing 'transitions'"),
]


def mutated(edits):
    d = copy.deepcopy(BASE)
    for path, value in edits:
        if not path:
            d = value
            continue
        x = d
        for k in path[:-1]:
            x = x[k]
        if value is DELETE:
            del x[path[-1]]
        else:
            x[path[-1]] = value
    return d


@pytest.mark.parametrize("case, edits, message", MALFORMED,
                         ids=[c for c, _, _ in MALFORMED])
def test_malformed_model_file_error(case, edits, message):
    with pytest.raises(ModelError) as err:
        loads_model(json.dumps(mutated(edits)))
    assert str(err.value) == message


def test_base_file_is_valid():
    m = loads_model(json.dumps(BASE))
    assert validate_model(m) == []
    assert model_to_dict(m) == BASE


def test_json_errors():
    with pytest.raises(ModelError, match="^model file is not valid JSON: "):
        loads_model("{")
    with pytest.raises(ModelError, match="nests deeper"):
        loads_model("[" * 100000)


# -- violations against the reference walk ---------------------------------


def _as_file(m, rng):
    """m as a decoded model file, its transition records shuffled so that
    the states' records interleave."""
    records = [{"state": s, "action": list(combo), "next": t}
               for s, moves in m.transitions.items()
               for combo, t in moves.items()]
    rng.shuffle(records)
    return {"format_version": 1, "agents": list(m.agents),
            "resources": list(m.resources), "states": list(m.states),
            "labels": {p: sorted(ss) for p, ss in m.labels.items()},
            "actions": {s: {a: {act: list(cost) for act, cost in menu.items()}
                            for a, menu in per.items()}
                        for s, per in m.actions.items()},
            "transitions": records, "total": m.total}


def _agree(m, rng, file=True):
    assert validate_model(m) == reference_violations(m)
    if file:
        loaded = loads_model(json.dumps(_as_file(m, rng)))
        assert validate_model(loaded) == reference_violations(loaded)


def _planted(rng, m, kind):
    """m with a fault of the given kind (0-10) at a random place; the
    kinds go through every branch of the walk."""
    agents, states = list(m.agents), list(m.states)
    actions = {s: {a: dict(menu) for a, menu in per.items()}
               for s, per in m.actions.items()}
    transitions = {s: dict(moves) for s, moves in m.transitions.items()}
    labels = {p: set(ss) for p, ss in m.labels.items()}
    s = rng.choice(states)
    a = rng.choice(agents)
    if kind == 0:  # duplicate names
        states.append(s)
        agents.append(a)
    elif kind == 1:  # unknown states, agents and targets
        labels.setdefault("p", set()).add("nowhere")
        labels["o"] = {"nowhere", "elsewhere", s}  # sorts first, comes last
        actions["ghost"] = {a: {"idle": (0,) * m.r}}
        actions[s]["nobody"] = {"idle": (0,) * m.r}
        transitions["ghost"] = {}
        moves = transitions.setdefault(s, {})
        if moves:
            moves[next(iter(moves))] = "nowhere"
    elif kind == 2:  # missing idle
        actions[s][a].pop("idle", None)
    elif kind == 3:  # costly idle
        actions[s][a]["idle"] = (1,) * m.r
    elif kind == 4:  # bad arity
        transitions.setdefault(s, {})[("idle",) * (len(agents) + 1)] = s
    elif kind == 5:  # unavailable actions
        transitions.setdefault(s, {})[("nope",) * len(agents)] = s
    elif kind == 6:  # missing transitions
        moves = transitions.get(s, {})
        for combo in list(moves)[::2]:
            del moves[combo]
    elif kind == 7:  # bad cost vectors
        actions[s][a]["bad"] = (1,) * (m.r + 1)
        actions[s][a]["worse"] = (True,) * m.r
    elif kind == 8:  # no states or no agents
        if rng.random() < 0.5:
            states = []
        else:
            agents = []
    elif kind == 9:  # an unavailable action that is not a full tuple
        transitions.setdefault(s, {})[("nope",)] = "nowhere"
    elif kind == 10:  # several at once
        states.append(s)
        actions[s][a].pop("idle", None)
        transitions.setdefault(s, {})[("nope",) * len(agents)] = "x"
    return Model(agents=agents, resources=m.resources, states=states,
                 labels=labels, actions=actions, transitions=transitions,
                 total=m.total if rng.random() < 0.8 else not m.total)


def test_violations_match_the_reference_walk():
    rng = random.Random(31)
    for i in range(120):
        total = i % 3 != 0
        m = modelgen.random_model(rng, total=total, max_states=5,
                                  n_agents=rng.randint(1, 3),
                                  r=rng.randint(0, 2))
        _agree(m, rng)
        _agree(modelgen.drop_transitions(rng, m), rng)
        for kind in range(11):
            # a file cannot carry the bool costs of kind 7
            _agree(_planted(rng, m, kind), rng, file=kind != 7)

