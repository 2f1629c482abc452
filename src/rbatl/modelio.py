"""JSON model files: canonical serialization and permissive parsing.

The canonical form fixes all key orders (declared order for states, agents,
resources and actions; sorted proposition names; transitions sorted by state
then action tuple), so serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ModelError
from .model import Model

FORMAT_VERSION = 1


def model_to_dict(m: Model) -> dict:
    state_order = {s: i for i, s in enumerate(m.states)}
    transitions = []
    for s in m.states:
        moves = m.transitions.get(s, {})
        for combo in sorted(moves):
            transitions.append(
                {"state": s, "action": list(combo), "next": moves[combo]}
            )
    return {
        "format_version": FORMAT_VERSION,
        "agents": list(m.agents),
        "resources": list(m.resources),
        "states": list(m.states),
        "labels": {
            p: sorted(ss, key=lambda s: state_order.get(s, len(state_order)))
            for p, ss in sorted(m.labels.items())
        },
        "actions": {
            s: {
                a: {act: list(cost) for act, cost in menu.items()}
                for a, menu in per_agent.items()
            }
            for s, per_agent in m.actions.items()
        },
        "transitions": transitions,
        "total": m.total,
    }


def _require(cond, message):
    if not cond:
        raise ModelError(message)


def model_from_dict(data) -> Model:
    _require(isinstance(data, dict), "model file must be a JSON object")
    version = data.get("format_version")
    _require(
        version == FORMAT_VERSION,
        f"unsupported model format_version {version!r} (expected {FORMAT_VERSION})",
    )
    for key in ("agents", "resources", "states", "labels", "actions",
                "transitions", "total"):
        _require(key in data, f"model file missing {key!r}")
    agents = data["agents"]
    resources = data["resources"]
    states = data["states"]
    for name, coll in (("agents", agents), ("resources", resources),
                       ("states", states)):
        _require(
            isinstance(coll, list) and all(isinstance(x, str) for x in coll),
            f"{name} must be a list of strings",
        )
    labels = data["labels"]
    _require(isinstance(labels, dict), "labels must be an object")
    for p, ss in labels.items():
        _require(
            isinstance(ss, list) and all(isinstance(x, str) for x in ss),
            f"labels[{p!r}] must be a list of states",
        )
    actions_in = data["actions"]
    _require(isinstance(actions_in, dict), "actions must be an object")
    actions = {}
    for s, per_agent in actions_in.items():
        _require(isinstance(per_agent, dict), f"actions[{s!r}] must be an object")
        actions[s] = {}
        for a, menu in per_agent.items():
            _require(isinstance(menu, dict), f"actions[{s!r}][{a!r}] must be an object")
            normalized = {}
            for act, cost in menu.items():
                _require(
                    isinstance(cost, list)
                    and all(isinstance(c, int) and not isinstance(c, bool) for c in cost),
                    f"cost of {act!r} at {s!r}/{a!r} must be a list of integers",
                )
                normalized[act] = tuple(cost)
            actions[s][a] = normalized
    transitions_in = data["transitions"]
    _require(isinstance(transitions_in, list), "transitions must be a list")
    transitions: dict[str, dict[tuple, str]] = {}
    for rec in transitions_in:
        _require(
            isinstance(rec, dict) and {"state", "action", "next"} <= set(rec),
            "each transition needs state, action, next",
        )
        combo = rec["action"]
        _require(
            isinstance(combo, list) and all(isinstance(x, str) for x in combo),
            f"transition action at {rec.get('state')!r} must be a list of action names",
        )
        per_state = transitions.setdefault(rec["state"], {})
        key = tuple(combo)
        _require(
            key not in per_state,
            f"duplicate transition at {rec['state']!r} for {key!r}",
        )
        per_state[key] = rec["next"]
    _require(isinstance(data["total"], bool), "total must be a boolean")
    return Model(
        agents=agents,
        resources=resources,
        states=states,
        labels=labels,
        actions=actions,
        transitions=transitions,
        total=data["total"],
    )


def dump_model(m: Model) -> str:
    return json.dumps(model_to_dict(m), indent=2) + "\n"


def loads_model(text: str) -> Model:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ModelError("model file nests deeper than the JSON reader's "
                         "limit") from exc
    return model_from_dict(data)


def load_model(path) -> Model:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ModelError(f"model file is not valid UTF-8: {exc}") from exc
    return loads_model(text)


def save_model(m: Model, path):
    Path(path).write_text(dump_model(m))
