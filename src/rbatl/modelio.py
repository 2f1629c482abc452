"""JSON model files: canonical serialization and permissive parsing.

The canonical form fixes all key orders (declared order for states, agents,
resources and actions; sorted proposition names; transitions sorted by state
then action tuple), so serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ModelError
from .model import Model, _fill, _require

FORMAT_VERSION = 1
_FIELDS = ("agents", "resources", "states", "labels", "actions", "transitions",
           "total")


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


def model_from_dict(data) -> Model:
    """The model of a decoded model file, type-checked, copied and
    validated in one walk (`model._fill`)."""
    _require(isinstance(data, dict), "model file must be a JSON object")
    version = data.get("format_version")
    _require(
        type(version) is int and version == FORMAT_VERSION,
        f"unsupported model format_version {version!r} (expected {FORMAT_VERSION})",
    )
    for key in _FIELDS:
        _require(key in data, f"model file missing {key!r}")
    m = Model.__new__(Model)
    _fill(m, *(data[key] for key in _FIELDS), file=True)
    return m


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
