"""Petri nets: firing, a coverability oracle, and the reduction to a
single-agent resource game.

`coverable` implements a Karp-Miller style tree with omega acceleration
(reusing INF as omega) and dominance cutoffs; it shares no search code with
the checker, so the two can cross-validate through `reduce_to_model`: the
target marking is coverable exactly when the reduced game's start state
satisfies the paired until formula under the initial marking as bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import PetriError
from .formula import CoalitionUntil, Formula, TRUE, Prop
from .model import IDLE, Model
from .vectors import INF, Vec, vec_geq, vec_leq

FORMAT_VERSION = 1


@dataclass(frozen=True)
class PetriNet:
    places: tuple[str, ...]
    transitions: tuple[str, ...]
    arcs_in: dict  # (place, transition) -> weight, consumption side
    arcs_out: dict  # (transition, place) -> weight, production side
    marking: Vec

    def __post_init__(self):
        if len(self.marking) != len(self.places):
            raise PetriError("initial marking length differs from place count")
        if any(not isinstance(x, int) or x < 0 for x in self.marking):
            raise PetriError("markings are vectors of naturals")

    def weight_in(self, place: str, t: str) -> int:
        return self.arcs_in.get((place, t), 0)

    def weight_out(self, t: str, place: str) -> int:
        return self.arcs_out.get((t, place), 0)


def enabled(net: PetriNet, marking: Vec, t: str) -> bool:
    if t not in net.transitions:
        raise PetriError(f"unknown transition {t!r}")
    return all(
        net.weight_in(p, t) <= marking[i] for i, p in enumerate(net.places)
    )


def fire(net: PetriNet, marking: Vec, t: str) -> Vec:
    if not enabled(net, marking, t):
        raise PetriError(f"transition {t!r} is not enabled")
    return tuple(
        marking[i] - net.weight_in(p, t) + net.weight_out(t, p)
        for i, p in enumerate(net.places)
    )


def _fire_omega(net: PetriNet, marking, t: str):
    if not all(
        marking[i] is INF or net.weight_in(p, t) <= marking[i]
        for i, p in enumerate(net.places)
    ):
        return None
    return tuple(
        INF if marking[i] is INF
        else marking[i] - net.weight_in(p, t) + net.weight_out(t, p)
        for i, p in enumerate(net.places)
    )


def coverable(net: PetriNet, target: Vec) -> bool:
    """Whether some firing sequence reaches a marking >= target."""
    if len(target) != len(net.places):
        raise PetriError("target marking length differs from place count")
    if any((not isinstance(x, int)) or x < 0 for x in target):
        raise PetriError("markings are vectors of naturals")
    start = tuple(net.marking)
    if vec_geq(start, target):
        return True
    seen: list[tuple] = [start]
    stack = [(start, (start,))]
    while stack:
        marking, ancestors = stack.pop()
        for t in net.transitions:
            nxt = _fire_omega(net, marking, t)
            if nxt is None:
                continue
            for anc in ancestors:
                if vec_leq(anc, nxt) and anc != nxt:
                    nxt = tuple(
                        INF if anc[i] < x else x for i, x in enumerate(nxt)
                    )
            if vec_geq(nxt, target):
                return True
            if any(vec_leq(nxt, old) for old in seen):
                continue
            seen[:] = [old for old in seen if not vec_leq(old, nxt)]
            seen.append(nxt)
            stack.append((nxt, ancestors + (nxt,)))
    return False


def reduce_to_model(net: PetriNet, target: Vec) -> tuple[Model, Formula]:
    """Single-agent game whose until query decides coverability of target.

    One round trip start -> transition-state -> start simulates a firing
    (pay the input arcs, then get paid the output arcs); the `good` action
    pays the target marking and moves to the goal.  Straying via idle
    anywhere but the goal falls into a sink.
    """
    if len(target) != len(net.places):
        raise PetriError("target marking length differs from place count")
    agent = "1"
    start, goal, sink = "start", "goal", "sink"
    reserved = {start, goal, sink}
    if reserved & set(net.transitions):
        raise PetriError(
            "transition names start/goal/sink collide with reduction states"
        )
    states = [start] + list(net.transitions) + [goal, sink]
    zero = (0,) * len(net.places)
    take = {t: f"{t}-" for t in net.transitions}
    put = {t: f"{t}+" for t in net.transitions}
    actions = {
        start: {agent: {IDLE: zero, "good": tuple(target)}},
        goal: {agent: {IDLE: zero}},
        sink: {agent: {IDLE: zero}},
    }
    for t in net.transitions:
        actions[start][agent][take[t]] = tuple(
            net.weight_in(p, t) for p in net.places
        )
        actions[t] = {agent: {
            IDLE: zero,
            put[t]: tuple(-net.weight_out(t, p) for p in net.places),
        }}
    transitions = {
        start: {(IDLE,): sink, ("good",): goal},
        goal: {(IDLE,): goal},
        sink: {(IDLE,): sink},
    }
    for t in net.transitions:
        transitions[start][(take[t],)] = t
        transitions[t] = {(IDLE,): sink, (put[t],): start}
    model = Model(
        agents=[agent],
        resources=list(net.places),
        states=states,
        labels={"p": [goal]},
        actions=actions,
        transitions=transitions,
        total=True,
    )
    query = CoalitionUntil((agent,), tuple(net.marking), TRUE, Prop("p"))
    return model, query


# -- net files -------------------------------------------------------------


def net_to_dict(net: PetriNet) -> dict:
    arcs = []
    for p in net.places:
        for t in net.transitions:
            w = net.weight_in(p, t)
            if w:
                arcs.append({"from": p, "to": t, "weight": w})
    for t in net.transitions:
        for p in net.places:
            w = net.weight_out(t, p)
            if w:
                arcs.append({"from": t, "to": p, "weight": w})
    return {
        "format_version": FORMAT_VERSION,
        "places": list(net.places),
        "transitions": list(net.transitions),
        "arcs": arcs,
        "marking": list(net.marking),
    }


def net_from_dict(data) -> PetriNet:
    if not isinstance(data, dict):
        raise PetriError("net file must be a JSON object")
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise PetriError(f"unsupported net format_version {version!r}")
    places = data.get("places")
    transitions = data.get("transitions")
    for name, coll in (("places", places), ("transitions", transitions)):
        if not isinstance(coll, list) or not all(isinstance(x, str) for x in coll):
            raise PetriError(f"{name} must be a list of strings")
        seen = set()
        for x in coll:
            if x in seen:
                raise PetriError(f"{name} must be distinct: {x!r} repeats")
            seen.add(x)
    if set(places) & set(transitions):
        raise PetriError("places and transitions must be disjoint")
    marking = data.get("marking")
    if (not isinstance(marking, list)
            or any(not isinstance(x, int) or isinstance(x, bool) or x < 0
                   for x in marking)):
        raise PetriError("marking must be a list of naturals")
    arcs = data.get("arcs", [])
    if not isinstance(arcs, list):
        raise PetriError("arcs must be a list")
    arcs_in: dict = {}
    arcs_out: dict = {}
    for arc in arcs:
        if not isinstance(arc, dict) or {"from", "to", "weight"} - set(arc):
            raise PetriError("each arc needs from, to, weight")
        src, dst, w = arc["from"], arc["to"], arc["weight"]
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            raise PetriError(f"arc weight must be a natural: {w!r}")
        if src in places and dst in transitions:
            arcs_in[(src, dst)] = arcs_in.get((src, dst), 0) + w
        elif src in transitions and dst in places:
            arcs_out[(src, dst)] = arcs_out.get((src, dst), 0) + w
        else:
            raise PetriError(f"arc {src!r} -> {dst!r} connects wrong node kinds")
    return PetriNet(
        places=tuple(places),
        transitions=tuple(transitions),
        arcs_in=arcs_in,
        arcs_out=arcs_out,
        marking=tuple(marking),
    )


def dump_net(net: PetriNet) -> str:
    return json.dumps(net_to_dict(net), indent=2) + "\n"


def load_net(path) -> PetriNet:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise PetriError(f"net file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise PetriError("net file nests deeper than the JSON reader's "
                         "limit") from exc
    return net_from_dict(data)
