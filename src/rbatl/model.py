"""The resource game structure: states, agents, action menus, costs, moves.

A model is immutable after construction and deliberately permissive about
what it stores; `validate_model` reports every invariant violation as data
so malformed inputs can be diagnosed rather than rejected mid-construction.
Construction is one walk over the inputs, shared with the model file
loader: it type-checks a file's fields, copies everything once and records
the violations as it goes.
All enumeration orders derive from declared order (states, agents, actions),
which keeps every downstream search and witness reproducible.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass

from .errors import ModelError
from .vectors import Vec, is_cost_vec, vec_add, zeros

IDLE = "idle"


@dataclass(frozen=True)
class JointAction:
    """Choice of one action per coalition member, in model agent order."""

    agents: tuple[str, ...]
    actions: tuple[str, ...]

    def __post_init__(self):
        if len(self.agents) != len(self.actions):
            raise ModelError("joint action arity mismatch")

    def __repr__(self):
        inner = ",".join(f"{a}={x}" for a, x in zip(self.agents, self.actions))
        return f"({inner})"


class Model:
    """Concurrent game structure with per-action resource deltas.

    actions: state -> agent -> {action name: cost vector}; the per-agent
    dicts double as the availability function (declared order preserved).
    transitions: state -> {full action tuple in agent order: successor}.
    total=True asserts the idle discipline (checked by validate_model).
    """

    agents: tuple[str, ...]
    resources: tuple[str, ...]
    states: tuple[str, ...]
    labels: dict[str, frozenset[str]]
    actions: dict[str, dict[str, dict[str, Vec]]]
    transitions: dict[str, dict[tuple[str, ...], str]]
    total: bool

    def __init__(self, agents, resources, states, labels, actions, transitions,
                 total=True):
        _fill(self, agents, resources, states, labels, actions, transitions,
              total)

    # -- basic accessors -------------------------------------------------

    @property
    def r(self) -> int:
        return len(self.resources)

    def zero_cost(self) -> Vec:
        return zeros(self.r)

    def state_set(self) -> frozenset[str]:
        return frozenset(self.states)

    def proposition_states(self, name: str) -> frozenset[str]:
        if name not in self.labels:
            raise ModelError(f"proposition {name!r} not declared in model")
        return self.labels[name]

    def available(self, state: str, agent: str) -> tuple[str, ...]:
        return tuple(self.actions.get(state, {}).get(agent, {}))

    def cost(self, state: str, agent: str, action: str) -> Vec:
        menu = self.actions.get(state, {}).get(agent, {})
        if action not in menu:
            raise ModelError(
                f"action {action!r} not available to agent {agent!r} in state {state!r}"
            )
        return menu[action]

    def normalize_coalition(self, coalition) -> tuple[str, ...]:
        members = set(coalition)
        unknown = members - set(self.agents)
        if unknown:
            raise ModelError(f"unknown agents in coalition: {sorted(unknown)}")
        return tuple(a for a in self.agents if a in members)

    # -- joint actions and moves ------------------------------------------

    def coalition_actions(self, state: str, coalition) -> list[JointAction]:
        """All joint actions for the coalition at state, in lexicographic
        order by declared per-agent action order (stable across runs)."""
        agents = self.normalize_coalition(coalition)
        menus = [self.available(state, a) for a in agents]
        return [JointAction(agents, combo) for combo in itertools.product(*menus)]

    def cost_joint(self, state: str, ja: JointAction) -> Vec:
        """Componentwise sum of the members' action costs."""
        total = self.zero_cost()
        for agent, action in zip(ja.agents, ja.actions):
            total = vec_add(total, self.cost(state, agent, action))
        return total

    def outcomes(self, state: str, ja: JointAction) -> list[str]:
        """Successor states over all opponent completions of ja, in declared
        state order.  Empty only when the model is not total."""
        for agent, action in zip(ja.agents, ja.actions):
            if action not in self.actions.get(state, {}).get(agent, {}):
                raise ModelError(
                    f"action {action!r} not available to agent {agent!r} in state {state!r}"
                )
        chosen = dict(zip(ja.agents, ja.actions))
        menus = []
        for agent in self.agents:
            if agent in chosen:
                menus.append((chosen[agent],))
            else:
                menus.append(self.available(state, agent))
        moves = self.transitions.get(state, {})
        seen = set()
        for combo in itertools.product(*menus):
            target = moves.get(combo)
            if target is not None:
                seen.add(target)
        return sorted(seen, key=lambda s: self._state_index.get(s, len(self.states)))


def validate_model(m: Model) -> list[str]:
    """All invariant violations, empty iff the model is well formed.

    Totality requirements (idle everywhere, zero idle cost, transitions on
    every full joint action) are only checked when the total flag is set.
    The violations are recorded while the model is built; each call
    returns a fresh copy of them.
    """
    return list(m._violations)


def _require(cond, message):
    if not cond:
        raise ModelError(message)


def _strings(coll) -> bool:
    """Whether coll is a list of strings; `str.join` takes nothing else."""
    if not isinstance(coll, list):
        return False
    try:
        "".join(coll)
    except TypeError:
        return False
    return True


_INT = frozenset({int})
_LIST = frozenset({list})


def _fill(m: Model, agents, resources, states, labels, actions, transitions,
          total, file=False) -> None:
    """Build m from its fields in one walk and record its violations.

    With `file`, the fields are those of a decoded model file: each must
    have its JSON type, checked in file order (a ModelError names the
    first that has not), and `transitions` is the file's list of
    {state, action, next} records.  Otherwise the fields are taken as
    given, and `validate_model` reports what is wrong with them.  The
    violations come in one fixed order: names, labels, actions, idle,
    transitions, missing transitions.
    """
    if file:
        for name, coll in (("agents", agents), ("resources", resources),
                           ("states", states)):
            _require(_strings(coll), f"{name} must be a list of strings")
    m.agents = tuple(agents)
    m.resources = tuple(resources)
    m.states = tuple(states)
    m._state_index = {s: i for i, s in enumerate(m.states)}
    m._agent_index = {a: i for i, a in enumerate(m.agents)}
    known = frozenset(m.states)
    r = len(m.resources)
    lengths = {r}
    errs: list[str] = []
    if not m.states:
        errs.append("model has no states")
    if not m.agents:
        errs.append("model has no agents")
    for coll, kind in ((m.states, "state"), (m.agents, "agent"),
                       (m.resources, "resource")):
        if len(set(coll)) < len(coll):
            counts = Counter(coll)
            for d in sorted(x for x, n in counts.items() if n > 1):
                errs.append(f"duplicate {kind} name {d!r}")

    if file:
        _require(isinstance(labels, dict), "labels must be an object")
    m.labels = {}
    unlabelled = []  # (proposition, its unknown states)
    for p, ss in labels.items():
        if file and not _strings(ss):
            raise ModelError(f"labels[{p!r}] must be a list of states")
        ss = m.labels[p] = frozenset(ss)
        if not ss.issubset(known):
            unlabelled.append((p, ss.difference(known)))
    for p, unknown in sorted(unlabelled):
        for s in sorted(unknown):
            errs.append(f"proposition {p!r} labels unknown state {s!r}")

    if file:
        _require(isinstance(actions, dict), "actions must be an object")
    m.actions = {}
    for s, per_agent in actions.items():
        if file and not isinstance(per_agent, dict):
            raise ModelError(f"actions[{s!r}] must be an object")
        if s not in known:
            errs.append(f"actions declared for unknown state {s!r}")
        per = m.actions[s] = {}
        for a, menu in per_agent.items():
            if file and not isinstance(menu, dict):
                raise ModelError(f"actions[{s!r}][{a!r}] must be an object")
            if a not in m._agent_index:
                errs.append(f"actions declared for unknown agent {a!r} in state {s!r}")
            # the common case, exact ints of the right count, is checked
            # per menu without a Python-level loop per cost
            costs = menu.values()
            exact = file and _LIST.issuperset(map(type, costs)) and (
                _INT.issuperset(map(type, itertools.chain.from_iterable(costs))))
            if file and not exact:
                for act, cost in menu.items():
                    _require(isinstance(cost, list) and all(
                        isinstance(c, int) and not isinstance(c, bool)
                        for c in cost),
                        f"cost of {act!r} at {s!r}/{a!r} must be a list of integers")
            out = per[a] = {act: tuple(cost) for act, cost in menu.items()}
            costs = out.values()
            if not (exact or _INT.issuperset(
                    map(type, itertools.chain.from_iterable(costs)))) or (
                    not lengths.issuperset(map(len, costs))):
                for act, cost in out.items():
                    if not is_cost_vec(cost) or len(cost) != r:
                        errs.append(
                            f"cost of action {act!r} for agent {a!r} in state {s!r} "
                            f"is not an integer vector of length {r}"
                        )

    if file:
        _require(isinstance(transitions, list), "transitions must be a list")
        m.transitions = {}
        for rec in transitions:
            if not (isinstance(rec, dict) and "state" in rec
                    and "action" in rec and "next" in rec):
                raise ModelError("each transition needs state, action, next")
            s, combo, target = rec["state"], rec["action"], rec["next"]
            if not isinstance(s, str):
                raise ModelError(f"transition state {s!r} must be a string")
            if not _strings(combo):
                raise ModelError(f"transition action at {s!r} "
                                 "must be a list of action names")
            if not isinstance(target, str):
                raise ModelError(f"transition next at {s!r} must be a string")
            moves = m.transitions.get(s)
            if moves is None:
                moves = m.transitions[s] = {}
            key = tuple(combo)
            if key in moves:
                raise ModelError(f"duplicate transition at {s!r} for {key!r}")
            moves[key] = target
        _require(isinstance(total, bool), "total must be a boolean")
    else:
        m.transitions = {s: {tuple(ja): target for ja, target in moves.items()}
                         for s, moves in transitions.items()}
    m.total = bool(total)

    full = {}  # per state, its transitions on full joint actions of its menus
    moved: list[str] = []
    n = len(m.agents)
    for s, moves in m.transitions.items():
        if s not in known:
            moved.append(f"transition declared at unknown state {s!r}")
            continue
        per = m.actions.get(s, {})
        menus = [per.get(a, {}) for a in m.agents]
        count = 0
        for combo, target in moves.items():
            if len(combo) != n:
                moved.append(f"transition at {s!r} has joint action of arity {len(combo)}")
                continue
            if all(map(operator.contains, menus, combo)):
                count += 1
            else:
                for a, act, menu in zip(m.agents, combo, menus):
                    if act not in menu:
                        moved.append(
                            f"transition at {s!r} uses action {act!r} unavailable to agent {a!r}"
                        )
            if target not in known:
                moved.append(f"transition at {s!r} targets unknown state {target!r}")
        full[s] = count
    missing: list[str] = []
    if m.total:
        zero = (0,) * r
        for s in m.states:
            per = m.actions.get(s, {})
            menus = [per.get(a, {}) for a in m.agents]
            idle = True
            for a, menu in zip(m.agents, menus):
                if IDLE not in menu:
                    idle = False
                    errs.append(f"total model: idle missing for agent {a!r} in state {s!r}")
                elif menu[IDLE] != zero:
                    errs.append(f"total model: idle has non-zero cost for agent {a!r} in state {s!r}")
            # keys are distinct, so as many full joint actions as the
            # product of the menus' sizes means that none is missing
            if idle and full.get(s, 0) != math.prod(map(len, menus)):
                moves = m.transitions.get(s, {})
                missing.extend(
                    f"total model: no transition at {s!r} for joint action {combo!r}"
                    for combo in itertools.product(*menus) if combo not in moves)
    m._violations = (*errs, *moved, *missing)
