"""The resource game structure: states, agents, action menus, costs, moves.

A model is immutable after construction and deliberately permissive about
what it stores; `validate_model` reports every invariant violation as data
so malformed inputs can be diagnosed rather than rejected mid-construction.
All enumeration orders derive from declared order (states, agents, actions),
which keeps every downstream search and witness reproducible.
"""

from __future__ import annotations

import itertools
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

    def __init__(self, agents, resources, states, labels, actions, transitions,
                 total=True):
        self.agents: tuple[str, ...] = tuple(agents)
        self.resources: tuple[str, ...] = tuple(resources)
        self.states: tuple[str, ...] = tuple(states)
        self.labels: dict[str, frozenset[str]] = {
            p: frozenset(ss) for p, ss in labels.items()
        }
        self.actions: dict[str, dict[str, dict[str, Vec]]] = {
            s: {a: {act: tuple(cost) for act, cost in menu.items()}
                for a, menu in per_agent.items()}
            for s, per_agent in actions.items()
        }
        self.transitions: dict[str, dict[tuple[str, ...], str]] = {
            s: {tuple(ja): target for ja, target in moves.items()}
            for s, moves in transitions.items()
        }
        self.total = bool(total)
        self._state_index = {s: i for i, s in enumerate(self.states)}
        self._agent_index = {a: i for i, a in enumerate(self.agents)}
        self._violations: tuple[str, ...] | None = None  # see validate_model

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
    The model is immutable, so the check runs once per model and later
    calls return a fresh copy of its result.
    """
    if m._violations is None:
        m._violations = tuple(_violations(m))
    return list(m._violations)


def _violations(m: Model) -> list[str]:
    errs: list[str] = []
    if not m.states:
        errs.append("model has no states")
    if not m.agents:
        errs.append("model has no agents")
    for coll, kind in ((m.states, "state"), (m.agents, "agent"),
                       (m.resources, "resource")):
        counts = Counter(coll)
        for d in sorted(x for x, n in counts.items() if n > 1):
            errs.append(f"duplicate {kind} name {d!r}")
    known = set(m.states)
    for prop, ss in sorted(m.labels.items()):
        for s in sorted(ss - known):
            errs.append(f"proposition {prop!r} labels unknown state {s!r}")
    for s, per_agent in m.actions.items():
        if s not in known:
            errs.append(f"actions declared for unknown state {s!r}")
        for a, menu in per_agent.items():
            if a not in m._agent_index:
                errs.append(f"actions declared for unknown agent {a!r} in state {s!r}")
            for act, cost in menu.items():
                if not is_cost_vec(cost) or len(cost) != m.r:
                    errs.append(
                        f"cost of action {act!r} for agent {a!r} in state {s!r} "
                        f"is not an integer vector of length {m.r}"
                    )
    if m.total:
        for s in m.states:
            for a in m.agents:
                menu = m.actions.get(s, {}).get(a, {})
                if IDLE not in menu:
                    errs.append(f"total model: idle missing for agent {a!r} in state {s!r}")
                elif tuple(menu[IDLE]) != m.zero_cost():
                    errs.append(f"total model: idle has non-zero cost for agent {a!r} in state {s!r}")
    for s, moves in m.transitions.items():
        if s not in known:
            errs.append(f"transition declared at unknown state {s!r}")
            continue
        for combo, target in moves.items():
            if len(combo) != len(m.agents):
                errs.append(f"transition at {s!r} has joint action of arity {len(combo)}")
                continue
            for a, act in zip(m.agents, combo):
                if act not in m.actions.get(s, {}).get(a, {}):
                    errs.append(
                        f"transition at {s!r} uses action {act!r} unavailable to agent {a!r}"
                    )
            if target not in known:
                errs.append(f"transition at {s!r} targets unknown state {target!r}")
    if m.total:
        for s in m.states:
            menus = [m.actions.get(s, {}).get(a, {}) for a in m.agents]
            if any(IDLE not in menu for menu in menus):
                continue  # already reported above
            moves = m.transitions.get(s, {})
            for combo in itertools.product(*(tuple(menu) for menu in menus)):
                if combo not in moves:
                    errs.append(
                        f"total model: no transition at {s!r} for joint action {combo!r}"
                    )
    return errs
