"""The validator as it was before the one-pass loader: a separate walk
over a built model, with totality checked by enumerating every joint
action.  The differential tests compare `validate_model` against it."""

import itertools
from collections import Counter

from rbatl.model import IDLE
from rbatl.vectors import is_cost_vec


def reference_violations(m) -> list[str]:
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
            if a not in set(m.agents):
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
