"""Depth-bounded exhaustive strategy search over concrete budgets.

No pumping and no dominance pruning: every branch tracks the exact
availability vector, so a `True` answer is a direct finite witness and can
be trusted against any other engine.  Exhausting the depth yields UNKNOWN,
never False, because unbounded production can hide deeper witnesses.
"""

from __future__ import annotations

from .atl import Semantics, step_costs
from .errors import EngineError
from .model import Model
from .vectors import Vec, bound_minus_cost, vec_leq


class _Unknown:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def __bool__(self):
        return False

    def __repr__(self):
        return "unknown"


UNKNOWN = _Unknown()

_TRUE, _UNK, _FALSE = 1, 0, -1


def _merge_outcomes(results):
    # conjunction over a move's outcomes: any failure kills the move
    acc = _TRUE
    for r in results:
        if r == _FALSE:
            return _FALSE
        if r == _UNK:
            acc = _UNK
    return acc


def _until(m, agents, phi, psi, mode, state, avail, fuel):
    if state in psi:
        return _TRUE
    if state not in phi:
        return _FALSE
    if fuel == 0:
        return _UNK
    best = _FALSE
    for ja in m.coalition_actions(state, agents):
        cost, need = step_costs(m, state, ja, mode)
        if not vec_leq(need, avail):
            continue
        outs = m.outcomes(state, ja)
        if mode is not Semantics.RBATL and not outs:
            continue  # a deadlocked play never reaches the goal
        nxt = bound_minus_cost(avail, cost)
        sub = _merge_outcomes(
            _until(m, agents, phi, psi, mode, o, nxt, fuel - 1) for o in outs
        )
        if sub == _TRUE:
            return _TRUE
        if sub == _UNK:
            best = _UNK
    return best


def _box(m, agents, phi, mode, state, avail, path, fuel):
    if state not in phi:
        return _FALSE
    for anc_state, anc_avail in path:
        if anc_state == state and vec_leq(anc_avail, avail):
            return _TRUE  # the non-consuming loop can be repeated forever
    if fuel == 0:
        return _UNK
    longer = path + ((state, avail),)
    best = _FALSE
    for ja in m.coalition_actions(state, agents):
        cost, need = step_costs(m, state, ja, mode)
        if not vec_leq(need, avail):
            continue
        outs = m.outcomes(state, ja)
        if mode is not Semantics.RBATL and not outs:
            continue  # a deadlocked play is not an infinite play
        nxt = bound_minus_cost(avail, cost)
        sub = _merge_outcomes(
            _box(m, agents, phi, mode, o, nxt, longer, fuel - 1) for o in outs
        )
        if sub == _TRUE:
            return _TRUE
        if sub == _UNK:
            best = _UNK
    return best


def bounded_search(m: Model, coalition, bound: Vec, kind: str, depth: int, *,
                   state: str, phi_states, psi_states=None,
                   mode: Semantics = Semantics.RBATL):
    """Search for a strategy tree of height <= depth; True or UNKNOWN.

    kind "until": every play reaches a psi state within depth steps, keeps
    all cost prefixes within bound and stays in phi before.  kind "box":
    a tree whose every leaf loops back to a same-state ancestor with
    pointwise <= availability while all nodes satisfy phi.
    """
    if depth < 1:
        raise EngineError("oracle depth must be >= 1")
    agents = m.normalize_coalition(coalition)
    phi = frozenset(phi_states)
    bound = tuple(bound)
    if kind == "until":
        if psi_states is None:
            raise EngineError("until oracle needs psi_states")
        res = _until(m, agents, phi, frozenset(psi_states), mode, state,
                     bound, depth)
    elif kind == "box":
        res = _box(m, agents, phi, mode, state, bound, (), depth)
    else:
        raise EngineError(f"unknown oracle kind {kind!r}")
    return True if res == _TRUE else UNKNOWN
