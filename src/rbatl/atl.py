"""One-step controllable predecessors and the set fixpoints over them.

`pre(m, A, X, b, mode)` is the set of states where coalition A has a move
within bound b whose outcomes all land in X.  Every set labelling in the
package is one of two fixpoints over it, computed by `Arena.fixpoint`:

  until  <<A>> (hold U base):  least     muX. base | (hold & pre(X))
  always <<A>> G hold:         greatest  nuX. hold & (base | pre(X))

with base empty for a plain always.  The all-INF modalities use them
directly; the bound ladder's bounded always uses the greatest form with the
free bound `proj_inf(b)` and a base seeded from the lower variants.

The three semantics modes differ only in `_move`, the one place where their
rules live; every search, fixpoint and certificate check takes its moves
from it, through `move` or an `Arena` row, except the oracle, which keeps
its own loops as the reference.  A labelling call compiles the moves once
per coalition into an `Arena`, which its predecessor steps, fixpoints,
until credits and always search share.
"""

from __future__ import annotations

import enum
import itertools

from .errors import EngineError, FormulaError, ModelError, VectorError
from .formula import (
    And,
    CoalitionNext,
    CoalitionUntil,
    FalseConst,
    Formula,
    Not,
    Or,
    Prop,
    TrueConst,
    children,
    format_formula,
    is_modal,
    sub_ordered,
)
from .model import JointAction, Model, validate_model
from .vectors import Vec, is_all_inf, vec_leq


class Semantics(enum.Enum):
    RBATL = "rbatl"
    NT = "nt"
    RAL_FINITE = "ral-finite"

    @classmethod
    def from_name(cls, name: str) -> "Semantics":
        for member in cls:
            if member.value == name:
                return member
        raise EngineError(f"unknown semantics mode {name!r}")


def consumption_joint(m: Model, state: str, ja: JointAction) -> Vec:
    """Per-resource sum of the members' consumption, ignoring production."""
    return _consumption(_columns(_member_costs(m, state, ja), m.zero_cost()))


def _member_costs(m: Model, state: str, ja: JointAction) -> list[Vec]:
    return [m.cost(state, agent, action)
            for agent, action in zip(ja.agents, ja.actions)]


def _columns(member_costs, zero: Vec) -> list[tuple]:
    """Per resource, a 0 and the members' costs."""
    try:
        return list(zip(zero, *member_costs, strict=True))
    except ValueError:
        raise VectorError(
            f"cost vector length does not match {len(zero)} resources"
        ) from None


def _consumption(columns) -> Vec:
    return tuple(sum(c for c in column if c > 0) for column in columns)


def _step_costs(member_costs, zero: Vec, mode: Semantics) -> tuple[Vec, Vec]:
    columns = _columns(member_costs, zero)
    cost = tuple(map(sum, columns))
    if mode is Semantics.RAL_FINITE:
        return cost, _consumption(columns)
    return cost, cost


def step_costs(m: Model, state: str, ja: JointAction, mode: Semantics
               ) -> tuple[Vec, Vec]:
    """(net joint cost, step budget): the budget is what the step must fit
    under the availability in this mode, the net cost except under
    ral-finite, where it is the consumption sum."""
    return _step_costs(_member_costs(m, state, ja), m.zero_cost(), mode)


def _move(ja: JointAction, member_costs, zero: Vec, avail, outcomes,
          mode: Semantics):
    """The rules of the three modes, shared by `move` and `Arena.row`:
    the move if its step budget fits avail (always, for avail None, the
    all-INF availability) and it counts in this mode, else None.
    `outcomes()` gives its outcome list and is called only for a move that
    fits; a move with no outcomes counts only under rbatl."""
    cost, need = _step_costs(member_costs, zero, mode)
    if avail is not None and not vec_leq(need, avail):
        return None
    outs = outcomes()
    if not outs and mode is not Semantics.RBATL:
        return None
    return ja, cost, need, outs


def move(m: Model, state: str, ja: JointAction, avail: Vec, mode: Semantics):
    """(ja, net cost, step budget, outcomes) if ja's step budget fits avail
    and the move counts in this mode, else None."""
    return _move(ja, _member_costs(m, state, ja), m.zero_cost(), avail,
                 lambda: m.outcomes(state, ja), mode)


def moves(m: Model, state: str, agents, avail: Vec, mode: Semantics):
    """Every move of the coalition at state under avail, as `move` gives
    it, in `coalition_actions` order."""
    for ja in m.coalition_actions(state, agents):
        mv = move(m, state, ja, avail, mode)
        if mv is not None:
            yield mv


class Arena:
    """The game of one (model, coalition, mode), compiled on use.

    A state's row holds its moves as `moves` gives them under an all-INF
    availability, each with its outcome set added:
    (ja, net cost, step budget, outcomes, outcome frozenset), in
    `coalition_actions` order.  Filtering a row by step budget gives the
    moves under any availability, since whether a move counts does not
    depend on it.  Rows are compiled on a state's first use, and the
    predecessor index on the first fixpoint.  An arena serves the queries
    of one labelling call; it is not kept on the model, whose lifetime
    would keep every row alive.
    """

    def __init__(self, m: Model, coalition, mode: Semantics = Semantics.RBATL):
        self.m = m
        self.agents = m.normalize_coalition(coalition)
        self.mode = mode
        self._rows: dict = {}
        self._index = None

    def row(self, state: str) -> tuple:
        row = self._rows.get(state)
        if row is None:
            row = self._rows[state] = self._compile_row(state)
        return row

    def _compile_row(self, state: str) -> tuple:
        """The row of `state` in one pass over its full joint actions: their
        successors are grouped by the coalition's part of the action, and
        the members' costs are read from their menus.  As in
        `Model.outcomes`, the joint actions are drawn from the menus, so a
        transition on an action outside its agent's menu is never taken."""
        m = self.m
        menus = m.actions.get(state, {})
        full = [menus.get(agent, {}) for agent in m.agents]
        picks = [m._agent_index[agent] for agent in self.agents]
        transitions = m.transitions.get(state, {})
        targets: dict = {}  # coalition actions -> outcome states
        for combo in itertools.product(*full):
            target = transitions.get(combo)
            if target is not None:
                targets.setdefault(tuple(map(combo.__getitem__, picks)),
                                   set()).add(target)
        order, last = m._state_index, len(m.states)
        members = [tuple(menus.get(agent, {}).items())
                   for agent in self.agents]
        zero = m.zero_cost()
        row = []
        for choice in itertools.product(*members):
            actions = tuple(action for action, _ in choice)
            seen = targets.get(actions, ())
            mv = _move(JointAction(self.agents, actions),
                       [cost for _, cost in choice], zero, None,
                       lambda: sorted(seen, key=lambda s: order.get(s, last)),
                       self.mode)
            if mv is not None:
                row.append((*mv, frozenset(seen)))
        return tuple(row)

    def moves(self, state: str, avail: Vec):
        """The moves at state whose step budget fits avail, in row order."""
        return [mv for mv in self.row(state) if vec_leq(mv[2], avail)]

    def pre(self, rho, bound: Vec) -> frozenset[str]:
        """States with a move within `bound` whose outcomes all land in
        rho."""
        rho = frozenset(rho)
        fits = _fits(bound)
        result = set()
        for s in self.m.states:
            for _, _, need, _, outset in self.row(s):
                if outset <= rho and fits(need):
                    result.add(s)
                    break
        return frozenset(result)

    def fixpoint(self, hold, base, bound: Vec, *, greatest: bool = False
                 ) -> frozenset[str]:
        """muX. base | (hold & pre(X)), or nuX. hold & (base | pre(X)) when
        `greatest`, with pre taken under `bound`.

        Both forms are counter-based worklists, linear in the size of the
        arena: the least form counts, per move, the outcomes still outside
        X; the greatest form counts, per state, the moves still inside X.
        """
        if greatest:
            return self._greatest(frozenset(hold), frozenset(base), bound)
        return self._least(frozenset(hold), frozenset(base), bound)

    def label(self, f: Formula, lower: dict) -> frozenset[str]:
        """Label a modality of this arena's coalition given labels for its
        strict subformulas: next under any bound, until and always under
        the all-INF bound."""
        if isinstance(f, CoalitionNext):
            return self.pre(lower[f.child], f.bound)
        if not is_all_inf(f.bound):
            raise EngineError("bounded until/always go to the bounded checker")
        if isinstance(f, CoalitionUntil):
            return self.fixpoint(lower[f.hold], lower[f.goal], f.bound)
        return self.fixpoint(lower[f.child], frozenset(), f.bound,
                             greatest=True)

    def _compiled(self):
        """(owner state, step budget, outcome set) per move id, and the ids
        of the moves with each state among their outcomes."""
        if self._index is None:
            owners, preds = [], {}
            for s in self.m.states:
                for _, _, need, _, outset in self.row(s):
                    mid = len(owners)
                    owners.append((s, need, outset))
                    for o in outset:
                        preds.setdefault(o, []).append(mid)
            self._index = owners, preds
        return self._index

    def _least(self, hold, start, bound):
        owners, preds = self._compiled()
        fits = _fits(bound)
        inside = set(start)
        work = []
        outside = {}  # move id -> outcomes not yet in X, counted against start
        for mid, (s, need, outset) in enumerate(owners):
            if s in start or s not in hold or not fits(need):
                continue
            n = len(outset - start)
            if n:
                outside[mid] = n
            elif s not in inside:
                inside.add(s)
                work.append(s)
        while work:
            t = work.pop()
            for mid in preds.get(t, ()):
                n = outside.get(mid)
                if n is None:
                    continue
                if n > 1:
                    outside[mid] = n - 1
                    continue
                del outside[mid]
                s = owners[mid][0]
                if s not in inside:
                    inside.add(s)
                    work.append(s)
        return frozenset(inside)

    def _greatest(self, hold, base, bound):
        owners, preds = self._compiled()
        fits = _fits(bound)
        outside = {}  # move id -> outcomes no longer in X
        good = dict.fromkeys(hold - base, 0)  # state -> moves inside X
        for mid, (s, need, outset) in enumerate(owners):
            if s not in good or not fits(need):
                continue
            n = len(outset - hold)
            outside[mid] = n
            if not n:
                good[s] += 1
        work = [s for s, n in good.items() if not n]
        dropped = set(work)
        while work:
            t = work.pop()
            for mid in preds.get(t, ()):
                n = outside.get(mid)
                if n is None:
                    continue
                outside[mid] = n + 1
                if n:
                    continue
                s = owners[mid][0]
                good[s] -= 1
                if not good[s]:
                    dropped.add(s)
                    work.append(s)
        return hold - dropped


class Arenas:
    """The arenas of one labelling call, one per normalised coalition."""

    def __init__(self, m: Model, mode: Semantics):
        self.m = m
        self.mode = mode
        self._by_agents: dict = {}

    def __call__(self, coalition) -> Arena:
        agents = self.m.normalize_coalition(coalition)
        arena = self._by_agents.get(agents)
        if arena is None:
            arena = self._by_agents[agents] = Arena(self.m, agents, self.mode)
        return arena


def _fits(bound: Vec):
    """The test `need <= bound` on step budgets, free for an all-INF
    bound."""
    if is_all_inf(bound):
        return lambda need: True
    return lambda need: vec_leq(need, bound)


def pre(m: Model, coalition, rho, bound: Vec, mode: Semantics = Semantics.RBATL
        ) -> frozenset[str]:
    """States where the coalition has a move within `bound` whose outcomes
    all land in rho: a one-shot `Arena.pre`."""
    return Arena(m, coalition, mode).pre(rho, bound)


def atl_label(m: Model, f: Formula, lower: dict, mode: Semantics = Semantics.RBATL
              ) -> frozenset[str]:
    """Label one formula given labels for its strict subformulas.

    Propositions and connectives are set algebra; modalities must carry the
    all-INF bound and are solved over a one-shot `Arena`.
    """
    states = m.state_set()
    if isinstance(f, TrueConst):
        return states
    if isinstance(f, FalseConst):
        return frozenset()
    if isinstance(f, Prop):
        return m.proposition_states(f.name)
    if isinstance(f, Not):
        return states - lower[f.child]
    if isinstance(f, Or):
        return lower[f.left] | lower[f.right]
    if isinstance(f, And):
        return lower[f.left] & lower[f.right]
    if not is_modal(f):
        raise EngineError(f"unknown formula node: {f!r}")
    if not is_all_inf(f.bound):
        raise EngineError(
            "atl_label only handles all-inf bounds; finite bounds go to the "
            "bounded checker"
        )
    return Arena(m, f.coalition, mode).label(f, lower)


def eval_propositional(m: Model, f: Formula) -> frozenset[str]:
    """Label a modality-free formula from the model's propositions."""
    labels: dict = {}
    for g in sub_ordered(f):
        if is_modal(g):
            raise ModelError(f"formula is not propositional: {f!r}")
        labels[g] = atl_label(m, g, labels)
    return labels[f]


def check_inputs(m: Model, f0: Formula) -> None:
    """Reject an invalid model, or a formula whose bounds or propositions
    do not fit the model, before any labelling starts."""
    violations = validate_model(m)
    if violations:
        raise ModelError("invalid model: " + "; ".join(violations))
    problems = set()
    stack = [f0]
    while stack:
        f = stack.pop()
        stack.extend(children(f))
        if is_modal(f) and len(f.bound) != m.r:
            problems.add(
                f"bound of length {len(f.bound)} does not match the model's "
                f"{m.r} resources in {format_formula(f)}"
            )
        if isinstance(f, Prop) and f.name not in m.labels:
            problems.add(f"proposition {f.name!r} not declared in model")
    if problems:
        raise FormulaError("; ".join(sorted(problems)))
