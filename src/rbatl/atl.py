"""One-step controllable predecessors over a compiled game.

`pre(m, A, X, b, mode)` is the set of states where coalition A has a move
within bound b whose outcomes all land in X.  Until and always, bounded
or not, are fixpoints over it.  `rbatl.checker` computes them all as
minimal credits; under the all-INF bound no component is finite, and the
credits are the classical set fixpoints:

  until  <<A>> (hold U goal):  least     muX. goal | (hold & pre(X))
  always <<A>> G hold:         greatest  nuX. hold & pre(X)

The three semantics modes differ only in `_move`, the one place where their
rules live; every search, fixpoint and certificate check takes its moves
from it, through `move` or an `Arena` row, except the oracle, which keeps
its own loops as the reference.  A labelling call compiles the moves once
per coalition into an `Arena`, which its predecessor steps, credits and
always search share.  An arena row keeps each move as four plain values,
(action names, net cost, step budget, outcome tuple); a `JointAction` is
built from them only where a certificate records the move, in
`rbatl.checker`.
"""

from __future__ import annotations

import enum
import itertools
import operator

from .errors import EngineError, FormulaError, ModelError, VectorError
from .formula import Formula, Prop, children, format_formula, is_modal
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
    return _step_costs(_member_costs(m, state, ja), m.zero_cost(),
                       Semantics.RAL_FINITE)[1]


def _member_costs(m: Model, state: str, ja: JointAction) -> list[Vec]:
    return [m.cost(state, agent, action)
            for agent, action in zip(ja.agents, ja.actions)]


def _consumption(member_costs, zero: Vec) -> Vec:
    if not member_costs:
        return zero
    return tuple(sum(c for c in column if c > 0)
                 for column in zip(*member_costs))


def _step_costs(member_costs, zero: Vec, mode: Semantics) -> tuple[Vec, Vec]:
    r = len(zero)
    for cost in member_costs:
        if len(cost) != r:
            raise VectorError(f"cost vector length does not match {r} resources")
    if len(member_costs) == 1:
        cost = member_costs[0]
    elif not member_costs:
        cost = zero
    else:
        cost = tuple(map(sum, zip(*member_costs)))
    if mode is Semantics.RAL_FINITE:
        return cost, _consumption(member_costs, zero)
    return cost, cost


def step_costs(m: Model, state: str, ja: JointAction, mode: Semantics
               ) -> tuple[Vec, Vec]:
    """(net joint cost, step budget): the budget is what the step must fit
    under the availability in this mode, the net cost except under
    ral-finite, where it is the consumption sum."""
    return _step_costs(_member_costs(m, state, ja), m.zero_cost(), mode)


def _move(choice, member_costs, zero: Vec, avail, outs, mode: Semantics):
    """The rules of the three modes, shared by `move` and `Arena.row`:
    (choice, net cost, step budget, outs) if the step budget fits avail
    (always, for avail None, the all-INF availability) and the move counts
    in this mode, else None.  `choice` is passed through: the JointAction
    for `move`, the action names for a row.  A move with no outcomes counts
    only under rbatl."""
    cost, need = _step_costs(member_costs, zero, mode)
    if avail is not None and not vec_leq(need, avail):
        return None
    if not outs and mode is not Semantics.RBATL:
        return None
    return choice, cost, need, outs


def move(m: Model, state: str, ja: JointAction, avail: Vec, mode: Semantics):
    """(ja, net cost, step budget, outcomes) if ja's step budget fits avail
    and the move counts in this mode, else None."""
    return _move(ja, _member_costs(m, state, ja), m.zero_cost(), avail,
                 m.outcomes(state, ja), mode)


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
    availability, each as four plain values:
    (actions, net cost, step budget, outcomes), in `coalition_actions`
    order.  `actions` is the coalition's tuple of action names, in the
    order of `agents`; the `JointAction(agents, actions)` is built only
    where a certificate records the move.  `outcomes` is a tuple in model
    state order.  Filtering a row by step budget gives the moves under
    any availability, since whether a move counts does not depend on it.
    Rows are compiled on a state's first use.  An arena serves the queries
    of one labelling call; it is not kept on the model, whose lifetime
    would keep every row alive.
    """

    def __init__(self, m: Model, coalition, mode: Semantics = Semantics.RBATL):
        self.m = m
        self.agents = m.normalize_coalition(coalition)
        self.mode = mode
        # the coalition's part of a full joint action, as a tuple of names;
        # itemgetter gives a tuple only for two or more indices
        picks = [m._agent_index[agent] for agent in self.agents]
        if len(picks) > 1:
            self._part = operator.itemgetter(*picks)
        elif picks:
            self._part = lambda combo, i=picks[0]: (combo[i],)
        else:
            self._part = lambda combo: ()
        self._rows: dict = {}

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
        transitions = m.transitions.get(state, {})
        part = self._part
        targets: dict = {}  # coalition actions -> outcome states
        for combo in itertools.product(*[menus.get(agent, {})
                                         for agent in m.agents]):
            target = transitions.get(combo)
            if target is not None:
                targets.setdefault(part(combo), set()).add(target)
        order, last = m._state_index, len(m.states)
        rank = lambda s: order.get(s, last)
        names, costs = [], []
        for agent in self.agents:
            menu = menus.get(agent, {})
            names.append(tuple(menu))
            costs.append(tuple(menu.values()))
        zero, mode = m.zero_cost(), self.mode
        row = []
        for actions, member_costs in zip(itertools.product(*names),
                                         itertools.product(*costs)):
            seen = targets.get(actions, ())
            outs = tuple(sorted(seen, key=rank) if len(seen) > 1 else seen)
            mv = _move(actions, member_costs, zero, None, outs, mode)
            if mv is not None:
                row.append(mv)
        return tuple(row)

    def moves(self, state: str, avail: Vec):
        """The moves at state whose step budget fits avail, in row order."""
        if len(avail) != self.m.r:
            raise VectorError(f"availability of length {len(avail)} for "
                              f"{self.m.r} resources")
        le = operator.le
        return [mv for mv in self.row(state) if all(map(le, mv[2], avail))]

    def pre(self, rho, bound: Vec) -> frozenset[str]:
        """States with a move within `bound` whose outcomes all land in
        rho."""
        rho = frozenset(rho)
        free = is_all_inf(bound)
        result = set()
        for s in self.m.states:
            for _, _, need, outs in self.row(s):
                if rho.issuperset(outs) and (free or vec_leq(need, bound)):
                    result.add(s)
                    break
        return frozenset(result)


class Arenas:
    """The arenas of one labelling call, one per normalised coalition,
    looked up by the coalition tuple asked for, which is normalised only
    on its first lookup."""

    def __init__(self, m: Model, mode: Semantics):
        self.m = m
        self.mode = mode
        self._arenas: dict = {}

    def __call__(self, coalition: tuple) -> Arena:
        arena = self._arenas.get(coalition)
        if arena is None:
            agents = self.m.normalize_coalition(coalition)
            arena = self._arenas.get(agents)
            if arena is None:
                arena = self._arenas[agents] = Arena(self.m, agents, self.mode)
            self._arenas[coalition] = arena
        return arena


def pre(m: Model, coalition, rho, bound: Vec, mode: Semantics = Semantics.RBATL
        ) -> frozenset[str]:
    """States where the coalition has a move within `bound` whose outcomes
    all land in rho: a one-shot `Arena.pre`."""
    return Arena(m, coalition, mode).pre(rho, bound)


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
