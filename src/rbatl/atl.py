"""One-step controllable predecessors and the set fixpoints over them.

`pre(m, A, X, b, mode)` is the set of states where coalition A has a move
within bound b whose outcomes all land in X.  Every set labelling in the
package is one of two fixpoints over it, computed by `fixpoint`:

  until  <<A>> (hold U base):  least     muX. base | (hold & pre(X))
  always <<A>> G hold:         greatest  nuX. hold & (base | pre(X))

with base empty for a plain always.  The all-INF modalities of the general
checker use them directly; the consumption-only engine uses them with the
free bound `proj_inf(b)` and a base seeded from the split ladder.

The three semantics modes differ only in `moves`, the one place where their
rules live; every search, fixpoint and certificate check takes its moves
from it, except the oracle, which keeps its own loops as the reference.
"""

from __future__ import annotations

import enum

from .errors import EngineError, FormulaError, ModelError
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
from .vectors import Vec, is_all_inf, vec_leq, zeros


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
    total = list(zeros(m.r))
    for agent, action in zip(ja.agents, ja.actions):
        for i, c in enumerate(m.cost(state, agent, action)):
            if c > 0:
                total[i] += c
    return tuple(total)


def step_costs(m: Model, state: str, ja: JointAction, mode: Semantics
               ) -> tuple[Vec, Vec]:
    """(net joint cost, step budget): the budget is what the step must fit
    under the availability in this mode, the net cost except under
    ral-finite, where it is the consumption sum."""
    cost = m.cost_joint(state, ja)
    if mode is Semantics.RAL_FINITE:
        return cost, consumption_joint(m, state, ja)
    return cost, cost


def move(m: Model, state: str, ja: JointAction, avail: Vec, mode: Semantics):
    """(ja, net cost, step budget, outcomes) if ja's step budget fits avail
    and the move counts in this mode, else None.  A move with no outcomes
    counts only under rbatl.  Outcomes are computed only for a move that
    fits."""
    cost, need = step_costs(m, state, ja, mode)
    if not vec_leq(need, avail):
        return None
    outs = m.outcomes(state, ja)
    if not outs and mode is not Semantics.RBATL:
        return None
    return ja, cost, need, outs


def moves(m: Model, state: str, agents, avail: Vec, mode: Semantics):
    """Every move of the coalition at state under avail, as `move` gives
    it, in `coalition_actions` order."""
    for ja in m.coalition_actions(state, agents):
        mv = move(m, state, ja, avail, mode)
        if mv is not None:
            yield mv


def pre(m: Model, coalition, rho, bound: Vec, mode: Semantics = Semantics.RBATL
        ) -> frozenset[str]:
    """States where the coalition has a move within `bound` whose outcomes
    all land in rho."""
    agents = m.normalize_coalition(coalition)
    target = set(rho)
    result = set()
    for s in m.states:
        for _, _, _, outs in moves(m, s, agents, bound, mode):
            if all(o in target for o in outs):
                result.add(s)
                break
    return frozenset(result)


def fixpoint(m: Model, coalition, hold, base, bound: Vec,
             mode: Semantics = Semantics.RBATL, *, greatest: bool = False,
             closed=None) -> frozenset[str]:
    """muX. base | (hold & pre(X)), or nuX. hold & (base | pre(X)) when
    `greatest`, with pre taken under `bound`.

    The greatest form starts from hold.  The least form starts from base,
    or from `closed` when given: a part of the answer that is already
    closed (hold & pre(closed) <= closed), in which case no `pre` call is
    spent when base adds nothing to it.
    """
    if greatest:
        rho = hold
        while True:
            nxt = hold & (base | pre(m, coalition, rho, bound, mode))
            if nxt == rho:
                return rho
            rho = nxt
    if closed is None:
        rho, tau = base, hold & pre(m, coalition, base, bound, mode)
    else:
        rho, tau = closed, base
    while not tau <= rho:
        rho = rho | tau
        tau = hold & pre(m, coalition, rho, bound, mode)
    return rho


def atl_label(m: Model, f: Formula, lower: dict, mode: Semantics = Semantics.RBATL
              ) -> frozenset[str]:
    """Label one formula given labels for its strict subformulas.

    Propositions and connectives are set algebra; modalities must carry the
    all-INF bound and are solved by `pre` and `fixpoint`.
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
    if isinstance(f, CoalitionNext):
        return pre(m, f.coalition, lower[f.child], f.bound, mode)
    if isinstance(f, CoalitionUntil):
        return fixpoint(m, f.coalition, lower[f.hold], lower[f.goal], f.bound,
                        mode)
    return fixpoint(m, f.coalition, lower[f.child], frozenset(), f.bound, mode,
                    greatest=True)


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
