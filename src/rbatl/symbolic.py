"""Fixpoint labelling for consumption-only models.

Without production, availability only shrinks, so bounded until/always can
be solved by set fixpoints over an extended subformula ladder instead of
tree search.  Under bound b a strategy either spends nothing on the finite
components for good, or takes such free steps until it spends some non-zero
d and continues under d' = b - d, whose label sits earlier in the ladder.
With free = proj_inf(b), Z the label under free, and

  S = union over (d, d') in split(b) of hold & pre(L[d'], d)

the states that can spend now, the labels are

  until:   muX. goal | S | (hold & pre_free(X)),  started from Z
  always:  nuX. hold & (S | pre_free(X))

Z is closed under the free step, so the until costs no `pre` call beyond
the split pairs when S adds nothing to Z.  For bounds with only 0/INF
components, b = free, S is empty and the fixpoints are the plain ones.
"""

from __future__ import annotations

from .atl import Arenas, Semantics, atl_label, check_inputs
from .errors import EngineError
from .formula import (
    CoalitionNext,
    CoalitionUntil,
    Formula,
    is_modal,
    sub_plus,
    with_bound,
)
from .model import Model
from .vectors import proj_inf, split  # re-exported: split is this engine's ladder

__all__ = ["split", "rb_atl_label", "is_consumption_only"]


def is_consumption_only(m: Model) -> bool:
    return all(
        c >= 0
        for per_agent in m.actions.values()
        for menu in per_agent.values()
        for cost in menu.values()
        for c in cost
    )


def _label_bounded(arena, f, labels):
    """One until/always label under any bound, as the module docstring says."""
    until = isinstance(f, CoalitionUntil)
    hold = labels[f.hold] if until else labels[f.child]
    base = labels[f.goal] if until else frozenset()
    free = proj_inf(f.bound)
    closed = None
    if free != f.bound:
        closed = labels[with_bound(f, free)]
        for d, dprime in split(f.bound):
            base = base | (hold & arena.pre(labels[with_bound(f, dprime)], d))
    return arena.fixpoint(hold, base, free, greatest=not until, closed=closed)


def rb_atl_label(m: Model, f0: Formula, mode: Semantics = Semantics.RBATL
                 ) -> dict[Formula, frozenset[str]]:
    """Label every formula in sub_plus(f0) over a consumption-only model."""
    check_inputs(m, f0)
    if not is_consumption_only(m):
        raise EngineError(
            "model produces resources; the symbolic engine needs a "
            "consumption-only model, use the general checker instead"
        )
    arenas = Arenas(m, mode)
    labels: dict[Formula, frozenset[str]] = {}
    for f in sub_plus(f0):
        if not is_modal(f):
            labels[f] = atl_label(m, f, labels, mode)
        elif isinstance(f, CoalitionNext):
            labels[f] = arenas(f.coalition).pre(labels[f.child], f.bound)
        else:
            labels[f] = _label_bounded(arenas(f.coalition), f, labels)
    return labels
