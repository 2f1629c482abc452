"""The bound ladder for consumption-only models.

Without production, availability only shrinks, so a bounded always can be
solved by a set fixpoint over an extended subformula ladder instead of
tree search.  Under bound b a strategy either spends nothing on the finite
components for good, or takes such free steps until it spends some non-zero
d and continues under d' = b - d, whose label sits earlier in the ladder.
With free = proj_inf(b) and

  S = union over (d, d') in split(b) of hold & pre(L[d'], d)

the states that can spend now, the label is

  always:  nuX. hold & (S | pre_free(X))

For bounds with only 0/INF components, b = free, S is empty and the
fixpoint is the plain one.  Every other formula of the ladder, bounded
until included, is labelled as `model_check` labels it, by the loop they
share.
"""

from __future__ import annotations

from .atl import Semantics, check_inputs
from .checker import SearchStats, label_all
from .errors import EngineError
from .formula import Formula, sub_plus, with_bound
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


def _ladder_always(arena, f, labels, stats):
    """One bounded always label, as the module docstring says."""
    hold = labels[f.child]
    base = frozenset()
    for d, dprime in split(f.bound):
        base |= hold & arena.pre(labels[with_bound(f, dprime)], d)
    return arena.fixpoint(hold, base, proj_inf(f.bound), greatest=True)


def rb_atl_label(m: Model, f0: Formula, mode: Semantics = Semantics.RBATL
                 ) -> dict[Formula, frozenset[str]]:
    """Label every formula in sub_plus(f0) over a consumption-only model."""
    check_inputs(m, f0)
    if not is_consumption_only(m):
        raise EngineError(
            "model produces resources; the symbolic engine needs a "
            "consumption-only model, use the general checker instead"
        )
    return label_all(m, sub_plus(f0), mode, _ladder_always,
                     SearchStats())
