"""The consumption-only check.

`rb_atl_label` labels the closure `model_check` labels (`sub_ordered`),
on the same minimal credits, after refusing a model that produces.
Without production, availability never grows, so the credits of a
bounded always capped at the largest bound the formula asks for are
exact.

The paper's algorithm also labels each bounded until and always under
every bound d' of a split (d, d') of its bound.  No later formula reads
those variants, and each one is read off the same credits: a variant
under d' holds at s exactly when some minimal credit of s is <= d'.  The
ladder stays one call away, `label_all(m, sub_plus(f0), mode,
SearchStats())`; the split ladder's own set fixpoints stay in the tests
as the reference.
"""

from __future__ import annotations

from .atl import Semantics, check_inputs
from .checker import SearchStats, label_all
from .errors import EngineError
from .formula import Formula, sub_ordered
from .model import Model

__all__ = ["rb_atl_label", "is_consumption_only"]


def is_consumption_only(m: Model) -> bool:
    return all(
        c >= 0
        for per_agent in m.actions.values()
        for menu in per_agent.values()
        for cost in menu.values()
        for c in cost
    )


def rb_atl_label(m: Model, f0: Formula, mode: Semantics = Semantics.RBATL
                 ) -> dict[Formula, frozenset[str]]:
    """Label every formula in sub_ordered(f0) over a consumption-only
    model; the map is `model_check`'s."""
    check_inputs(m, f0)
    if not is_consumption_only(m):
        raise EngineError(
            "model produces resources; the symbolic engine needs a "
            "consumption-only model, use the general checker instead"
        )
    return label_all(m, sub_ordered(f0), mode, SearchStats())
