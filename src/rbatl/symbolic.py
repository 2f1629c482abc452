"""The bound ladder for consumption-only models.

`rb_atl_label` labels every variant of the extended subformula ladder
(`sub_plus`): each bounded until or always under every bound d' of a
split (d, d') of its bound b, after its all-INF variant and after every
smaller bound of the ladder.  It runs the labelling loop of
`model_check`, so every variant is read off one set of minimal credits
per (coalition, subformulas, finite components), and its map lists them
in that order.  Without production,
availability never grows, so the credits of a bounded always capped at
the largest bound of the ladder are exact.  The split ladder's own set
fixpoints stay in the tests as the reference.
"""

from __future__ import annotations

from .atl import Semantics, check_inputs
from .checker import SearchStats, label_all
from .errors import EngineError
from .formula import Formula, sub_plus
from .model import Model
from .vectors import split  # re-exported: split builds the ladder

__all__ = ["split", "rb_atl_label", "is_consumption_only"]


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
    """Label every formula in sub_plus(f0) over a consumption-only model."""
    check_inputs(m, f0)
    if not is_consumption_only(m):
        raise EngineError(
            "model produces resources; the symbolic engine needs a "
            "consumption-only model, use the general checker instead"
        )
    return label_all(m, sub_plus(f0), mode, SearchStats())
