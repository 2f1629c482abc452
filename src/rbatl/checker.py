"""The general labelling engine: dispatcher plus the and-or tree searches.

Bounded until/always modalities are decided by depth-first and-or search
whose nodes carry the remaining availability.  Revisiting a state without
having gained anything is pruned; revisiting with a strict gain on some
resource pumps that component to INF, recording which ancestor loop backs
the claim so certificates can later be made concrete.  The check order
inside the searches is frozen:

  until: unbounded-guard, dominance-false, pumping, goal, all-INF,
         success cache (not while recording a witness), moves
  always: unbounded-guard, strict-loss-false, loopback-true, moves

Ancestors are compared against their availability as recorded when they
were visited (after their own pumping, never retroactively updated).
"""

from __future__ import annotations

from dataclasses import dataclass

from .atl import Arena, Arenas, Semantics, atl_label, check_inputs
from .errors import EngineError, ModelError
from .formula import (
    CoalitionAlways,
    CoalitionNext,
    CoalitionUntil,
    Formula,
    format_formula,
    is_modal,
    sub_ordered,
    with_bound,
)
from .model import Model
from .vectors import INF, Vec, all_inf, bound_minus_cost, is_all_inf, vec_geq, vec_leq
from .witness import (
    ALL_INF_LEAF,
    INTERNAL,
    LOOPBACK_LEAF,
    PSI_LEAF,
    WitnessNode,
    WitnessTree,
)

_NO_PUMP = 1 << 60  # sentinel anchor depth: "subtree relies on no ancestor"


@dataclass
class SearchStats:
    """Instrumentation for the tree searches (per model_check call)."""

    nodes: int = 0
    max_depth: int = 0
    pumps: int = 0
    cache_hits: int = 0


@dataclass(frozen=True)
class SearchNode:
    state: str
    avail: Vec
    path: tuple["SearchNode", ...] = ()


def node0(state: str, bound: Vec) -> SearchNode:
    return SearchNode(state, tuple(bound))


class _Search:
    """One bounded-modality query context (model, coalition, labels).

    Moves come from `arena`, the compiled game of the coalition, which a
    labelling call shares with its other queries; a fresh one by default.
    """

    def __init__(self, m, f, labels, mode, stats, collect=False, arena=None):
        self.m = m
        self.arena = arena or Arena(m, f.coalition, mode)
        self.stats = stats
        self.collect = collect
        # until successes per state, as minimal availabilities; a hit has no
        # subtree to record, so a recording search runs without one
        self.cache = None if collect else {}
        guard_formula = with_bound(f, all_inf(m.r))
        self.guard = labels[guard_formula]
        self.psi = labels[f.goal] if isinstance(f, CoalitionUntil) else None

    def _visit(self, node):
        self.stats.nodes += 1
        depth = len(node.path) + 1
        if depth > self.stats.max_depth:
            self.stats.max_depth = depth

    # -- until ----------------------------------------------------------

    def until(self, node: SearchNode):
        """Returns (holds, witness node or None, minimal pump anchor depth)."""
        self._visit(node)
        s = node.state
        if s not in self.guard:
            return False, None, _NO_PUMP
        same = [(i, anc) for i, anc in enumerate(node.path) if anc.state == s]
        for _, anc in same:
            if vec_geq(anc.avail, node.avail):
                return False, None, _NO_PUMP
        pumped = {}
        for res in range(self.m.r):
            if node.avail[res] is INF:
                continue
            for i, anc in same:
                if (vec_leq(anc.avail, node.avail)
                        and anc.avail[res] < node.avail[res]):
                    pumped[res] = i
                    break
        if pumped:
            self.stats.pumps += len(pumped)
            avail = tuple(
                INF if res in pumped else x for res, x in enumerate(node.avail)
            )
        else:
            avail = node.avail
        anchor = min(pumped.values(), default=_NO_PUMP)
        if s in self.psi:
            wn = None
            if self.collect:
                wn = WitnessNode(s, node.avail, avail, PSI_LEAF, pumped=pumped)
            return True, wn, anchor
        if all(x is INF for x in avail):
            wn = None
            if self.collect:
                wn = WitnessNode(s, node.avail, avail, ALL_INF_LEAF,
                                 pumped=pumped)
            return True, wn, anchor
        if self.cache is not None:
            for known in self.cache.get(s, ()):
                if vec_leq(known, avail):
                    self.stats.cache_hits += 1
                    return True, None, _NO_PUMP
        depth = len(node.path)
        child_path = node.path + (SearchNode(s, avail, node.path),)
        for ja, cost, _, outs, _ in self.arena.moves(s, avail):
            after = bound_minus_cost(avail, cost)
            if after is None:
                raise EngineError("availability underflow past the cost filter")
            ok = True
            kids = {}
            sub_anchor = anchor
            for o in outs:
                holds, wn, child_anchor = self.until(
                    SearchNode(o, after, child_path)
                )
                if not holds:
                    ok = False
                    break
                kids[o] = wn
                if child_anchor < sub_anchor:
                    sub_anchor = child_anchor
            if ok:
                if self.cache is not None and sub_anchor >= depth:
                    self._cache_insert(s, avail)
                wn = None
                if self.collect:
                    wn = WitnessNode(s, node.avail, avail, INTERNAL, ja, kids,
                                     pumped=pumped)
                return True, wn, sub_anchor
        return False, None, _NO_PUMP

    def _cache_insert(self, state, avail):
        entries = self.cache.setdefault(state, [])
        for known in entries:
            if vec_leq(known, avail):
                return
        entries[:] = [known for known in entries if not vec_leq(avail, known)]
        entries.append(avail)

    # -- always ---------------------------------------------------------

    def box(self, node: SearchNode):
        """Returns (holds, witness node or None)."""
        self._visit(node)
        s = node.state
        if s not in self.guard:
            return False, None
        same = [(i, anc) for i, anc in enumerate(node.path) if anc.state == s]
        for _, anc in same:
            if vec_geq(anc.avail, node.avail) and anc.avail != node.avail:
                return False, None
        for i, anc in same:
            if vec_leq(anc.avail, node.avail):
                wn = None
                if self.collect:
                    wn = WitnessNode(s, node.avail, node.avail, LOOPBACK_LEAF,
                                     loopback=i)
                return True, wn
        child_path = node.path + (node,)
        for ja, cost, _, outs, _ in self.arena.moves(s, node.avail):
            after = bound_minus_cost(node.avail, cost)
            if after is None:
                raise EngineError("availability underflow past the cost filter")
            ok = True
            kids = {}
            for o in outs:
                holds, wn = self.box(SearchNode(o, after, child_path))
                if not holds:
                    ok = False
                    break
                kids[o] = wn
            if ok:
                wn = None
                if self.collect:
                    wn = WitnessNode(s, node.avail, node.avail, INTERNAL, ja,
                                     kids)
                return True, wn
        return False, None


def until_strategy(m: Model, node: SearchNode, f: CoalitionUntil, labels,
                   mode: Semantics = Semantics.RBATL, *, stats=None,
                   witness=False):
    """Decide the bounded until from a search node; optionally a witness."""
    search = _Search(m, f, labels, mode, stats or SearchStats(),
                     collect=witness)
    holds, wn, _ = search.until(node)
    return (holds, wn) if witness else holds


def box_strategy(m: Model, node: SearchNode, f: CoalitionAlways, labels,
                 mode: Semantics = Semantics.RBATL, *, stats=None,
                 witness=False):
    """Decide the bounded always from a search node; optionally a witness."""
    search = _Search(m, f, labels, mode, stats or SearchStats(),
                     collect=witness)
    holds, wn = search.box(node)
    return (holds, wn) if witness else holds


def model_check(m: Model, f0: Formula, mode: Semantics = Semantics.RBATL, *,
                stats: SearchStats | None = None
                ) -> dict[Formula, frozenset[str]]:
    """Label every formula in sub_ordered(f0) with its satisfying states.

    Propositions and connectives are set algebra; all-INF modalities go to
    the classical fixpoints; bounded next is a single predecessor step;
    bounded until/always run the tree searches from every state, one search
    context per subformula, so until successes are shared across states.
    All of them take their moves from one arena per coalition, kept for
    the length of the call.
    """
    check_inputs(m, f0)
    if stats is None:
        stats = SearchStats()
    arenas = Arenas(m, mode)
    labels: dict[Formula, frozenset[str]] = {}
    for f in sub_ordered(f0):
        if not is_modal(f):
            labels[f] = atl_label(m, f, labels, mode)
        elif isinstance(f, CoalitionNext) or is_all_inf(f.bound):
            labels[f] = arenas(f.coalition).label(f, labels)
        else:
            search = _Search(m, f, labels, mode, stats,
                             arena=arenas(f.coalition))
            run = search.until if isinstance(f, CoalitionUntil) else search.box
            labels[f] = frozenset(
                s for s in m.states if run(node0(s, f.bound))[0]
            )
    return labels


def find_witness(m: Model, f: Formula, state: str,
                 mode: Semantics = Semantics.RBATL, *,
                 labels=None) -> WitnessTree | None:
    """Run the search once with recording; None when the property fails.

    Only until/always modalities produce trees; the result for an until is
    raw (possibly pumped) and should be concretized before validation.
    """
    if not isinstance(f, (CoalitionUntil, CoalitionAlways)):
        raise EngineError("witnesses exist for until/always modalities only")
    if state not in m.states:
        raise ModelError(f"unknown state {state!r}")
    if labels is None:
        labels = model_check(m, f, mode)
    stats = SearchStats()
    if isinstance(f, CoalitionUntil):
        holds, wn = until_strategy(m, node0(state, f.bound), f, labels, mode,
                                   stats=stats, witness=True)
    else:
        holds, wn = box_strategy(m, node0(state, f.bound), f, labels, mode,
                                 stats=stats, witness=True)
    if not holds:
        return None
    return WitnessTree(
        kind="until" if isinstance(f, CoalitionUntil) else "box",
        coalition=m.normalize_coalition(f.coalition),
        bound=tuple(f.bound),
        mode=mode,
        formula=format_formula(f),
        root=wn,
    )
