"""The general labelling engine: dispatcher, minimal credits and the
always search.

Until and always, bounded or not, are decided by minimal credits.  The
availabilities from which A wins are upward-closed, so each state's are
the upward closure of a finite antichain of minimal credits (Dickson's
lemma), taken over the finite components of b.  Under the all-INF bound
no component is finite, an antichain holds the empty credit or nothing,
and the credits are the classical set fixpoints.  One state worklist
computes all of them.  It recomputes a state's antichain from its moves:
a move joins its outcomes' antichains into their minimal componentwise
maxima (the antichain join of De Wulf, Doyen, Henzinger and Raskin, CAV
2006), and each joined credit x asks for max(0, step budget, x + cost).  An
until starts from credit 0 on its goal states (a least fixpoint).  Each
new credit keeps its move and comes from credits inserted before it, so
the earliest-inserted credit below an availability gives a finite
strategy: each outcome then has an earlier credit below what is left.
So the untils with one coalition and one pair of arguments share one run
over every component one of them bounds: a bound that is INF on a
component reads the credits without it, and the all-INF bound holds
wherever there is any credit (the "unknown initial credit" view of
Chatterjee, Doyen, Henzinger and Raskin, FSTTCS 2010).
An always starts from credit 0 on every state of its guard (a greatest
fixpoint, as in the consumption games of Brázdil, Chatterjee, Kučera and
Novotný, CAV 2012).  Where no move it reads produces on a finite
component, availability never grows, so dropping every credit above the
largest bound asked for is exact.  A state's move scan stops at credit
0, which dominates every later candidate, and an until never requeues a
state that holds it: until credits only fall.

Other bounded always, and always certificates, come from depth-first
and-or search whose nodes carry the remaining availability.  Its check
order is frozen: guard, strict-loss-false, loopback-true, moves.

`label_all` is the one labelling loop, of `model_check` and of the
consumption-only check of `rbatl.symbolic`; given `sub_plus`, it labels
the paper's bound ladder on the same credits.
"""

from __future__ import annotations

import bisect
import operator
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import NamedTuple

from .atl import Arena, Arenas, Semantics, check_inputs
from .errors import EngineError, ModelError, VectorError
from .formula import (
    And,
    CoalitionAlways,
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
    with_bound,
)
from .model import JointAction, Model
from .vectors import INF, Vec, all_inf, bound_minus_cost, is_all_inf, vec_geq, vec_leq
from .witness import (
    INTERNAL,
    LOOPBACK_LEAF,
    PSI_LEAF,
    WitnessNode,
    WitnessTree,
)


@dataclass
class SearchStats:
    """Instrumentation for the modalities (per model_check call).

    `nodes` counts the credits inserted, by one run per until's coalition
    and arguments and one per always's credit key (an all-INF always
    inserts one per state of its label), and the nodes of the always
    search; `max_depth` is the height of the tallest until
    strategy or the depth of the deepest always search node.
    `pumps` and `cache_hits` belong to the pumping search the credits
    replaced and stay 0.
    """

    nodes: int = 0
    max_depth: int = 0
    pumps: int = 0
    cache_hits: int = 0


class SearchNode(NamedTuple):
    state: str
    avail: Vec
    path: tuple["SearchNode", ...] = ()


def node0(state: str, bound: Vec) -> SearchNode:
    return SearchNode(state, tuple(bound))


def _leq(x, y) -> bool:
    """`vec_leq` without its length check, for the credit loop, whose
    vectors share one projection."""
    return all(map(operator.le, x, y))


def _join(a: dict, b: dict) -> dict:
    """The minimal componentwise maxima of a credit of `a` and one of `b`,
    each with the larger of their heights: antichains map credits to the
    heights of their strategies."""
    if len(a) == 1 == len(b):
        (x, h), (y, k) = *a.items(), *b.items()
        return {tuple(map(max, x, y)): k if k > h else h}
    out = {}
    for x, h in a.items():
        for y, k in b.items():
            z, top = tuple(map(max, x, y)), max(h, k)
            if z in out:
                out[z] = max(out[z], top)
            elif not any(_leq(c, z) for c in out):
                for c in [c for c in out if _leq(z, c)]:
                    del out[c]
                out[z] = top
    return out


def _guard(arena: Arena, f, labels):
    """The label of f's all-INF variant when `labels` has it, as it has
    for a bounded always in `label_all`; else what f's arguments allow,
    hold or goal for an until and the child for an always.  Either holds
    every state where f does, so the credits are the same from both."""
    guard = labels.get(with_bound(f, all_inf(arena.m.r)))
    if guard is not None:
        return guard
    if isinstance(f, CoalitionUntil):
        return labels[f.hold] | labels[f.goal]
    return labels[f.child]


class _Credits:
    """The minimal credits of one until or always on an arena, bounded or
    not.

    Credits range over the components where `avail` is finite.  With
    `start`, only the states reachable from it through hold states are
    solved, which is all an until certificate from `start` needs.  An
    always drops every credit above `avail`, its cap; its `minimal` is
    None when a move it reads produces on a finite component, since then
    no cap is exact.
    """

    def __init__(self, arena: Arena, f, labels, stats, avail: Vec,
                 start: str | None = None):
        if len(avail) != arena.m.r:
            raise VectorError(f"availability of length {len(avail)} for "
                              f"{arena.m.r} resources")
        self.agents = arena.agents
        fin = self.fin = tuple(i for i, x in enumerate(avail) if x is not INF)
        guard = _guard(arena, f, labels)
        if isinstance(f, CoalitionAlways):
            cap, seeds, solved = tuple(avail[i] for i in fin), guard, guard
        else:
            cap, seeds = None, labels[f.goal]
            self.goal, solved = seeds, guard - seeds
            if start is not None:
                seen = _reachable(arena, start, solved)
                seeds, solved = seeds & seen, solved & seen
        # per solved state, in model order as certificates follow insertion
        # order: its moves into the guard, with their credit floor and cost
        # on the finite components
        steps, preds, ready = {}, defaultdict(list), []
        for s in arena.m.states:
            if s not in solved:
                continue
            mine = steps[s] = []
            for mv in arena.row(s):
                if not guard.issuperset(mv[3]):
                    continue
                if fin:
                    cost = tuple(mv[1][i] for i in fin)
                    if cap is not None and any(c < 0 for c in cost):
                        self.minimal = None
                        return
                    floor = tuple(max(0, mv[2][i]) for i in fin)
                else:  # nothing to project, nor to produce on
                    cost = floor = ()
                mine.append((mv, floor, cost))
                for o in mv[3]:
                    preds[o].append(s)
            if cap is not None or any(seeds.issuperset(mv[3])
                                      for mv, _, _ in mine):
                ready.append(s)
        # per state: its antichain (credit -> height of its strategy), its
        # credits in insertion order with their moves, and their prefix minima
        zero = (0,) * len(fin)
        minimal = self.minimal = dict.fromkeys(seeds, {zero: 1})
        self.entries = {s: [(zero, None)] for s in seeds}
        self.lows = {s: [zero] for s in seeds}
        stats.nodes += len(seeds)
        if seeds and cap is None:
            stats.max_depth = max(stats.max_depth, 1)
        bare = {zero: 0}  # what a move without outcomes joins to
        work = deque(ready)
        queued = set(ready)
        while work:
            s = work.popleft()
            queued.discard(s)
            new, made = {}, []
            for mv, floor, cost in steps[s]:
                joined = bare
                for o in mv[3]:
                    got = minimal.get(o)
                    if not got:
                        break
                    if joined is not got:  # seeds share one antichain
                        joined = got if joined is bare else _join(joined, got)
                else:
                    for x, h in joined.items():
                        cand = tuple(map(max, floor,
                                         map(operator.add, cost, x)))
                        if (cap is not None and not _leq(cand, cap)
                                or any(_leq(c, cand) for c in new)):
                            continue
                        for c in [c for c in new if _leq(cand, c)]:
                            del new[c]
                        new[cand] = h + 1
                        made.append((cand, mv))
                    if zero in new:  # every later candidate is dominated
                        break
            old = minimal.get(s, {})
            if new.keys() == old.keys():
                continue
            minimal[s] = new
            entries = self.entries.setdefault(s, [])
            lows = self.lows.setdefault(s, [])
            for cand, mv in made:
                if cand in new and cand not in old:
                    entries.append((cand, mv))
                    lows.append(tuple(map(min, lows[-1], cand)) if lows
                                else cand)
                    stats.nodes += 1
                    if cap is None:
                        stats.max_depth = max(stats.max_depth, new[cand])
            for p in preds.get(s, ()):
                # until credits only fall, so credit 0 is final
                if p not in queued and (cap is not None
                                        or zero not in minimal.get(p, ())):
                    queued.add(p)
                    work.append(p)

    def holds(self, state: str, avail: Vec) -> bool:
        want = tuple(avail[i] for i in self.fin)
        return any(_leq(c, want) for c in self.minimal.get(state, ()))

    def label(self, bound: Vec) -> frozenset[str]:
        """The states with a credit under `bound`.  A component where
        `bound` is INF asks for nothing, so under the all-INF bound these
        are the states with any credit."""
        want = tuple(bound[i] for i in self.fin)
        if all(x is INF for x in want):
            return frozenset(s for s, got in self.minimal.items() if got)
        return frozenset(s for s, got in self.minimal.items()
                         if any(_leq(c, want) for c in got))

    def strategy(self, state: str, avail: Vec) -> WitnessNode:
        """The certificate from (state, avail), which must hold: at each
        node, the move of the earliest-inserted credit below its
        availability.  No credit before the first prefix minimum below
        the availability can fit, so the scan starts there."""
        root = WitnessNode(state, avail)
        stack = [root]
        while stack:
            node = stack.pop()
            if node.state in self.goal:
                node.kind = PSI_LEAF
                continue
            want = tuple(node.avail[i] for i in self.fin)
            first = bisect.bisect_left(self.lows[node.state], True,
                                       key=lambda low: _leq(low, want))
            entries = self.entries[node.state]
            mv = next(entries[i][1] for i in range(first, len(entries))
                      if _leq(entries[i][0], want))
            node.action = JointAction(self.agents, mv[0])
            after = bound_minus_cost(node.avail, mv[1])
            if after is None:
                raise EngineError("availability underflow past the credit")
            for o in mv[3]:
                child = node.children[o] = WitnessNode(o, after)
                stack.append(child)
        return root


def _reachable(arena: Arena, start: str, hold) -> set[str]:
    """States reachable from start by moves of hold states."""
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        if s not in hold:
            continue
        for mv in arena.row(s):
            for o in mv[3]:
                if o not in seen:
                    seen.add(o)
                    stack.append(o)
    return seen


class _Search:
    """One bounded-always query context (model, coalition, labels).

    Moves come from `arena`, the compiled game of the coalition, which a
    labelling call shares with its other queries; a fresh one by default.
    """

    def __init__(self, m, f, labels, mode, stats, collect=False, arena=None):
        self.m = m
        self.arena = arena or Arena(m, f.coalition, mode)
        self.stats = stats
        self.collect = collect
        self.guard = _guard(self.arena, f, labels)

    def box(self, node: SearchNode):
        """Returns (holds, witness node or None)."""
        self.stats.nodes += 1
        depth = len(node.path) + 1
        if depth > self.stats.max_depth:
            self.stats.max_depth = depth
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
                    wn = WitnessNode(s, node.avail, LOOPBACK_LEAF, loopback=i)
                return True, wn
        child_path = node.path + (node,)
        for actions, cost, _, outs in self.arena.moves(s, node.avail):
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
                    wn = WitnessNode(s, node.avail, INTERNAL,
                                     JointAction(self.arena.agents, actions),
                                     kids)
                return True, wn
        return False, None


def until_strategy(m: Model, node: SearchNode, f: CoalitionUntil, labels,
                   mode: Semantics = Semantics.RBATL, *, stats=None,
                   witness=False):
    """Decide the bounded until at (node.state, node.avail) by the minimal
    credits of the states reachable from it; optionally a witness."""
    credits = _Credits(Arena(m, f.coalition, mode), f, labels,
                       stats or SearchStats(), node.avail, start=node.state)
    holds = credits.holds(node.state, node.avail)
    if not witness:
        return holds
    return holds, credits.strategy(node.state, node.avail) if holds else None


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
    """Label every formula in sub_ordered(f0) with its satisfying states;
    the map lists them in that order.

    Propositions and connectives are set algebra; next is a single
    predecessor step; an until or always, bounded or not, reads its label
    off one minimal-credit computation over all states, except a bounded
    always whose moves produce, which runs the tree search from every
    state.  All of them take their moves from one arena per coalition,
    kept for the length of the call.
    """
    check_inputs(m, f0)
    return label_all(m, sub_ordered(f0), mode, stats or SearchStats())


def _credit_key(f):
    """Untils with the same coalition and arguments share one set of
    minimal credits, whatever their bounds.  Always share one only when
    they are INF on the same components, since capped credits do not give
    an uncapped greatest fixpoint."""
    if isinstance(f, CoalitionUntil):
        return f.coalition, children(f)
    return f.coalition, children(f), tuple(b is INF for b in f.bound)


def label_all(m: Model, order, mode: Semantics, stats
              ) -> dict[Formula, frozenset[str]]:
    """The labelling loop of `model_check` and `rb_atl_label`: label each
    formula of `order`, every strict subformula and the all-INF variant of
    a bounded modality first.  The returned map is in `order`.

    The modalities of one `_credit_key` share one set of minimal credits,
    and each reads its label off them in one pass, an until's all-INF
    guard included.  An until's credits range over every component that
    some until of its key in `order` bounds; an always's are capped at
    the componentwise largest of the bounds of its key in `order`.  Equal
    labels are kept as one object, since the variants of one modality
    often share them.
    """
    arenas = Arenas(m, mode)
    labels: dict[Formula, frozenset[str]] = {}
    credits: dict = {}
    caps: dict = {}
    for f in order:
        if isinstance(f, (CoalitionUntil, CoalitionAlways)):
            # an until's values do not matter, only which are finite
            key = _credit_key(f)
            merge = min if isinstance(f, CoalitionUntil) else max
            caps[key] = tuple(map(merge, caps.get(key, f.bound), f.bound))
    same: dict = {}
    for f in order:
        if not is_modal(f):
            x = atl_label(m, f, labels, mode)
        elif isinstance(f, CoalitionNext):
            x = arenas(f.coalition).pre(labels[f.child], f.bound)
        else:
            key = _credit_key(f)
            c = credits.get(key)
            if c is None:
                # a key's first until finds no all-INF label to prune by,
                # as that label is read off this run
                c = credits[key] = _Credits(arenas(f.coalition), f, labels,
                                            stats, caps[key])
            if c.minimal is None:  # an always whose moves produce
                search = _Search(m, f, labels, mode, stats,
                                 arena=arenas(f.coalition))
                x = frozenset(s for s in m.states
                              if search.box(node0(s, f.bound))[0])
            else:
                x = c.label(f.bound)
        labels[f] = same.setdefault(x, x)
    return labels


def atl_label(m: Model, f: Formula, lower: dict,
              mode: Semantics = Semantics.RBATL) -> frozenset[str]:
    """Label one formula given labels for its strict subformulas.

    Propositions and connectives are set algebra; modalities must carry the
    all-INF bound and are solved over a one-shot `Arena`: next by one
    predecessor step, until and always by credits with no finite component.
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
    arena = Arena(m, f.coalition, mode)
    if isinstance(f, CoalitionNext):
        return arena.pre(lower[f.child], f.bound)
    return _Credits(arena, f, lower, SearchStats(), f.bound).label(f.bound)


def eval_propositional(m: Model, f: Formula) -> frozenset[str]:
    """Label a modality-free formula from the model's propositions."""
    labels: dict = {}
    for g in sub_ordered(f):
        if is_modal(g):
            raise ModelError(f"formula is not propositional: {f!r}")
        labels[g] = atl_label(m, g, labels)
    return labels[f]


def find_witness(m: Model, f: Formula, state: str,
                 mode: Semantics = Semantics.RBATL, *,
                 labels=None) -> WitnessTree | None:
    """Build the certificate of the query at state; None when it fails.

    Until certificates are concrete: every node carries a finite
    availability on the bound's finite components.
    """
    if not isinstance(f, (CoalitionUntil, CoalitionAlways)):
        raise EngineError("witnesses exist for until/always modalities only")
    if state not in m.states:
        raise ModelError(f"unknown state {state!r}")
    if labels is None:
        labels = model_check(m, f, mode)
    strategy = until_strategy if isinstance(f, CoalitionUntil) else box_strategy
    holds, wn = strategy(m, node0(state, f.bound), f, labels, mode,
                         witness=True)
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
