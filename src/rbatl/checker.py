"""The general labelling engine: dispatcher, minimal credits and the
always search.

A bounded until <<A>>_b (hold U goal) is decided by minimal credits.  The
availabilities from which A can force the goal are upward-closed, so each
state's are the upward closure of a finite antichain of minimal credits
(Dickson's lemma), taken over the finite components of b.  A goal state
needs nothing; a hold state needs, for one of its moves and one credit per
outcome, max(0, step budget, outcome credit + cost).  A worklist adds
candidates until none is undominated; a state satisfies the until when one
of its credits fits b.  Every inserted credit keeps its move, so the
earliest-inserted credit below an availability gives a finite strategy
directly: each outcome then has an earlier credit below what is left.

A bounded always is decided by depth-first and-or search whose nodes carry
the remaining availability.  Its check order is frozen: unbounded guard,
strict-loss-false, loopback-true, moves.

`label_all` is the one labelling loop; the consumption-only bound ladder
of `rbatl.symbolic` runs it too, with its own bounded always.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections import deque
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
    INTERNAL,
    LOOPBACK_LEAF,
    PSI_LEAF,
    WitnessNode,
    WitnessTree,
)


@dataclass
class SearchStats:
    """Instrumentation for the bounded modalities (per model_check call).

    An until adds its inserted credits to `nodes` and the height of its
    tallest strategy to `max_depth`; `pumps` and `cache_hits` belong to
    the pumping search this engine replaced and stay 0.
    """

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


def _leq(x, y) -> bool:
    """`vec_leq` without its length check, for the credit loops, whose
    vectors share one projection."""
    return all(map(operator.le, x, y))


class _Credits:
    """The minimal credits of one bounded until on an arena.

    Credits range over the components where `avail` is finite.  With
    `start`, only the states reachable from it through hold states are
    solved, which is all a certificate from `start` needs.
    """

    def __init__(self, arena: Arena, f: CoalitionUntil, labels, stats,
                 avail: Vec, start: str | None = None):
        m = arena.m
        self.fin = fin = tuple(i for i, x in enumerate(avail) if x is not INF)
        self.goal = goal = labels[f.goal]
        top = all_inf(m.r)
        guard = labels.get(with_bound(f, top))
        if guard is None:  # a bound ladder labels it after its variants
            guard = arena.fixpoint(labels[f.hold], goal, top)
        hold = guard - goal
        if start is None:
            region = m.states
        else:  # in model order: certificates follow insertion order
            seen = _reachable(arena, start, hold)
            region = [s for s in m.states if s in seen]
        # per state: the credits in insertion order with their moves, the
        # componentwise minimum of the credits so far, and the credits no
        # later one lies below; per (state, credit): its strategy's height
        self.entries: dict[str, list] = {}
        self.lows: dict[str, list] = {}
        self.minimal: dict[str, list] = {}
        heights = {}
        work = deque()

        def insert(s, credit, mv, height):
            known = self.minimal.setdefault(s, [])
            for c in known:
                if _leq(c, credit):
                    return
            known[:] = [c for c in known if not _leq(credit, c)]
            known.append(credit)
            lows = self.lows.setdefault(s, [])
            lows.append(tuple(map(min, lows[-1], credit)) if lows else credit)
            self.entries.setdefault(s, []).append((credit, mv))
            heights[s, credit] = height
            stats.nodes += 1
            stats.max_depth = max(stats.max_depth, height)
            work.append((s, credit))

        preds = {}  # outcome -> (owner, move, credit floor, projected cost)
        for s in region:
            if s in goal:
                insert(s, (0,) * len(fin), None, 1)
                continue
            if s not in hold:
                continue
            for mv in arena.row(s):
                floor = tuple(max(0, mv[2][i]) for i in fin)
                if not mv[3]:
                    insert(s, floor, mv, 1)
                cost = tuple(mv[1][i] for i in fin)
                for o in mv[3]:
                    preds.setdefault(o, []).append((s, mv, floor, cost))
        while work:
            t, credit = work.popleft()
            if credit not in self.minimal[t]:
                continue  # a later credit below it does its work
            for s, mv, floor, cost in preds.get(t, ()):
                choices = []
                for o in mv[3]:
                    got = (credit,) if o == t else self.minimal.get(o)
                    if not got:
                        break
                    choices.append(got)
                else:
                    for combo in itertools.product(*choices):
                        cand = tuple(max(fl, c + max(xs)) for fl, c, xs
                                     in zip(floor, cost, zip(*combo)))
                        height = 1 + max(heights[o, c]
                                         for o, c in zip(mv[3], combo))
                        insert(s, cand, mv, height)

    def holds(self, state: str, avail: Vec) -> bool:
        want = tuple(avail[i] for i in self.fin)
        return any(_leq(c, want) for c in self.minimal.get(state, ()))

    def strategy(self, state: str, avail: Vec) -> WitnessNode:
        """The certificate from (state, avail), which must hold: at each
        node, the move of the earliest-inserted credit below its
        availability.  No credit before the first prefix minimum below
        the availability can fit, so the scan starts there."""
        root = WitnessNode(state, avail, avail)
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
            node.action = mv[0]
            after = bound_minus_cost(node.avail, mv[1])
            if after is None:
                raise EngineError("availability underflow past the credit")
            for o in mv[3]:
                child = node.children[o] = WitnessNode(o, after, after)
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
        self.guard = labels[with_bound(f, all_inf(m.r))]

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
    """Label every formula in sub_ordered(f0) with its satisfying states.

    Propositions and connectives are set algebra; all-INF modalities go to
    the classical fixpoints; bounded next is a single predecessor step; a
    bounded until is one minimal-credit computation over all states, and
    a bounded always runs the tree search from every state.  All of them
    take their moves from one arena per coalition, kept for the length of
    the call.
    """
    check_inputs(m, f0)
    return label_all(m, sub_ordered(f0), mode, _search_always,
                     stats or SearchStats())


def _search_always(arena: Arena, f: CoalitionAlways, labels, stats
                   ) -> frozenset[str]:
    search = _Search(arena.m, f, labels, arena.mode, stats, arena=arena)
    return frozenset(
        s for s in arena.m.states if search.box(node0(s, f.bound))[0]
    )


def label_all(m: Model, order, mode: Semantics, always, stats
              ) -> dict[Formula, frozenset[str]]:
    """The labelling loop of `model_check` and `rb_atl_label`: label each
    formula of `order`, every strict subformula first, with bounded always
    left to `always(arena, f, labels, stats)`.

    Untils that differ only in their finite bound values share one set of
    minimal credits, and each reads its label off them.  Equal labels are
    kept as one object, since a bound ladder repeats them many times.
    """
    arenas = Arenas(m, mode)
    labels: dict[Formula, frozenset[str]] = {}
    credits: dict = {}
    same: dict = {}
    for f in order:
        if not is_modal(f):
            x = atl_label(m, f, labels, mode)
        elif isinstance(f, CoalitionNext) or is_all_inf(f.bound):
            x = arenas(f.coalition).label(f, labels)
        elif isinstance(f, CoalitionUntil):
            key = (f.coalition, f.hold, f.goal,
                   tuple(b is INF for b in f.bound))
            c = credits.get(key)
            if c is None:
                c = credits[key] = _Credits(arenas(f.coalition), f, labels,
                                            stats, f.bound)
            x = frozenset(s for s in m.states if c.holds(s, f.bound))
        else:
            x = always(arenas(f.coalition), f, labels, stats)
        labels[f] = same.setdefault(x, x)
    return labels


def find_witness(m: Model, f: Formula, state: str,
                 mode: Semantics = Semantics.RBATL, *,
                 labels=None) -> WitnessTree | None:
    """Build the certificate of the query at state; None when it fails.

    Until certificates are concrete: every node carries a finite
    availability on the bound's finite components and no pumping record.
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
