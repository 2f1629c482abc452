"""The general labelling engine: dispatcher, minimal credits and the
always search.

Bounded until and always are decided by minimal credits.  The
availabilities from which A wins are upward-closed, so each state's are
the upward closure of a finite antichain of minimal credits (Dickson's
lemma), taken over the finite components of b.  For one move and one
credit per outcome, a state needs max(0, step budget, outcome credit +
cost).  An until adds candidates from credit 0 on its goal states until
none is undominated (a least fixpoint).  Every inserted credit keeps its
move, so the earliest-inserted credit below an availability gives a
finite strategy: each outcome then has an earlier credit below what is
left.  An always starts from credit 0 on every state of its unbounded
label and recomputes antichains until none changes (a greatest fixpoint,
as in the consumption games of Brázdil, Chatterjee, Kučera and Novotný,
CAV 2012).  Where no move it reads produces on a finite component,
availability never grows, so dropping every credit above the largest
bound asked for is exact.

Other bounded always, and always certificates, come from depth-first
and-or search whose nodes carry the remaining availability.  Its check
order is frozen: unbounded guard, strict-loss-false, loopback-true, moves.

`label_all` is the one labelling loop, of `model_check` and of the
consumption-only bound ladder of `rbatl.symbolic`.
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
    """Instrumentation for the bounded modalities (per model_check call).

    An until adds its inserted credits to `nodes` and the height of its
    tallest strategy to `max_depth`.  An always on credits adds one to
    `nodes` per recomputed antichain, and the always search its search
    nodes and their depth.  `pumps` and `cache_hits` belong to the pumping
    search the credits replaced and stay 0.
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
    """The minimal credits of one bounded until or always on an arena.

    Credits range over the components where `avail` is finite.  With
    `start`, only the states reachable from it through hold states are
    solved, which is all an until certificate from `start` needs.  An
    always drops every credit above `avail`, its cap; its `minimal` is
    None when a move it reads produces on a finite component, since then
    no cap is exact.
    """

    def __init__(self, arena: Arena, f, labels, stats, avail: Vec,
                 start: str | None = None):
        self.agents = arena.agents
        self.fin = tuple(i for i, x in enumerate(avail) if x is not INF)
        guard = labels.get(with_bound(f, all_inf(arena.m.r)))
        if guard is None:  # a bound ladder labels it after its variants
            guard = arena.fixpoint(*(labels[g] for g in children(f)))
        if isinstance(f, CoalitionAlways):
            self._always(arena, guard, avail, stats)
            return
        self.goal = goal = labels[f.goal]
        hold = guard - goal
        m = arena.m
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
                insert(s, (0,) * len(self.fin), None, 1)
                continue
            if s not in hold:
                continue
            for mv, floor, cost in self._steps(arena, s):
                if not mv[3]:
                    insert(s, floor, mv, 1)
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

    def _steps(self, arena: Arena, s: str):
        """(move, credit floor, cost) per move of s, the floor max(0, step
        budget) and the cost taken on the finite components."""
        fin = self.fin
        for mv in arena.row(s):
            yield (mv, tuple(max(0, mv[2][i]) for i in fin),
                   tuple(mv[1][i] for i in fin))

    def _always(self, arena: Arena, guard, cap: Vec, stats) -> None:
        """Credit 0 on every guard state, then a state worklist: a state's
        antichain is recomputed from its moves that stay in the guard, and
        a change requeues its predecessors.  Credits only rise, so the
        antichains shrink to the greatest fixpoint."""
        cap = tuple(cap[i] for i in self.fin)
        states = [s for s in arena.m.states if s in guard]
        steps, preds = {}, {}
        for s in states:
            mine = steps[s] = []
            for mv, floor, cost in self._steps(arena, s):
                if not guard.issuperset(mv[3]):
                    continue
                if any(c < 0 for c in cost):
                    self.minimal = None
                    return
                mine.append((floor, cost, mv[3]))
                for o in mv[3]:
                    preds.setdefault(o, {})[s] = None
        minimal = self.minimal = dict.fromkeys(states, ((0,) * len(cap),))
        work = deque(states)
        queued = set(states)
        while work:
            s = work.popleft()
            queued.discard(s)
            stats.nodes += 1
            new = []
            for floor, cost, outs in steps[s]:
                for combo in itertools.product(*(minimal[o] for o in outs)):
                    cand = tuple(max(fl, c + max(xs)) for fl, c, xs
                                 in zip(floor, cost, zip(*combo))
                                 ) if combo else floor
                    if not _leq(cand, cap) or any(_leq(c, cand) for c in new):
                        continue
                    new = [c for c in new if not _leq(cand, c)]
                    new.append(cand)
            if set(new) != set(minimal[s]):
                minimal[s] = tuple(new)
                for p in preds.get(s, ()):
                    if p not in queued:
                        queued.add(p)
                        work.append(p)

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
            node.action = JointAction(self.agents, mv[0])
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
                    wn = WitnessNode(s, node.avail, node.avail, INTERNAL,
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
    """Label every formula in sub_ordered(f0) with its satisfying states.

    Propositions and connectives are set algebra; all-INF modalities go to
    the classical fixpoints; bounded next is a single predecessor step; a
    bounded until or always reads its label off one minimal-credit
    computation over all states, except an always whose moves produce,
    which runs the tree search from every state.  All of them take their
    moves from one arena per coalition, kept for the length of the call.
    """
    check_inputs(m, f0)
    return label_all(m, sub_ordered(f0), mode, stats or SearchStats())


def _credit_key(f):
    """Bounded modalities that differ only in their finite bound values
    share one set of minimal credits."""
    return f.coalition, children(f), tuple(b is INF for b in f.bound)


def label_all(m: Model, order, mode: Semantics, stats
              ) -> dict[Formula, frozenset[str]]:
    """The labelling loop of `model_check` and `rb_atl_label`: label each
    formula of `order`, every strict subformula first.

    Untils and always that differ only in their finite bound values share
    one set of minimal credits, and each reads its label off them.  An
    always's credits are capped at the componentwise largest of those
    bounds in `order`.  Equal labels are kept as one object, since a bound
    ladder repeats them many times.
    """
    arenas = Arenas(m, mode)
    labels: dict[Formula, frozenset[str]] = {}
    credits: dict = {}
    caps: dict = {}
    for f in order:
        if isinstance(f, CoalitionAlways) and not is_all_inf(f.bound):
            key = _credit_key(f)
            caps[key] = tuple(map(max, caps.get(key, f.bound), f.bound))
    same: dict = {}
    for f in order:
        if not is_modal(f):
            x = atl_label(m, f, labels, mode)
        elif isinstance(f, CoalitionNext) or is_all_inf(f.bound):
            x = arenas(f.coalition).label(f, labels)
        else:
            key = _credit_key(f)
            c = credits.get(key)
            if c is None:
                c = credits[key] = _Credits(arenas(f.coalition), f, labels,
                                            stats, caps.get(key, f.bound))
            if c.minimal is None:  # an always whose moves produce
                search = _Search(m, f, labels, mode, stats,
                                 arena=arenas(f.coalition))
                x = frozenset(s for s in m.states
                              if search.box(node0(s, f.bound))[0])
            else:
                x = frozenset(s for s in m.states if c.holds(s, f.bound))
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
