"""The split ladder's bounded until and always, kept as the reference for
the minimal-credit engine of `rbatl.checker` on consumption-only models.

Without production, a strategy under bound b either spends nothing on the
finite components for good, or takes such free steps until it spends some
non-zero d and continues under d' = b - d, whose label sits earlier in the
ladder.  With free the zero bound lifted to INF where b is INF, and

  S = union over (d, d') in split(b) of hold & pre(L[d'], d)

the states that can spend now, the labels are

  until:   muX. goal | S | (hold & pre_free(X))
  always:  nuX. hold & (S | pre_free(X))

Predecessors come from `rbatl.atl.moves` by rounds, as in the paper; no
arena and no credits.
"""

from rbatl.atl import moves
from rbatl.formula import CoalitionAlways, CoalitionUntil, sub_plus, with_bound
from rbatl.vectors import INF, is_all_inf, split


def _variants(f0, kind):
    """The bounded modalities of sub_plus(f0) of one kind, lower bounds
    first."""
    return [f for f in sub_plus(f0)
            if isinstance(f, kind) and not is_all_inf(f.bound)]


def _pre(m, f, rho, bound, mode):
    agents = m.normalize_coalition(f.coalition)
    return frozenset(
        s for s in m.states
        if any(all(o in rho for o in outs)
               for _, _, _, outs in moves(m, s, agents, bound, mode)))


def _spend_now(m, f, hold, mine, mode):
    """S: the hold states that spend some d now and continue under
    b - d, with labels of the lower variants from `mine`."""
    x = frozenset()
    for d, dprime in split(f.bound):
        x |= hold & _pre(m, f, mine[with_bound(f, dprime)], d, mode)
    return x


def _free(bound):
    return tuple(INF if x is INF else 0 for x in bound)


def ladder_until(m, f0, labels, mode):
    """The label of every bounded until in sub_plus(f0), each from the
    labels of its variants lower on the ladder; `labels` gives the labels
    of their hold and goal formulas."""
    mine = {}
    for f in _variants(f0, CoalitionUntil):
        hold = labels[f.hold]
        x = labels[f.goal] | _spend_now(m, f, hold, mine, mode)
        while True:
            nxt = x | (hold & _pre(m, f, x, _free(f.bound), mode))
            if nxt == x:
                break
            x = nxt
        mine[f] = x
    return mine


def ladder_always(m, f0, labels, mode):
    """The label of every bounded always in sub_plus(f0), as
    `ladder_until` gives those of the untils."""
    mine = {}
    for f in _variants(f0, CoalitionAlways):
        hold = labels[f.child]
        now = _spend_now(m, f, hold, mine, mode)
        x = hold
        while True:
            nxt = hold & (now | _pre(m, f, x, _free(f.bound), mode))
            if nxt == x:
                break
            x = nxt
        mine[f] = x
    return mine
