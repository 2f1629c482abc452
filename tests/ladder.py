"""The split ladder's bounded until, kept as the reference for the
minimal-credit engine of `rbatl.checker` on consumption-only models.

Without production, a strategy under bound b either spends nothing on the
finite components for good, or takes such free steps until it spends some
non-zero d and continues under d' = b - d, whose label sits earlier in the
ladder.  With free = proj_inf(b) and

  S = union over (d, d') in split(b) of hold & pre(L[d'], d)

the states that can spend now, the label is

  muX. goal | S | (hold & pre_free(X))

Predecessors come from `rbatl.atl.moves` by rounds, as in the paper; no
arena and no credits.
"""

from rbatl.atl import moves
from rbatl.formula import CoalitionUntil, sub_plus, with_bound
from rbatl.vectors import is_all_inf, proj_inf, split


def ladder_until(m, f0, labels, mode):
    """The label of every bounded until in sub_plus(f0), each from the
    labels of its variants lower on the ladder; `labels` gives the labels
    of their hold and goal formulas."""
    mine = {}
    for f in sub_plus(f0):
        if not isinstance(f, CoalitionUntil) or is_all_inf(f.bound):
            continue
        agents = m.normalize_coalition(f.coalition)

        def pre(rho, bound):
            return frozenset(
                s for s in m.states
                if any(all(o in rho for o in outs)
                       for _, _, _, outs in moves(m, s, agents, bound, mode)))

        hold = labels[f.hold]
        x = labels[f.goal]
        for d, dprime in split(f.bound):
            x = x | (hold & pre(mine[with_bound(f, dprime)], d))
        free = proj_inf(f.bound)
        while True:
            nxt = x | (hold & pre(x, free))
            if nxt == x:
                break
            x = nxt
        mine[f] = x
    return mine
