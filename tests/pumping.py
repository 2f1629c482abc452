"""The paper's and-or search for a bounded until, with loop pumping, kept
as the reference for the minimal-credit engine of `rbatl.checker`.

Nodes carry the remaining availability.  Revisiting a state without a
gain over an ancestor there fails; revisiting with a strict gain on some
resource pumps that resource to INF, since the loop can be repeated to
stock it up.  No cache and no recording: it only answers.
"""

from rbatl.atl import moves
from rbatl.vectors import INF, bound_minus_cost, vec_geq, vec_leq


def pumping_until(m, agents, guard, goal, mode, state, avail):
    """Whether `agents` force `goal` from (state, avail) through the states
    of `guard`, the label of the same until under the all-INF bound."""

    def until(s, avail, path):
        if s not in guard:
            return False
        same = [anc for t, anc in path if t == s]
        if any(vec_geq(anc, avail) for anc in same):
            return False
        pumped = {
            res for res in range(m.r)
            if avail[res] is not INF and any(
                vec_leq(anc, avail) and anc[res] < avail[res] for anc in same)
        }
        avail = tuple(INF if res in pumped else x
                      for res, x in enumerate(avail))
        if s in goal or all(x is INF for x in avail):
            return True
        path = path + ((s, avail),)
        for _, cost, _, outs in moves(m, s, agents, avail, mode):
            after = bound_minus_cost(avail, cost)
            if all(until(o, after, path) for o in outs):
                return True
        return False

    return until(state, tuple(avail), ())
