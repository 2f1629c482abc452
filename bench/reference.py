"""Reference answers that share no code with the checker.

* `Game` reads a model dict (model file format 1) and solves bounded
  modalities over (state, availability) pairs.  Availability is capped a
  little above the query's bound, so the pair space is finite.  Without
  production availability never grows and the answer is exact.  With
  production the capped game only ever has less than the real one, so its
  answer is a lower bound (at least the answer with production set to
  zero); the unbounded (all-inf) answer is an upper bound.
* `check_labels` checks a checker's label map for one formula subformula by
  subformula, given the checker's own labels for the arguments: exact where
  the reference is exact, bracketed otherwise.
* `coverable` decides Petri-net coverability by the backward algorithm over
  upward-closed sets.
* `replay_certificate` replays a certificate's JSON against the model's
  JSON.

All searches are worklist attractors with explicit stacks, so nothing here
recurses on input-sized depth.
"""

from __future__ import annotations

import itertools

import corpus


# how far above the bound production may raise the capped availability
CAP_SLACK = 2


class Game:
    """A total model dict with per-coalition move tables."""

    def __init__(self, data: dict):
        self.states = list(data["states"])
        self.agents = list(data["agents"])
        self.r = len(data["resources"])
        self.labels = {p: frozenset(ss) for p, ss in data["labels"].items()}
        self.actions = data["actions"]
        self.trans: dict[str, dict[tuple, str]] = {s: {} for s in self.states}
        for rec in data["transitions"]:
            self.trans[rec["state"]][tuple(rec["action"])] = rec["next"]
        self.consumption_only = all(
            c >= 0
            for per_agent in self.actions.values()
            for menu in per_agent.values()
            for cost in menu.values()
            for c in cost
        )
        self._moves: dict = {}

    def moves(self, coalition, s):
        """[(member actions, summed cost, outcome states)] for the coalition
        at s; outcomes range over every completion by the other agents."""
        key = (tuple(coalition), s)
        if key not in self._moves:
            members = [i for i, a in enumerate(self.agents) if a in coalition]
            menus = [list(self.actions[s][self.agents[i]]) for i in members]
            outs: dict[tuple, set] = {}
            for combo, nxt in self.trans[s].items():
                outs.setdefault(tuple(combo[i] for i in members), set()).add(nxt)
            table = []
            for choice in itertools.product(*menus):
                cost = [0] * self.r
                for i, act in zip(members, choice):
                    for j, c in enumerate(self.actions[s][self.agents[i]][act]):
                        cost[j] += c
                table.append((choice, tuple(cost), frozenset(outs.get(choice, ()))))
            self._moves[key] = table
        return self._moves[key]

    # -- solving ----------------------------------------------------------

    def next(self, coalition, bound, target) -> frozenset:
        """One step: some affordable move keeps every outcome in target."""
        return frozenset(
            s for s in self.states
            if any(_affordable(cost, bound) and outs <= target
                   for _, cost, outs in self.moves(coalition, s))
        )

    def solve(self, kind, coalition, cap, hold, goal=frozenset()) -> set:
        """Winning (state, availability) pairs of the game whose
        availability is capped at `cap`; kind is "U" or "G"."""
        ranges = [(None,) if x is None else range(x + 1) for x in cap]
        avails = list(itertools.product(*ranges))
        pairs = [(s, e) for s in self.states for e in avails]
        index = {p: i for i, p in enumerate(pairs)}
        rev = [[] for _ in pairs]
        counts = []  # until: successors not yet won; always: move still live
        alive = [0] * len(pairs)
        marked = bytearray(len(pairs))
        queue = []
        for pid, (s, e) in enumerate(pairs):
            if kind == "U" and s in goal:
                marked[pid] = 1
                queue.append(pid)
                continue
            if s not in hold:
                if kind == "G":
                    marked[pid] = 1
                    queue.append(pid)
                continue
            for _, cost, outs in self.moves(coalition, s):
                after = _pay(cost, e, cap)
                if after is None:
                    continue
                succ = {index[(o, after)] for o in outs}
                if not succ:  # no outcome at all: vacuously kept
                    if kind == "U":
                        marked[pid] = 1
                        queue.append(pid)
                        break
                    alive[pid] += 1
                    continue
                slot = len(counts)
                counts.append(len(succ) if kind == "U" else 1)
                alive[pid] += 1
                for q in succ:
                    rev[q].append((pid, slot))
            if kind == "G" and alive[pid] == 0 and not marked[pid]:
                marked[pid] = 1
                queue.append(pid)
        # until marks won pairs; always marks lost pairs (the opponents'
        # attractor to leaving hold or running out of affordable moves)
        while queue:
            q = queue.pop()
            for pid, slot in rev[q]:
                if marked[pid] or counts[slot] == 0:
                    continue
                counts[slot] -= 1
                if kind == "U":
                    if counts[slot] == 0:
                        marked[pid] = 1
                        queue.append(pid)
                else:
                    alive[pid] -= 1
                    if alive[pid] == 0:
                        marked[pid] = 1
                        queue.append(pid)
        won = kind == "U"
        return {pairs[i] for i in range(len(pairs)) if bool(marked[i]) == won}

    def label(self, f, args: dict):
        """(lower, upper) for formula f given labels of its arguments;
        lower == upper where the answer is exact."""
        kind = f[0]
        states = frozenset(self.states)
        if kind == "true":
            exact = states
        elif kind == "false":
            exact = frozenset()
        elif kind == "prop":
            exact = self.labels.get(f[1], frozenset())
        elif kind == "not":
            exact = states - args[f[1]]
        elif kind == "or":
            exact = args[f[1]] | args[f[2]]
        elif kind == "and":
            exact = args[f[1]] & args[f[2]]
        elif kind == "X":
            exact = self.next(f[1], f[2], args[f[3]])
        else:
            if kind == "U":
                hold, goal = args[f[3]], args[f[4]]
            else:
                hold, goal = args[f[3]], frozenset()
            if self.consumption_only or all(x is None for x in f[2]):
                won = self.solve(kind, f[1], f[2], hold, goal)
                lower = frozenset(s for s, e in won if e == f[2])
                return lower, lower
            cap = tuple(None if x is None else x + CAP_SLACK for x in f[2])
            won = self.solve(kind, f[1], cap, hold, goal)
            lower = frozenset(s for s, e in won if e == f[2])
            top = (None,) * self.r
            upper = frozenset(
                s for s, _ in self.solve(kind, f[1], top, hold, goal))
            return lower, upper
        return exact, exact

    def ladder_labels(self, f, args: dict) -> dict:
        """Exact labels of a bounded until/always and of all its lower-bound
        variants, from one solve (consumption-only models only)."""
        if not self.consumption_only:
            raise ValueError("ladder labels need a consumption-only model")
        kind = f[0]
        hold = args[f[3]]
        goal = args[f[4]] if kind == "U" else frozenset()
        won = self.solve(kind, f[1], f[2], hold, goal)
        out = {}
        for d in corpus.lower_bounds(f[2]) + [f[2]]:
            out[corpus.with_bound(f, d)] = frozenset(s for s, e in won if e == d)
        return out


def _affordable(cost, avail) -> bool:
    return all(a is None or c <= a for c, a in zip(cost, avail))


def _pay(cost, avail, cap):
    """Availability after paying cost, capped at cap; None if the cost
    exceeds what is available."""
    after = []
    for c, a, most in zip(cost, avail, cap):
        if a is None:
            after.append(None)
        elif c > a:
            return None
        else:
            after.append(min(a - c, most))
    return tuple(after)


def check_labels(game: Game, f0, got, *, ladder=False) -> list[str]:
    """Problems with a checker's labels for f0, empty when every label is
    right.  `got(g)` returns the checker's label of subformula g (or raises
    KeyError).  Each label is checked against the reference computed from
    the checker's labels of its arguments, so a wrong answer is reported
    at the first subformula where it appears."""
    required = corpus.closure(f0)
    problems = []
    labels = {}
    for g in corpus.ladder(f0) if ladder else required:
        try:
            labels[g] = frozenset(got(g))
        except KeyError:
            if g in required:
                problems.append(f"no label for {corpus.render(g)}")
    if problems:
        return problems
    done = set()
    for g in sorted(labels, key=_widest_first):
        if g in done:
            continue
        if ladder and g[0] in ("G", "U") and game.consumption_only:
            for h, want in game.ladder_labels(g, labels).items():
                if h in labels and h not in done:
                    done.add(h)
                    if labels[h] != want:
                        problems.append(_diff(h, labels[h], want, want))
            continue
        lower, upper = game.label(g, labels)
        done.add(g)
        if not (lower <= labels[g] <= upper):
            problems.append(_diff(g, labels[g], lower, upper))
    return problems


def _widest_first(g):
    """Arguments before the formulas that use them; among variants of one
    modality, the widest bound first, so one solve covers the rest."""
    if not corpus.is_modal(g):
        return (corpus.size(g), ())
    return (corpus.size(g), tuple(-1 if x is None else -x - 2 for x in g[2]))


def _diff(g, got, lower, upper) -> str:
    if lower == upper:
        want = f"expected {sorted(lower)}"
    else:
        want = f"expected between {sorted(lower)} and {sorted(upper)}"
    return f"label of {corpus.render(g)} is {sorted(got)}, {want}"


# -- Petri nets ---------------------------------------------------------------


def coverable(net: dict, target) -> bool:
    """Backward coverability: saturate the minimal basis of the markings
    from which target can be covered, then test the initial marking."""
    places = net["places"]
    pin = {t: [0] * len(places) for t in net["transitions"]}
    pout = {t: [0] * len(places) for t in net["transitions"]}
    for arc in net["arcs"]:
        if arc["from"] in places:
            pin[arc["to"]][places.index(arc["from"])] += arc["weight"]
        else:
            pout[arc["from"]][places.index(arc["to"])] += arc["weight"]
    basis = [tuple(target)]
    frontier = [tuple(target)]
    while frontier:
        m = frontier.pop()
        for t in net["transitions"]:
            before = tuple(pin[t][i] + max(0, m[i] - pout[t][i])
                           for i in range(len(places)))
            if any(_leq(b, before) for b in basis):
                continue
            basis = [b for b in basis if not _leq(before, b)]
            basis.append(before)
            frontier.append(before)
    marking = tuple(net["marking"])
    return any(_leq(b, marking) for b in basis)


def _leq(x, y) -> bool:
    return all(a <= b for a, b in zip(x, y))


# -- certificates -----------------------------------------------------------------


def _vec(v):
    return tuple(None if x == "inf" else x for x in v)


def replay_certificate(game: Game, cert: dict, *, state, formula,
                       hold, goal=frozenset()):
    """Replay certificate JSON for `formula` (an until or always tuple)
    from `state`.  Returns (problems, node count, depth); no problems means
    every cost is paid from what is available, no availability goes
    negative, every outcome of every chosen move is covered, every until
    leaf is a goal state and every always loop returns to a dominated
    ancestor."""
    kind, coalition, bound = formula[0], formula[1], formula[2]
    problems = []
    want_kind = "until" if kind == "U" else "box"
    if cert.get("kind") != want_kind:
        problems.append(f"certificate kind {cert.get('kind')!r}")
    if tuple(cert.get("coalition", ())) != tuple(coalition):
        problems.append(f"certificate coalition {cert.get('coalition')!r}")
    if _vec(cert.get("bound", ())) != tuple(bound):
        problems.append(f"certificate bound {cert.get('bound')!r}")
    root = cert.get("root")
    if not isinstance(root, dict) or root.get("state") != state:
        return problems + ["certificate does not start at the queried state"], 0, 0
    if _vec(root["entry_avail"]) != tuple(bound):
        problems.append("root availability differs from the bound")
    members = [a for a in game.agents if a in coalition]
    nodes, depth = 0, 0
    stack = [(root, 0, None)]  # node, depth, parent link (node, link)
    while stack and len(problems) < 5:
        node, d, up = stack.pop()
        nodes += 1
        depth = max(depth, d + 1)
        s = node["state"]
        where = f"node at depth {d} ({s})"
        avail = _vec(node["entry_avail"])
        if _vec(node["avail"]) != avail or node.get("pumped"):
            problems.append(f"{where}: pumped availability")
            continue
        if s not in game.trans:
            problems.append(f"{where}: unknown state")
            continue
        if any(x is not None and x < 0 for x in avail):
            problems.append(f"{where}: negative availability")
            continue
        if kind == "G" and s not in hold:
            problems.append(f"{where}: leaves the invariant")
            continue
        if node["kind"] == "psi-leaf":
            if kind != "U" or s not in goal or node["children"]:
                problems.append(f"{where}: leaf is not a goal state")
            continue
        if node["kind"] == "loopback-leaf":
            anc = _ancestor(up, d, node.get("loopback"))
            if (kind != "G" or anc is None or anc["state"] != s
                    or not _leq_inf(_vec(anc["avail"]), avail)):
                problems.append(f"{where}: loopback to no dominated ancestor")
            continue
        if node["kind"] != "internal" or node["action"] is None:
            problems.append(f"{where}: kind {node['kind']!r}")
            continue
        if kind == "U" and s not in hold:
            problems.append(f"{where}: leaves the hold states")
            continue
        action = node["action"]
        if list(action["agents"]) != members:
            problems.append(f"{where}: action agents {action['agents']!r}")
            continue
        move = next((mv for mv in game.moves(coalition, s)
                     if list(mv[0]) == list(action["actions"])), None)
        if move is None:
            problems.append(f"{where}: unavailable action {action['actions']!r}")
            continue
        _, cost, outs = move
        if not _affordable(cost, avail):
            problems.append(f"{where}: cost {cost} exceeds {avail}")
            continue
        after = tuple(None if a is None else a - c for c, a in zip(cost, avail))
        if set(node["children"]) != set(outs):
            problems.append(f"{where}: covers {sorted(node['children'])}, "
                            f"outcomes are {sorted(outs)}")
            continue
        for o, child in node["children"].items():
            if child.get("state") != o or _vec(child["entry_avail"]) != after:
                problems.append(f"{where}: child {o} availability")
                break
            stack.append((child, d + 1, (node, up)))
    return problems, nodes, depth


def _ancestor(up, depth, index):
    if not isinstance(index, int) or not 0 <= index < depth:
        return None
    steps = depth - 1 - index
    for _ in range(steps):
        up = up[1]
    return up[0]


def _leq_inf(x, y) -> bool:
    return all(b is None or (a is not None and a <= b) for a, b in zip(x, y))
