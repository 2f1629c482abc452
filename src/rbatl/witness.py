"""Strategy certificates: structure, JSON form, concretization, validation.

A raw until certificate from the search may contain availabilities pumped to
INF, meaning "this loop can be repeated to stock up the resource".  Before
such a certificate can be replayed it is concretized: every pumped resource
is replaced by explicit repetitions of its witnessing loop (the path segment
from the pumping ancestor back to the pumped node, together with the
strategy subtrees hanging off that segment), repeated

    h = ceil((demand - arrival) / gain)

times, where demand is the requirement of everything below the pumped node,
arrival its pre-pump availability and gain the per-iteration surplus of the
loop.  Leaves whose availability was entirely INF continue with a concrete
attractor strategy for the unbounded until.  Requirements are propagated
bottom-up, so loops that really consume a resource made unbounded higher up
simply raise the demand that the higher loop must cover.

Box certificates never pump; their loopback leaves are validated as-is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .atl import Semantics, move, moves, step_costs
from .errors import ModelError, VectorError, WitnessError
from .model import JointAction, Model
from .vectors import (
    INF,
    Vec,
    all_inf,
    bound_minus_cost,
    clamp0,
    vec_add,
    vec_geq,
    vec_leq,
    vec_max,
    zeros,
)

FORMAT_VERSION = 1

INTERNAL = "internal"
PSI_LEAF = "psi-leaf"
ALL_INF_LEAF = "all-infinity-leaf"
LOOPBACK_LEAF = "loopback-leaf"


@dataclass
class WitnessNode:
    state: str
    entry_avail: Vec
    avail: Vec
    kind: str = INTERNAL
    action: JointAction | None = None
    children: dict[str, "WitnessNode"] = field(default_factory=dict)
    pumped: dict[int, int] = field(default_factory=dict)
    loopback: int | None = None


@dataclass
class WitnessTree:
    kind: str  # "until" | "box"
    coalition: tuple[str, ...]
    bound: Vec
    mode: Semantics
    formula: str
    root: WitnessNode


def iter_nodes(root: WitnessNode):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


# -- serialization -------------------------------------------------------


def _scalar_to_json(x):
    return "inf" if x is INF else x


def _int_from_json(x, what):
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise WitnessError(f"bad {what} {x!r}")


def _scalar_from_json(x):
    return INF if x == "inf" else _int_from_json(x, "availability component")


def _vec_to_json(v):
    return [_scalar_to_json(x) for x in v]


def _vec_from_json(v):
    if not isinstance(v, list):
        raise WitnessError(f"expected a vector, got {v!r}")
    return tuple(_scalar_from_json(x) for x in v)


def _node_to_dict(node: WitnessNode) -> dict:
    data = {
        "state": node.state,
        "entry_avail": _vec_to_json(node.entry_avail),
        "avail": _vec_to_json(node.avail),
        "kind": node.kind,
        "action": None if node.action is None else {
            "agents": list(node.action.agents),
            "actions": list(node.action.actions),
        },
        "children": {s: _node_to_dict(c) for s, c in node.children.items()},
        "pumped": {str(res): depth for res, depth in node.pumped.items()},
    }
    if node.loopback is not None:
        data["loopback"] = node.loopback
    return data


def _node_from_dict(data) -> WitnessNode:
    if not isinstance(data, dict):
        raise WitnessError("witness node must be an object")
    for key in ("state", "entry_avail", "avail", "kind", "action", "children",
                "pumped"):
        if key not in data:
            raise WitnessError(f"witness node missing {key!r}")
    action = data["action"]
    if action is not None:
        if (not isinstance(action, dict)
                or not isinstance(action.get("agents"), list)
                or not isinstance(action.get("actions"), list)):
            raise WitnessError("witness action must carry agents and actions")
        action = JointAction(tuple(action["agents"]), tuple(action["actions"]))
    children = data["children"]
    if not isinstance(children, dict):
        raise WitnessError("witness children must be an object")
    pumped_in = data["pumped"]
    if not isinstance(pumped_in, dict):
        raise WitnessError("witness pumped must be an object")
    pumped = {}
    for res, depth in pumped_in.items():
        try:
            pumped[int(res)] = _int_from_json(depth, "pumping depth")
        except (TypeError, ValueError) as exc:
            raise WitnessError(f"bad pumping record {res!r}: {depth!r}") from exc
    loopback = data.get("loopback")
    if loopback is not None:
        loopback = _int_from_json(loopback, "loopback index")
    return WitnessNode(
        state=data["state"],
        entry_avail=_vec_from_json(data["entry_avail"]),
        avail=_vec_from_json(data["avail"]),
        kind=data["kind"],
        action=action,
        children={s: _node_from_dict(c) for s, c in children.items()},
        pumped=pumped,
        loopback=loopback,
    )


def witness_to_dict(tree: WitnessTree) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": tree.kind,
        "coalition": list(tree.coalition),
        "bound": _vec_to_json(tree.bound),
        "mode": tree.mode.value,
        "formula": tree.formula,
        "root": _node_to_dict(tree.root),
    }


def witness_from_dict(data) -> WitnessTree:
    if not isinstance(data, dict):
        raise WitnessError("witness file must be a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise WitnessError(f"unsupported witness format_version {version!r}")
    kind = data.get("kind")
    if kind not in ("until", "box"):
        raise WitnessError(f"unknown witness kind {kind!r}")
    return WitnessTree(
        kind=kind,
        coalition=tuple(data.get("coalition", ())),
        bound=_vec_from_json(data.get("bound", [])),
        mode=Semantics.from_name(data.get("mode", "")),
        formula=data.get("formula", ""),
        root=_node_from_dict(data.get("root")),
    )


def dump_witness(tree: WitnessTree) -> str:
    return json.dumps(witness_to_dict(tree), indent=2) + "\n"


def load_witness(path) -> WitnessTree:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise WitnessError(f"witness file is not valid JSON: {exc}") from exc
    return witness_from_dict(data)


# -- validation ----------------------------------------------------------


def validate_witness(m: Model, tree: WitnessTree, *, phi_states,
                     psi_states=None) -> bool:
    """Replay a certificate against the model: availability bookkeeping,
    affordability per mode, exact outcome coverage and leaf conditions.

    Until trees must be concretized (no pumping records, no all-INF leaves);
    box trees are checked directly against their loopback structure.
    """
    if tree.kind == "until" and psi_states is None:
        raise WitnessError("until validation needs psi_states")
    try:
        agents = m.normalize_coalition(tree.coalition)
    except ModelError:
        return False
    if len(tree.bound) != m.r:
        return False
    mode = tree.mode
    phi = frozenset(phi_states)
    psi = frozenset(psi_states) if psi_states is not None else frozenset()

    def walk(node: WitnessNode, path: tuple) -> bool:
        if node.pumped or node.kind == ALL_INF_LEAF:
            return False
        if tuple(node.entry_avail) != tuple(node.avail):
            return False
        if node.state not in m._state_index:
            return False
        if tree.kind == "box" and node.state not in phi:
            return False
        if node.kind == PSI_LEAF:
            return (tree.kind == "until" and node.action is None
                    and not node.children and node.state in psi)
        if node.kind == LOOPBACK_LEAF:
            if tree.kind != "box" or node.action is not None or node.children:
                return False
            lb = node.loopback
            if not isinstance(lb, int) or not 0 <= lb < len(path):
                return False
            anc = path[lb]
            return anc.state == node.state and vec_leq(anc.avail, node.avail)
        if node.kind != INTERNAL or node.action is None:
            return False
        if tree.kind == "until" and node.state not in phi:
            return False
        ja = node.action
        if tuple(ja.agents) != agents:
            return False
        try:
            mv = move(m, node.state, ja, node.avail, mode)
        except (ModelError, VectorError):
            return False
        if mv is None:
            return False
        _, cost, _, outs = mv
        if set(outs) != set(node.children):
            return False
        child_avail = bound_minus_cost(node.avail, cost)
        if child_avail is None:
            return False
        for state, child in node.children.items():
            if child.state != state:
                return False
            if tuple(child.entry_avail) != child_avail:
                return False
            if not walk(child, path + (node,)):
                return False
        return True

    if tuple(tree.root.entry_avail) != tuple(tree.bound):
        return False
    return walk(tree.root, ())


# -- attractor strategies for the unbounded until -------------------------


def _attractor(m: Model, agents, phi, psi, mode):
    """Per-state action choice plus minimal budget for forcing psi via phi.

    choice[s] is None for psi states; need[s] is the componentwise worst
    prefix expenditure of the induced strategy tree from s.
    """
    choice: dict[str, JointAction | None] = {s: None for s in psi}
    need: dict[str, Vec] = {s: zeros(m.r) for s in psi}
    unbounded = all_inf(m.r)
    changed = True
    while changed:
        changed = False
        for s in m.states:
            if s in choice or s not in phi:
                continue
            for ja, cost, step, outs in moves(m, s, agents, unbounded, mode):
                if not all(o in choice for o in outs):
                    continue
                worst = zeros(m.r)
                for o in outs:
                    worst = vec_max(worst, need[o])
                need[s] = clamp0(vec_max(step, vec_add(cost, worst)))
                choice[s] = ja
                changed = True
                break
    return choice, need


# -- concretization -------------------------------------------------------


class _Cycle(Exception):
    pass


@dataclass
class _LoopPlan:
    res: int
    h: int
    # steps: (state, action, cost, offpath witness children, next state)
    steps: list
    entry_req: Vec


class _Concretizer:
    def __init__(self, m: Model, tree: WitnessTree, phi, psi, targets):
        self.m = m
        self.tree = tree
        self.agents = m.normalize_coalition(tree.coalition)
        self.mode = tree.mode
        self.phi = frozenset(phi)
        self.psi = frozenset(psi)
        self.targets = targets
        self.parents: dict[int, list[WitnessNode]] = {}
        self.reqs: dict[int, Vec] = {}
        self.plans: dict[int, list[_LoopPlan]] = {}
        self._stack: set[int] = set()
        self._attr = None

    # parent chains ------------------------------------------------------

    def index_paths(self):
        def walk(node, chain):
            self.parents[id(node)] = chain
            for child in node.children.values():
                walk(child, chain + [node])
        walk(self.tree.root, [])

    def attractor(self):
        if self._attr is None:
            self._attr = _attractor(self.m, self.agents, self.phi, self.psi,
                                    self.mode)
        return self._attr

    # requirement pass ----------------------------------------------------

    def req(self, node: WitnessNode) -> Vec:
        key = id(node)
        if key in self.reqs:
            return self.reqs[key]
        if key in self._stack:
            raise _Cycle
        self._stack.add(key)
        try:
            base = self._req_core(node)
            plans = []
            cur = base
            for res in sorted(node.pumped, reverse=True):
                plan = self._loop_plan(node, res, cur)
                plans.append(plan)
                cur = plan.entry_req
            self.plans[key] = list(reversed(plans))
            self.reqs[key] = cur
            return cur
        finally:
            self._stack.discard(key)

    def _req_core(self, node: WitnessNode) -> Vec:
        if node.kind == PSI_LEAF:
            return tuple(
                self.targets[i] if node.avail[i] is INF else 0
                for i in range(self.m.r)
            )
        if node.kind == ALL_INF_LEAF:
            choice, need = self.attractor()
            if node.state not in choice:
                raise WitnessError(
                    f"state {node.state!r} has no unbounded until strategy"
                )
            return vec_max(need[node.state], self.targets)
        if node.kind != INTERNAL or node.action is None:
            raise WitnessError(f"malformed witness node kind {node.kind!r}")
        cost, step = step_costs(self.m, node.state, node.action, self.mode)
        below = zeros(self.m.r)
        for child in node.children.values():
            below = vec_max(below, self.req(child))
        return clamp0(vec_max(step, vec_add(cost, below)))

    def _loop_plan(self, node: WitnessNode, res: int, demand: Vec) -> _LoopPlan:
        if not 0 <= res < self.m.r:
            raise WitnessError(f"pumping record for resource {res}, but the "
                               f"model has {self.m.r} resources")
        chain = self.parents[id(node)]
        anc_idx = node.pumped[res]
        if not 0 <= anc_idx < len(chain):
            raise WitnessError("pumping record points outside the path")
        seg = chain[anc_idx:] + [node]
        top = seg[0]
        a0 = node.entry_avail[res]
        top_avail = top.avail[res]
        if a0 is INF or top_avail is INF:
            raise WitnessError("pumped resource is not finite along its loop")
        gain = a0 - top_avail
        if gain <= 0:
            raise WitnessError("pumping ancestor does not yield a gain")
        r = self.m.r
        steps = []
        prefix = zeros(r)
        need = list(zeros(r))  # running max of per-position requirements
        for k, pos in enumerate(seg[:-1]):
            nxt = seg[k + 1]
            if pos.action is None or pos.children.get(nxt.state) is not nxt:
                raise WitnessError("pumping loop does not follow the tree path")
            cost, here = step_costs(self.m, pos.state, pos.action, self.mode)
            offs = [c for s, c in pos.children.items() if c is not nxt]
            for off in offs:
                here = vec_max(here, vec_add(cost, self.req(off)))
            for j in range(r):
                cand = prefix[j] + here[j]
                if cand > need[j]:
                    need[j] = cand
            steps.append((pos.state, pos.action, cost, offs, nxt.state))
            prefix = vec_add(prefix, cost)
        delta = tuple(-c for c in prefix)
        want = demand[res]
        h = 0
        if want > a0:
            h = -((a0 - want) // gain)  # ceil((want - a0) / gain)
        if need[res] > a0:
            raise WitnessError("pumping loop is not replayable from its entry")
        entry = []
        for j in range(r):
            if j == res:
                entry.append(a0)
                continue
            cands = [0, demand[j] - h * delta[j]]
            if h > 0:
                cands.append(need[j])
                cands.append(need[j] - (h - 1) * delta[j])
            entry.append(max(cands))
        return _LoopPlan(res, h, steps, tuple(entry))

    # build pass -----------------------------------------------------------

    def build(self, node: WitnessNode, avail: Vec) -> WitnessNode:
        req = self.reqs[id(node)]
        for i in range(self.m.r):
            if avail[i] is not INF and req[i] > avail[i]:
                raise WitnessError(
                    "internal error: concretization requirement not met"
                )
        head = None
        link = None  # (parent node, child key)
        cur = avail
        for plan in self.plans.get(id(node), ()):
            for _ in range(plan.h):
                for state, action, cost, offs, nxt_state in plan.steps:
                    wn = WitnessNode(state, cur, cur, INTERNAL, action)
                    after = bound_minus_cost(cur, cost)
                    if after is None:
                        raise WitnessError(
                            "internal error: loop replay ran out of budget"
                        )
                    for off in offs:
                        wn.children[off.state] = self.build(off, after)
                    if link is None:
                        head = wn
                    else:
                        link[0].children[link[1]] = wn
                    link = (wn, nxt_state)
                    cur = after
        core = self._build_core(node, cur)
        if link is None:
            return core
        link[0].children[link[1]] = core
        return head

    def _build_core(self, node: WitnessNode, avail: Vec) -> WitnessNode:
        if node.kind == PSI_LEAF:
            return WitnessNode(node.state, avail, avail, PSI_LEAF)
        if node.kind == ALL_INF_LEAF:
            return self._build_attractor(node.state, avail)
        wn = WitnessNode(node.state, avail, avail, INTERNAL, node.action)
        cost = self.m.cost_joint(node.state, node.action)
        after = bound_minus_cost(avail, cost)
        if after is None:
            raise WitnessError("internal error: descent ran out of budget")
        for state, child in node.children.items():
            wn.children[state] = self.build(child, after)
        return wn

    def _build_attractor(self, state: str, avail: Vec) -> WitnessNode:
        if state in self.psi:
            return WitnessNode(state, avail, avail, PSI_LEAF)
        choice, need = self.attractor()
        ja = choice.get(state)
        if ja is None:
            raise WitnessError(
                f"state {state!r} has no unbounded until strategy"
            )
        wn = WitnessNode(state, avail, avail, INTERNAL, ja)
        cost = self.m.cost_joint(state, ja)
        after = bound_minus_cost(avail, cost)
        if after is None:
            raise WitnessError("internal error: attractor ran out of budget")
        for o in self.m.outcomes(state, ja):
            wn.children[o] = self._build_attractor(o, after)
        return wn


def _research_until(m: Model, agents, start: str, bound, phi, psi, mode,
                    targets):
    """Concrete and-or replay search, used when requirement propagation hits
    a cross-branch loop nest.  Iteratively deepens; a finite witness exists
    whenever the pumped certificate was sound, so this terminates."""
    target = tuple(targets)

    def rec(state, avail, fuel, memo):
        key = (state, avail, fuel)
        if key in memo:
            return memo[key]
        memo[key] = None
        if state in psi and vec_geq(avail, target):
            node = WitnessNode(state, avail, avail, PSI_LEAF)
            memo[key] = node
            return node
        if state not in phi or fuel == 0:
            return None
        for ja, cost, _, outs in moves(m, state, agents, avail, mode):
            after = bound_minus_cost(avail, cost)
            kids = {}
            for o in outs:
                sub = rec(o, after, fuel - 1, memo)
                if sub is None:
                    kids = None
                    break
                kids[o] = sub
            if kids is not None:
                node = WitnessNode(state, avail, avail, INTERNAL, ja, kids)
                memo[key] = node
                return node
        return None

    fuel = 2 * max(1, len(m.states))
    for _ in range(8):
        result = rec(start, tuple(bound), fuel, {})
        if result is not None:
            return result
        fuel *= 2
    raise WitnessError("concrete replay search exceeded its depth budget")


def concretize_until_witness(m: Model, tree: WitnessTree, *, phi_states,
                             psi_states, targets=None) -> WitnessTree:
    """Expand a pumped until certificate into a finite replayable one.

    targets optionally names a per-resource goal for components that were
    unbounded at a leaf (finite leaf components are their own targets); the
    default asks for nothing beyond replayability.  A certificate with no
    pumping and no all-INF leaves is returned unchanged.
    """
    if tree.kind != "until":
        raise WitnessError("only until certificates are concretized")
    if targets is None:
        targets = zeros(m.r)
    else:
        targets = tuple(targets)
        if len(targets) != m.r:
            raise VectorError(
                f"target vector length {len(targets)} != resource count {m.r}"
            )
    needs_work = any(
        node.pumped or node.kind == ALL_INF_LEAF
        for node in iter_nodes(tree.root)
    )
    if not needs_work:
        return tree
    conc = _Concretizer(m, tree, phi_states, psi_states, targets)
    conc.index_paths()
    try:
        conc.req(tree.root)
        root = conc.build(tree.root, tuple(tree.bound))
    except _Cycle:
        root = _research_until(
            m, conc.agents, tree.root.state, tree.bound,
            frozenset(phi_states), frozenset(psi_states), tree.mode, targets,
        )
    return WitnessTree(
        kind="until",
        coalition=tree.coalition,
        bound=tuple(tree.bound),
        mode=tree.mode,
        formula=tree.formula,
        root=root,
    )
