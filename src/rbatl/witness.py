"""Strategy certificates: structure, JSON form and validation.

An until certificate is a finite strategy tree: each internal node names
the coalition's joint action and has one child per outcome, down to goal
leaves.  Each node carries one availability, what is left on reaching
it: the bound at the root, and below it the parent's availability less
the cost of the parent's move.

Format v1 writes that availability twice, as `entry_avail` and `avail`,
beside an empty `pumped` object.  Older versions also wrote pumping
records and all-infinity leaves, which are not replayed: the loader
refuses them, and any entry availability other than the availability.
The layout is written down once, in `_header` and `_node_fields`.
`witness_to_dict` builds the whole object from them; `dump_witness`
writes the same object as compact JSON, one node at a time through the
stdlib encoder, so a tree of any depth can be written.

Box certificates end in loopback leaves, validated against their ancestor
on the path.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .atl import Semantics, move
from .errors import ModelError, VectorError, WitnessError
from .model import JointAction, Model
from .vectors import INF, Vec, bound_minus_cost, vec_leq

FORMAT_VERSION = 1

INTERNAL = "internal"
PSI_LEAF = "psi-leaf"
LOOPBACK_LEAF = "loopback-leaf"
_KINDS = (INTERNAL, PSI_LEAF, LOOPBACK_LEAF)


@dataclass
class WitnessNode:
    state: str
    avail: Vec
    kind: str = INTERNAL
    action: JointAction | None = None
    children: dict[str, "WitnessNode"] = field(default_factory=dict)
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


def _names(x, what):
    if not isinstance(x, list) or not all(isinstance(n, str) for n in x):
        raise WitnessError(f"witness {what} must be a list of names")
    return tuple(x)


def _vec_to_json(v):
    return [_scalar_to_json(x) for x in v]


def _vec_from_json(v):
    if not isinstance(v, list):
        raise WitnessError(f"expected a vector, got {v!r}")
    return tuple(_scalar_from_json(x) for x in v)


def _node_fields(node: WitnessNode) -> dict:
    """A node's object with its children still to be filled in."""
    avail = _vec_to_json(node.avail)
    data = {
        "state": node.state,
        "entry_avail": avail[:],
        "avail": avail,
        "kind": node.kind,
        "action": None if node.action is None else {
            "agents": list(node.action.agents),
            "actions": list(node.action.actions),
        },
        "children": {},
        "pumped": {},
    }
    if node.loopback is not None:
        data["loopback"] = node.loopback
    return data


def _node_to_dict(root: WitnessNode) -> dict:
    out = _node_fields(root)
    stack = [(root, out)]
    while stack:
        node, data = stack.pop()
        children = data["children"]
        for state, child in node.children.items():
            children[state] = child_data = _node_fields(child)
            stack.append((child, child_data))
    return out


def _node_fields_from_dict(data) -> WitnessNode:
    """A node read from its object, with its children still to be read."""
    if not isinstance(data, dict):
        raise WitnessError("witness node must be an object")
    for key in ("state", "entry_avail", "avail", "kind", "action", "children",
                "pumped"):
        if key not in data:
            raise WitnessError(f"witness node missing {key!r}")
    state = data["state"]
    if not isinstance(state, str):
        raise WitnessError(f"bad witness state {state!r}")
    avail = _vec_from_json(data["avail"])
    if _vec_from_json(data["entry_avail"]) != avail:
        raise WitnessError(f"witness node at {state!r} has an entry "
                           "availability other than its availability")
    if data["pumped"] != {}:
        raise WitnessError(f"witness node at {state!r} has pumping records "
                           f"{data['pumped']!r}, which are not replayed")
    if data["kind"] not in _KINDS:
        raise WitnessError(f"witness node at {state!r} has unknown kind "
                           f"{data['kind']!r}")
    action = data["action"]
    if action is not None:
        if not isinstance(action, dict):
            raise WitnessError("witness action must carry agents and actions")
        agents = _names(action.get("agents"), "action agents")
        actions = _names(action.get("actions"), "action actions")
        if len(agents) != len(actions):
            raise WitnessError(f"witness action at {state!r} names "
                               f"{len(agents)} agents and {len(actions)} "
                               "actions")
        action = JointAction(agents, actions)
    if not isinstance(data["children"], dict):
        raise WitnessError("witness children must be an object")
    loopback = data.get("loopback")
    if loopback is not None:
        loopback = _int_from_json(loopback, "loopback index")
    return WitnessNode(state, avail, data["kind"], action, loopback=loopback)


def _node_from_dict(data) -> WitnessNode:
    # nodes are read in preorder, so each children dict fills in file order
    # and the first bad node in the file is the one reported
    top: dict = {}
    stack = [(data, top, None)]
    while stack:
        node_data, into, key = stack.pop()
        into[key] = node = _node_fields_from_dict(node_data)
        stack.extend((child, node.children, state) for state, child
                     in reversed(node_data["children"].items()))
    return top[None]


def _header(tree: WitnessTree) -> dict:
    """The certificate's object without its root."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": tree.kind,
        "coalition": list(tree.coalition),
        "bound": _vec_to_json(tree.bound),
        "mode": tree.mode.value,
        "formula": tree.formula,
    }


def witness_to_dict(tree: WitnessTree) -> dict:
    data = _header(tree)
    data["root"] = _node_to_dict(tree.root)
    return data


def witness_from_dict(data) -> WitnessTree:
    if not isinstance(data, dict):
        raise WitnessError("witness file must be a JSON object")
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise WitnessError(f"unsupported witness format_version {version!r}")
    kind = data.get("kind")
    if kind not in ("until", "box"):
        raise WitnessError(f"unknown witness kind {kind!r}")
    mode = data.get("mode")
    if mode not in [member.value for member in Semantics]:
        raise WitnessError(f"unknown witness mode {mode!r}")
    for key in ("coalition", "bound"):
        if key not in data:
            raise WitnessError(f"witness missing {key!r}")
    formula = data.get("formula", "")
    if not isinstance(formula, str):
        raise WitnessError("witness formula must be a string, got "
                           f"{formula!r}")
    return WitnessTree(
        kind=kind,
        coalition=_names(data["coalition"], "coalition"),
        bound=_vec_from_json(data["bound"]),
        mode=Semantics(mode),
        formula=formula,
        root=_node_from_dict(data.get("root")),
    )


_encode = json.JSONEncoder(separators=(",", ":")).encode
_CHILDREN = '"children":{'


def dump_witness(tree: WitnessTree) -> str:
    """`json.dumps(witness_to_dict(tree), separators=(",", ":"))` and a
    newline, written node by node with an explicit stack, so any depth can
    be written.

    Each node's own fields are encoded with the children left empty, and
    the children's text goes in after the node's `"children":{`.  The
    encoder escapes every quote inside a string, so that text can only be
    the node's own key.
    """
    out = [_encode(_header(tree))[:-1], ',"root":']
    stack = [tree.root]  # nodes to write, and the text between and after them
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        text = _encode(_node_fields(item))
        if not item.children:
            out.append(text)
            continue
        cut = text.index(_CHILDREN) + len(_CHILDREN)
        out.append(text[:cut])
        stack.append(text[cut:])
        for state, child in reversed(item.children.items()):
            stack += (child, _encode(state) + ":", ",")
        stack.pop()  # no comma before the first child
    out.append("}\n")
    return "".join(out)


def load_witness(path) -> WitnessTree:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise WitnessError(f"witness file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        limit = sys.getrecursionlimit()
        raise WitnessError(
            f"witness file nests deeper than the JSON reader's limit of about "
            f"{limit} levels (the interpreter's recursion limit); format v1 "
            f"nests two levels per tree level, so certificates more than "
            f"about {limit // 2} nodes deep cannot be read back"
        ) from exc
    return witness_from_dict(data)


# -- validation ----------------------------------------------------------


def validate_witness(m: Model, tree: WitnessTree, *, phi_states,
                     psi_states=None) -> bool:
    """Replay a certificate against the model: availability bookkeeping,
    affordability per mode, exact outcome coverage and leaf conditions.

    Box trees are checked against their loopback structure.  The walk
    keeps its own stack, so a tree of any depth can be checked.
    """
    if tree.kind == "until" and psi_states is None:
        raise WitnessError("until validation needs psi_states")
    try:
        agents = m.normalize_coalition(tree.coalition)
    except ModelError:
        return False
    if len(tree.bound) != m.r:
        return False
    if tuple(tree.root.avail) != tuple(tree.bound):
        return False
    mode = tree.mode
    phi = frozenset(phi_states)
    psi = frozenset(psi_states) if psi_states is not None else frozenset()
    path = []  # the ancestors of the node being checked
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        del path[depth:]
        if node.state not in m._state_index:
            return False
        if tree.kind == "box" and node.state not in phi:
            return False
        if node.kind == PSI_LEAF:
            if (tree.kind != "until" or node.action is not None
                    or node.children or node.state not in psi):
                return False
            continue
        if node.kind == LOOPBACK_LEAF:
            if tree.kind != "box" or node.action is not None or node.children:
                return False
            lb = node.loopback
            if not isinstance(lb, int) or not 0 <= lb < len(path):
                return False
            anc = path[lb]
            if anc.state != node.state or not vec_leq(anc.avail, node.avail):
                return False
            continue
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
        path.append(node)
        for state, child in node.children.items():
            if child.state != state:
                return False
            if tuple(child.avail) != child_avail:
                return False
            stack.append((child, depth + 1))
    return True


def concretize_until_witness(m: Model, tree: WitnessTree, *, phi_states,
                             psi_states) -> WitnessTree:
    """Return an until certificate unchanged: every certificate is
    concrete, since the loader refuses pumping records."""
    if tree.kind != "until":
        raise WitnessError("only until certificates are concretized")
    return tree
