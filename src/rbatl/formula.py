"""Formula AST, printer, and the subformula orders the checkers walk.

Formulas are interned: building a formula that exists already returns the
existing node, so equal formulas are one object.

Coalition modalities carry a per-resource bound; the all-INF bound plays the
role of the plain (unbounded) strategic modality.  `sub_ordered` lists the
closure the general checker labels: each subformula after its children, and
each bounded modality after its all-INF variant.  `sub_plus` adds the
split-generated bound variants of the consumption-only ladder, in an order
that also puts no bound after a strictly larger one of the same until or
always.  Both are one post-order walk, `_closure`.
"""

from __future__ import annotations

import weakref

from .errors import FormulaError
from .vectors import INF, Vec, all_inf, is_all_inf, is_bound_vec, split


class _Ref(weakref.ref):
    """A table entry: a weak reference to a node that knows its own key."""

    __slots__ = ("key",)


# The constructor table (hash-consing, Filliâtre & Conchon, "Type-safe
# modular hash-consing", ML Workshop 2006): structure -> weak reference to
# the one node with that structure.  A key holds the node's class and its
# fields, children as nodes, so a lookup hashes no subtree.
_table: dict[tuple, _Ref] = {}


def _drop(ref: _Ref, table=_table) -> None:
    # the node is gone; a new node may already hold its key.  `table` is
    # bound here, so this still runs while the interpreter shuts down.
    if table.get(ref.key) is ref:
        del table[ref.key]


def _node(cls, *fields):
    """The one node of class cls with these (normalised) fields."""
    key = (cls, *fields)
    ref = _table.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(node, name, value)
    ref = _table[key] = _Ref(node, _drop)
    ref.key = key
    return node


class Formula:
    """An interned formula node: each distinct formula is one object, so
    `==` and `hash` are identity and never walk a subtree.  Nodes are
    immutable and built only through their class."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError("formulas are immutable")

    def __delattr__(self, name):
        raise AttributeError("formulas are immutable")

    def __repr__(self):
        return format_formula(self)

    def __reduce__(self):
        # pickling and copy.copy rebuild through the class: the same node
        return type(self), tuple(getattr(self, n) for n in self.__slots__)

    def __deepcopy__(self, memo):
        return self


class TrueConst(Formula):
    __slots__ = ()

    def __new__(cls):
        return _node(cls)


class FalseConst(Formula):
    __slots__ = ()

    def __new__(cls):
        return _node(cls)


TRUE = TrueConst()
FALSE = FalseConst()


class Prop(Formula):
    __slots__ = ("name",)

    def __new__(cls, name):
        return _node(cls, name)


class Not(Formula):
    __slots__ = ("child",)

    def __new__(cls, child):
        return _node(cls, child)


class Or(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left, right):
        return _node(cls, left, right)


class And(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left, right):
        return _node(cls, left, right)


def _norm_coalition(names) -> tuple[str, ...]:
    return tuple(sorted(set(names)))


def _norm_bound(bound) -> Vec:
    b = tuple(bound)
    if not is_bound_vec(b):
        raise FormulaError(f"bound components must be naturals or inf: {b!r}")
    return b


class CoalitionNext(Formula):
    __slots__ = ("coalition", "bound", "child")

    def __new__(cls, coalition, bound, child):
        return _node(cls, _norm_coalition(coalition), _norm_bound(bound),
                     child)


class CoalitionAlways(Formula):
    __slots__ = ("coalition", "bound", "child")

    def __new__(cls, coalition, bound, child):
        return _node(cls, _norm_coalition(coalition), _norm_bound(bound),
                     child)


class CoalitionUntil(Formula):
    __slots__ = ("coalition", "bound", "hold", "goal")

    def __new__(cls, coalition, bound, hold, goal):
        return _node(cls, _norm_coalition(coalition), _norm_bound(bound),
                     hold, goal)


MODAL_TYPES = (CoalitionNext, CoalitionAlways, CoalitionUntil)


def is_modal(f: Formula) -> bool:
    return isinstance(f, MODAL_TYPES)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Not):
        return (f.child,)
    if isinstance(f, (Or, And)):
        return (f.left, f.right)
    if isinstance(f, (CoalitionNext, CoalitionAlways)):
        return (f.child,)
    if isinstance(f, CoalitionUntil):
        return (f.hold, f.goal)
    return ()


def with_bound(f: Formula, bound: Vec) -> Formula:
    if isinstance(f, CoalitionNext):
        return CoalitionNext(f.coalition, bound, f.child)
    if isinstance(f, CoalitionAlways):
        return CoalitionAlways(f.coalition, bound, f.child)
    if isinstance(f, CoalitionUntil):
        return CoalitionUntil(f.coalition, bound, f.hold, f.goal)
    raise FormulaError(f"not a coalition modality: {f!r}")


def _closure(root: Formula, ladder: bool) -> list[Formula]:
    """Every distinct subformula of root once, after its children, by an
    explicit-stack post-order walk.  A bounded modality comes after its
    all-INF variant and, with `ladder`, an until/always also after its
    split variants in `split` order."""
    seen: dict[Formula, None] = {}  # insertion-ordered
    stack = [(root, False)]
    while stack:
        f, ready = stack.pop()
        if f in seen:
            continue
        if not ready:
            stack.append((f, True))
            stack.extend((c, False) for c in reversed(children(f)))
            continue
        if is_modal(f) and not is_all_inf(f.bound):
            seen.setdefault(with_bound(f, all_inf(len(f.bound))))
            if ladder and not isinstance(f, CoalitionNext):
                for _, d in split(f.bound):
                    seen.setdefault(with_bound(f, d))
        seen[f] = None
    return list(seen)


def sub_ordered(root: Formula) -> list[Formula]:
    """Subformula closure plus the all-INF variant of each bounded
    modality, children first and each all-INF variant before every
    bounded version of it."""
    return _closure(root, False)


def sub_plus(root: Formula) -> list[Formula]:
    """`sub_ordered`'s closure plus the variants under every bound d' of a
    split (d, d') of each bounded until/always, in the same order; among
    the variants of one type, coalition, children and INF components no
    bound comes after a strictly larger one, so each variant is labelled
    before any that reads it."""
    return _closure(root, True)


_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3
_PREC_ATOM = 4


def _prec(f: Formula) -> int:
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, Not) or is_modal(f):
        return _PREC_UNARY
    return _PREC_ATOM


def _pieces(f: Formula) -> list:
    """f's text as strings and (child, least precedence) pairs."""
    if isinstance(f, TrueConst):
        return ["true"]
    if isinstance(f, FalseConst):
        return ["false"]
    if isinstance(f, Prop):
        return [f.name]
    if isinstance(f, Not):
        return ["!", (f.child, _PREC_UNARY)]
    if isinstance(f, Or):
        return [(f.left, _PREC_OR), " | ", (f.right, _PREC_OR + 1)]
    if isinstance(f, And):
        return [(f.left, _PREC_AND), " & ", (f.right, _PREC_AND + 1)]
    if not is_modal(f):
        raise FormulaError(f"unknown formula node: {type(f).__name__}")
    bound = ",".join("inf" if x is INF else str(x) for x in f.bound)
    prefix = "<{%s}: %s>" % (",".join(f.coalition), bound)
    if isinstance(f, CoalitionUntil):
        return [prefix + " (", (f.hold, 0), " U ", (f.goal, 0), ")"]
    op = " X " if isinstance(f, CoalitionNext) else " G "
    return [prefix + op, (f.child, _PREC_UNARY)]


def format_formula(f: Formula) -> str:
    """Concrete syntax for f; parse_formula(format_formula(f)) == f.
    An explicit stack of pieces, so any depth prints."""
    out = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, min_prec = item
        pieces = _pieces(g)
        if _prec(g) < min_prec:
            pieces = ["(", *pieces, ")"]
        stack.extend(reversed(pieces))
    return "".join(out)
