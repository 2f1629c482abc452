"""Formula AST, printer, and the subformula orders the checkers walk.

Coalition modalities carry a per-resource bound; the all-INF bound plays the
role of the plain (unbounded) strategic modality.  `sub_ordered` lists the
closure the general checker labels: each subformula after its children, and
each bounded modality after its all-INF variant.  `sub_plus` adds the
split-generated bound variants of the consumption-only ladder, in an order
that also puts no bound after a strictly larger one of the same until or
always.  Both are one post-order walk, `_closure`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormulaError
from .vectors import INF, Vec, all_inf, is_all_inf, is_bound_vec, split


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class TrueConst(Formula):
    def __repr__(self):
        return "true"


@dataclass(frozen=True)
class FalseConst(Formula):
    def __repr__(self):
        return "false"


TRUE = TrueConst()
FALSE = FalseConst()


@dataclass(frozen=True)
class Prop(Formula):
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


def _norm_coalition(names) -> tuple[str, ...]:
    return tuple(sorted(set(names)))


def _norm_bound(bound) -> Vec:
    b = tuple(bound)
    if not is_bound_vec(b):
        raise FormulaError(f"bound components must be naturals or inf: {b!r}")
    return b


@dataclass(frozen=True)
class CoalitionNext(Formula):
    coalition: tuple[str, ...]
    bound: Vec
    child: Formula

    def __post_init__(self):
        object.__setattr__(self, "coalition", _norm_coalition(self.coalition))
        object.__setattr__(self, "bound", _norm_bound(self.bound))


@dataclass(frozen=True)
class CoalitionAlways(Formula):
    coalition: tuple[str, ...]
    bound: Vec
    child: Formula

    def __post_init__(self):
        object.__setattr__(self, "coalition", _norm_coalition(self.coalition))
        object.__setattr__(self, "bound", _norm_bound(self.bound))


@dataclass(frozen=True)
class CoalitionUntil(Formula):
    coalition: tuple[str, ...]
    bound: Vec
    hold: Formula
    goal: Formula

    def __post_init__(self):
        object.__setattr__(self, "coalition", _norm_coalition(self.coalition))
        object.__setattr__(self, "bound", _norm_bound(self.bound))


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
    split (d, d') of each bounded until/always, in the same order; within
    one credit key (type, coalition, children, INF components) no bound
    comes after a strictly larger one, so each variant is labelled before
    any that reads it."""
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
