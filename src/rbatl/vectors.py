"""Resource vector arithmetic with an absorbing infinity.

Vectors are plain tuples over three flavours that share the representation:
cost vectors (signed ints, positive = consumption, negative = production),
bound/availability vectors (naturals or INF per component) and markings
(naturals only).  INF is a dedicated singleton rather than a sentinel
integer, so no finite value can accidentally masquerade as unbounded.
"""

from __future__ import annotations

import itertools

from .errors import VectorError


class _Infinity:
    """The unbounded amount: above every int, absorbing under +/- of ints."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("rbatl.infinity")

    def __le__(self, other):
        if other is self:
            return True
        if isinstance(other, int):
            return False
        return NotImplemented

    def __lt__(self, other):
        if other is self or isinstance(other, int):
            return False
        return NotImplemented

    def __ge__(self, other):
        if other is self or isinstance(other, int):
            return True
        return NotImplemented

    def __gt__(self, other):
        if other is self:
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __add__(self, other):
        if other is self or isinstance(other, int):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return self
        return NotImplemented


INF = _Infinity()

Scalar = int  # or INF; kept informal, tuples mix both
Vec = tuple


def zeros(r: int) -> Vec:
    return (0,) * r


def all_inf(r: int) -> Vec:
    return (INF,) * r


def is_all_inf(v: Vec) -> bool:
    return all(x is INF for x in v)


def is_cost_vec(v) -> bool:
    return isinstance(v, tuple) and all(type(x) is int for x in v)


def is_bound_vec(v) -> bool:
    return isinstance(v, tuple) and all(
        x is INF or (type(x) is int and x >= 0) for x in v
    )


def _check_lengths(x: Vec, y: Vec):
    if len(x) != len(y):
        raise VectorError(f"vector length mismatch: {len(x)} vs {len(y)}")


def vec_leq(x: Vec, y: Vec) -> bool:
    """Pointwise <= with b <= INF for every finite b and INF <= INF."""
    _check_lengths(x, y)
    return all(a <= b for a, b in zip(x, y))


def vec_geq(x: Vec, y: Vec) -> bool:
    return vec_leq(y, x)


def vec_add(x: Vec, y: Vec) -> Vec:
    _check_lengths(x, y)
    return tuple(a + b for a, b in zip(x, y))


def bound_minus_cost(e: Vec, k: Vec) -> Vec | None:
    """Availability after paying k: pointwise e - k with INF absorbing.

    Returns None (the distinguished "undefined" result) if any finite
    component would drop below zero.  Callers filter actions by cost first,
    so None here signals a caller bug rather than an expected state.
    """
    _check_lengths(e, k)
    out = []
    for a, b in zip(e, k):
        if a is INF:
            out.append(INF)
            continue
        c = a - b
        if c < 0:
            return None
        out.append(c)
    return tuple(out)


def _component_key_inf_last(x):
    return (1, 0) if x is INF else (0, x)


def vec_sort_key(v: Vec) -> tuple:
    """Total order on bound vectors that linearly extends pointwise <=."""
    return tuple(_component_key_inf_last(x) for x in v)


def proj_inf(bound: Vec) -> Vec:
    """Zero vector lifted to INF exactly where `bound` is INF."""
    return tuple(INF if x is INF else 0 for x in bound)


def split(bound: Vec) -> list[tuple[Vec, Vec]]:
    """All (d, d') with d + d' = bound, ordered by increasing d'.

    Components where bound is INF are forced to INF on both sides.  d must
    have at least one non-zero finite component, which excludes exactly the
    pair with d' = bound and keeps the ladder over d' strictly descending.
    """
    ranges = [
        (INF,) if x is INF else tuple(range(x + 1))  # d' candidates per slot
        for x in bound
    ]
    pairs = []
    for dprime in itertools.product(*ranges):
        d = tuple(
            INF if b is INF else b - dp for b, dp in zip(bound, dprime)
        )
        if not any(x is not INF and x > 0 for x in d):
            continue
        pairs.append((d, dprime))
    pairs.sort(key=lambda p: vec_sort_key(p[1]))
    return pairs
