"""Grid-simplex geometry, weight functions, cuts, and the two basic functionals.

Points of the discretized simplex are stored as tuples of k nonnegative
integer numerators summing to n (the real point is coords/n).  All
arithmetic in this module is exact: weights and costs are `Fraction`s,
floating point is never used here.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

Point = tuple[int, ...]
Edge = tuple[Point, Point]


def support(x: Point) -> frozenset[int]:
    """Indices of the nonzero coordinates (0-based)."""
    return frozenset(i for i, v in enumerate(x) if v > 0)


def terminal(i: int, k: int, n: int) -> Point:
    """The grid point sitting at simplex vertex e^i."""
    return tuple(n if j == i else 0 for j in range(k))


def embed(x: Point, f: Sequence[int], k: int) -> Point:
    """The k-grid point with x[j] at coordinate f[j] and zeros elsewhere.

    With f increasing, embedding preserves lexicographic order, so it maps
    canonical edges to canonical edges.
    """
    big = [0] * k
    for j, i in enumerate(f):
        big[i] = x[j]
    return tuple(big)


def enumerate_points(k: int, n: int) -> list[Point]:
    """All compositions of n into k nonnegative parts, lexicographic order.

    Returns a fresh list of the cached point tuple, so callers may mutate it.
    """
    return list(_points(k, n))


@lru_cache(maxsize=64)
def _points(k: int, n: int) -> tuple[Point, ...]:
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")

    def rec(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for v in range(remaining + 1):
            for rest in rec(remaining - v, slots - 1):
                yield (v,) + rest

    return tuple(rec(n, k))


def canonical_edge(x: Point, y: Point) -> Edge:
    """Order the endpoints lexicographically so edges have a unique key."""
    return (x, y) if x <= y else (y, x)


def neighbors(x: Point) -> list[Point]:
    """Grid points at L1 distance exactly 2/n from x (unit transfers)."""
    k = len(x)
    out = []
    for i in range(k):
        if x[i] == 0:
            continue
        for j in range(k):
            if i == j:
                continue
            y = list(x)
            y[i] -= 1
            y[j] += 1
            out.append(tuple(y))
    return out


def enumerate_edges(k: int, n: int) -> list[Edge]:
    """All unordered adjacent grid-point pairs, canonically ordered and sorted."""
    edges = set()
    for x in enumerate_points(k, n):
        for y in neighbors(x):
            edges.add(canonical_edge(x, y))
    return sorted(edges)


@dataclass
class WeightFunction:
    """Exact-rational edge weights on E_{k,n}; absent edges weigh zero."""

    k: int
    n: int
    weights: dict[Edge, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for (x, y), w in self.weights.items():
            if w < 0:
                raise ValueError(f"negative weight {w} on {(x, y)}")
            if canonical_edge(x, y) != (x, y):
                raise ValueError(f"edge {(x, y)} is not canonically ordered")

    def get(self, x: Point, y: Point) -> Fraction:
        return self.weights.get(canonical_edge(x, y), Fraction(0))

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def scaled(self, a: Fraction) -> "WeightFunction":
        a = Fraction(a)
        return WeightFunction(
            self.k, self.n, {e: a * w for e, w in self.weights.items() if a * w != 0}
        )


def combine(a: Fraction, w1: WeightFunction, b: Fraction, w2: WeightFunction) -> WeightFunction:
    """a*w1 + b*w2 with nonnegative rational coefficients."""
    if (w1.k, w1.n) != (w2.k, w2.n):
        raise ValueError("weight functions live on different grids")
    a, b = Fraction(a), Fraction(b)
    out: dict[Edge, Fraction] = {}
    for e in set(w1.weights) | set(w2.weights):
        v = a * w1.weights.get(e, Fraction(0)) + b * w2.weights.get(e, Fraction(0))
        if v != 0:
            out[e] = v
    return WeightFunction(w1.k, w1.n, out)


def lpc(w: WeightFunction) -> Fraction:
    """Value of the canonical LP solution: (1/n) * total weight."""
    return w.total() / w.n


KWAY = "kway"
NONOPPOSITE = "nonopposite"


@dataclass
class Cut:
    """A labeling of all grid points into clusters, terminals pinned.

    Labels are 0-based: cluster i for i in range(k), and the extra cluster
    of a non-opposite cut is label k.
    """

    k: int
    n: int
    labels: dict[Point, int]
    family: str = KWAY

    def __post_init__(self) -> None:
        if self.family not in (KWAY, NONOPPOSITE):
            raise ValueError(f"unknown cut family {self.family!r}")
        if self.family == NONOPPOSITE and self.k != 3:
            raise ValueError("non-opposite cuts are only defined for k = 3")
        self.validate()

    def validate(self) -> None:
        points = enumerate_points(self.k, self.n)
        if set(self.labels) != set(points):
            raise ValueError("labels must cover exactly the grid points")
        hi = self.k + 1 if self.family == NONOPPOSITE else self.k
        for x, c in self.labels.items():
            if not 0 <= c < hi:
                raise ValueError(f"label {c} out of range at {x}")
            if self.family == NONOPPOSITE and c < self.k and c not in support(x):
                raise ValueError(f"opposite assignment: {x} -> {c}")
        for i in range(self.k):
            t = terminal(i, self.k, self.n)
            if self.labels[t] != i:
                raise ValueError(f"terminal {i} labeled {self.labels[t]}")

    def __call__(self, x: Point) -> int:
        return self.labels[x]


def cost(P: Cut, w: WeightFunction) -> Fraction:
    """Total weight of edges whose endpoints receive different labels."""
    if (P.k, P.n) != (w.k, w.n):
        raise ValueError("cut and weights live on different grids")
    total = Fraction(0)
    for (x, y), v in w.weights.items():
        if P.labels[x] != P.labels[y]:
            total += v
    return total


def random_kway_cut(k: int, n: int, rng: random.Random) -> Cut:
    """Uniform label in range(k) for each non-terminal point."""
    labels = {}
    for x in enumerate_points(k, n):
        if max(x) == n:
            labels[x] = x.index(n)
        else:
            labels[x] = rng.randrange(k)
    return Cut(k, n, labels, KWAY)


def random_nonopposite_cut(n: int, rng: random.Random) -> Cut:
    """Uniform label in supp(x) + {extra} for each non-terminal point of the triangle."""
    labels = {}
    for x in enumerate_points(3, n):
        if max(x) == n:
            labels[x] = x.index(n)
        else:
            labels[x] = rng.choice(sorted(support(x)) + [3])
    return Cut(3, n, labels, NONOPPOSITE)
