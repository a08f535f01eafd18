"""Grid-simplex geometry, weight functions, cuts, and the two basic functionals.

Points of the discretized simplex are stored as tuples of k nonnegative
integer numerators summing to n (the real point is coords/n).  Each grid
object has one cached accessor: the tuples `enumerate_points` and
`enumerate_edges`, and the read-only arrays `edge_index` (the edges'
endpoints, by `point_index(k, n)` position) and `point_sides`.  A
validated `Cut` keeps its labels as an array in point order, and `cost`
sums a weight function's integer numerators over one common denominator
on the edges whose endpoint labels differ; `face_gather` places a
smaller grid on faces of the k-simplex.  All arithmetic in this module
is exact: weights and costs are `Fraction`s at the API, integers inside,
and floating point is never used here.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, compress, repeat
from math import comb, lcm
from operator import sub
from types import MappingProxyType
from typing import Optional

import numpy as np

Point = tuple[int, ...]
Edge = tuple[Point, Point]
MAX_POINTS = 2**19  # the largest grid enumerated: at about 2 KB a triangle point, 1 GiB


def support(x: Point) -> frozenset[int]:
    """Indices of the nonzero coordinates (0-based)."""
    return frozenset(i for i, v in enumerate(x) if v > 0)


def terminal(i: int, k: int, n: int) -> Point:
    """The grid point sitting at simplex vertex e^i."""
    return (0,) * i + (n,) + (0,) * (k - i - 1)


def check_grid(k: int, n: int) -> None:
    """Raise ValueError unless Delta_{k,n} is a grid: k >= 2 coordinates, n >= 1."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")


@lru_cache(maxsize=64)
def enumerate_points(k: int, n: int) -> tuple[Point, ...]:
    """All compositions of n into k nonnegative parts, lexicographic order,
    as one tuple per grid, cached: every call returns the same tuple."""
    check_grid(k, n)
    if (count := comb(n + k - 1, k - 1)) > MAX_POINTS:
        raise ValueError(f"Delta_{{k={k},n={n}}} has {count} points, more than MAX_POINTS = {MAX_POINTS}")

    def rec(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for v in range(remaining + 1):
            for rest in rec(remaining - v, slots - 1):
                yield (v,) + rest

    return tuple(rec(n, k))


@lru_cache(maxsize=64)
def point_index(k: int, n: int) -> Mapping[Point, int]:
    """Read-only map from each point of Delta_{k,n} to its position in
    `enumerate_points(k, n)` order."""
    return MappingProxyType({x: i for i, x in enumerate(enumerate_points(k, n))})


def face_gather(k: int, n: int, faces: Sequence[Sequence[int]]) -> np.ndarray:
    """Read-only (len(faces), |Delta_{m,n}|) array: row f, column j is the
    `point_index(k, n)` position of the j-th point of Delta_{m,n}, in
    `enumerate_points` order, with its coordinates placed at faces[f].

    faces are faces of [k], all of one size m, in any order.  A sorted face
    keeps lexicographic order, so it maps canonical edges to canonical edges.
    """
    index = point_index(k, n)
    small = enumerate_points(len(faces[0]), n)
    rows = []
    for f in faces:
        for x in small:
            big = [0] * k
            for i, v in zip(f, x):
                big[i] = v
            rows.append(index[tuple(big)])
    gather = np.array(rows, dtype=np.intp).reshape(len(faces), len(small))
    gather.setflags(write=False)
    return gather


@lru_cache(maxsize=64)
def sorted_face_gather(k: int, n: int, m: int) -> np.ndarray:
    """`face_gather` of the C(k, m) sorted m-faces of [k], in `combinations` order."""
    return face_gather(k, n, list(combinations(range(k), m)))


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


@lru_cache(maxsize=64)
def edge_index(k: int, n: int) -> np.ndarray:
    """Read-only (2, edges) intp array of rows (u, v): edge j of
    `enumerate_edges(k, n)` joins the points u[j] < v[j] of `point_index(k, n)`.
    Index order is lexicographic, so the sorted pairs are the sorted canonical edges."""
    index = point_index(k, n)
    pairs = sorted((i, j) for i, x in enumerate(index) for j in map(index.__getitem__, neighbors(x)) if i < j)
    uv = np.array(pairs, dtype=np.intp).T.copy()
    uv.setflags(write=False)
    return uv


@lru_cache(maxsize=64)
def enumerate_edges(k: int, n: int) -> tuple[Edge, ...]:
    """All unordered adjacent grid-point pairs, canonically ordered and sorted,
    as one tuple per grid, cached; the endpoints are `enumerate_points`'s tuples."""
    points = enumerate_points(k, n)
    return tuple((points[i], points[j]) for i, j in zip(*edge_index(k, n).tolist()))


@lru_cache(maxsize=64)
def point_sides(k: int, n: int) -> np.ndarray:
    """Read-only intp bitmask of each point of Delta_{k,n}, in point order:
    bit i is set where x_i = 0, the point lies on the side opposite e^i."""
    if k > 63:
        raise ValueError(f"a side mask holds at most 63 coordinates, got k = {k}")
    sides = (np.array(enumerate_points(k, n)) == 0) @ (1 << np.arange(k, dtype=np.intp))
    sides.setflags(write=False)
    return sides


def check_edges(k: int, n: int, edges: Collection[Edge]) -> None:
    """Raise ValueError unless every (x, y) in edges joins two points of
    Delta_{k,n} one unit transfer apart.  Each distinct point is checked once."""
    for p in set(chain.from_iterable(edges)):
        if len(p) != k or not all(map(isinstance, p, repeat(int))) or min(p) < 0 or sum(p) != n:
            raise ValueError(f"{list(p)} is not a point of Delta_{{k={k},n={n}}}")
    for x, y in edges:
        # equal sums and an L1 distance of 2: one coordinate up by one, one down
        if sum(map(abs, map(sub, x, y))) != 2:
            raise ValueError(f"{list(x)} and {list(y)} are not one unit transfer apart, so not an edge")


@dataclass
class WeightFunction:
    """Exact-rational edge weights on E_{k,n}; absent edges weigh zero.
    Every key must be a canonically ordered edge (`check_edges`), and every
    value a nonnegative `int` or `Fraction`.

    The weights dict is copied at construction.  Treat `weights` as
    read-only afterwards: `cost` caches an integer form of it on first use.
    """

    k: int
    n: int
    weights: dict[Edge, Fraction] = field(default_factory=dict)
    _integer: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.weights = dict(self.weights)
        check_grid(self.k, self.n)
        check_edges(self.k, self.n, self.weights)
        for (x, y), w in self.weights.items():
            if not isinstance(w, (int, Fraction)):
                raise ValueError(f"weight {w!r} on {(x, y)} is not an int or Fraction")
            if w.numerator < 0:
                raise ValueError(f"negative weight {w} on {(x, y)}")
            if x > y:
                raise ValueError(f"edge {(x, y)} is not canonically ordered")

    def integer_form(self) -> tuple[int, np.ndarray, np.ndarray, tuple[int, ...]]:
        """(D, u, v, nums): edge j joins points u[j] and v[j] of
        `point_index(k, n)` and weighs nums[j] / D, D the lcm of the
        denominators.  Built on the first call, so constructing a weight
        function never enumerates Delta_{k,n}; only a cost against a cut does.
        """
        if self._integer is None:
            index = point_index(self.k, self.n)
            D = lcm(*(q.denominator for q in self.weights.values()))
            m = len(self.weights)
            u = np.fromiter((index[x] for x, _ in self.weights), np.intp, m)
            v = np.fromiter((index[y] for _, y in self.weights), np.intp, m)
            u.setflags(write=False)
            v.setflags(write=False)
            nums = tuple(q.numerator * (D // q.denominator) for q in self.weights.values())
            self._integer = (D, u, v, nums)
        return self._integer

    def get(self, x: Point, y: Point) -> Fraction:
        return self.weights.get(canonical_edge(x, y), Fraction(0))

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def scaled(self, a: Fraction) -> "WeightFunction":
        a = Fraction(a)
        return WeightFunction(self.k, self.n, {e: aw for e, w in self.weights.items() if (aw := a * w) != 0})


def lpc(w: WeightFunction) -> Fraction:
    """Value of the canonical LP solution: (1/n) * total weight."""
    return w.total() / w.n


KWAY = "kway"
NONOPPOSITE = "nonopposite"
EXTRA = 3  # label of the extra cluster of a non-opposite cut


@dataclass
class Cut:
    """A labeling of all grid points into clusters, terminals pinned.

    Labels are 0-based: cluster i for i in range(k), and the extra cluster
    of a non-opposite cut is label k.  `validate` copies the labels dict
    and stores them as `label_array`, in `point_index(k, n)` order; treat
    `labels` as read-only after construction.
    """

    k: int
    n: int
    labels: dict[Point, int]
    family: str = KWAY
    label_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in (KWAY, NONOPPOSITE):
            raise ValueError(f"unknown cut family {self.family!r}")
        if self.family == NONOPPOSITE and self.k != 3:
            raise ValueError("non-opposite cuts are only defined for k = 3")
        self.validate()

    def validate(self) -> None:
        index = point_index(self.k, self.n)
        labels = dict(self.labels)
        positions = list(map(index.get, labels))
        if len(labels) != len(index) or None in positions:
            raise ValueError("labels must cover exactly the grid points")
        hi = self.k + 1 if self.family == NONOPPOSITE else self.k
        values = np.array(list(labels.values()))
        if values.dtype.kind not in "biu" or values.min() < 0 or values.max() >= hi:
            x, c = next((x, c) for x, c in labels.items() if not (isinstance(c, (int, np.integer)) and 0 <= c < hi))
            raise ValueError(f"label {c!r} out of range at {x}")
        if self.family == NONOPPOSITE:
            # label c is opposite x when bit c of x's side mask is set; EXTRA's bit never is
            opposite = np.flatnonzero(point_sides(self.k, self.n)[positions] >> values.astype(np.intp) & 1)
            if opposite.size:
                x = list(labels)[opposite[0]]
                raise ValueError(f"opposite assignment: {x} -> {labels[x]}")
        for i in range(self.k):
            t = terminal(i, self.k, self.n)
            if labels[t] != i:
                raise ValueError(f"terminal {i} labeled {labels[t]}")
        self.labels = labels
        self.label_array = np.empty(len(index), np.min_scalar_type(hi - 1))
        self.label_array[positions] = values
        self.label_array.setflags(write=False)


def cost(P: Cut, w: WeightFunction) -> Fraction:
    """Total weight of edges whose endpoints receive different labels.

    An exact integer sum of w's numerators over its common denominator
    (`WeightFunction.integer_form`); the result is the only `Fraction`.
    """
    if (P.k, P.n) != (w.k, w.n):
        raise ValueError("cut and weights live on different grids")
    D, u, v, nums = w.integer_form()
    lab = P.label_array
    return Fraction(sum(compress(nums, (lab[u] != lab[v]).tolist())), D)


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
    points = enumerate_points(3, n)
    labels = {x: x.index(n) if max(x) == n else rng.choice(sorted(support(x)) + [EXTRA]) for x in points}
    return Cut(3, n, labels, NONOPPOSITE)
