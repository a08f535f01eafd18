"""Grid-simplex geometry, weight functions, cuts, and the two basic functionals.

Points of the discretized simplex are stored as tuples of k nonnegative
integer numerators summing to n (the real point is coords/n); `point_rank`
gives a point's lexicographic position in closed form, and `point_unrank`
the point at a position, both from one cached binomial table per grid.
Each grid object has one cached accessor: the read-only arrays
`point_array` (the points, which every array kernel reads), `edge_index`
(the edges' endpoint positions), `point_sides` and `terminal_ranks`, and
the tuples `enumerate_points` and `enumerate_edges`, built from the
arrays for callers that ask for tuples.  A `WeightFunction` is its
positive integer numerators over one denominator, on its edges' endpoint
positions, and both of its constructors end in one array check that
drops zero weights; a `Cut` is its label array in point order (its
point dict is a view), and `cost` sums the numerators of the edges
whose endpoint labels differ; `face_gather` places a smaller grid on
faces of the k-simplex.  `point_array` and `face_gather` count their
intp arrays before building them and refuse one past `MAX_ARRAY_BYTES`,
and the weight check unranks edge ends in blocks of `EDGE_CHECK_BYTES`.  All
arithmetic here is exact: `Fraction`s only at the API, never a float.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, gcd, lcm
from types import MappingProxyType

import numpy as np

Point = tuple[int, ...]
Edge = tuple[Point, Point]
MAX_POINTS = 2**19  # the largest grid enumerated: at about 2 KB a triangle point, 1 GiB
# The largest intp array a grid kernel builds, `point_array`'s (points, k) and
# `face_gather`'s (faces, |Delta_{m,n}|, k): a gather holds about four of its
# size at once (`point_rank`'s temporaries), so it peaks near the same 1 GiB.
MAX_ARRAY_BYTES = 2**28
# The largest (2, edges, k) intp block of edge ends the weight check unranks at once.
EDGE_CHECK_BYTES = 2**20


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
def point_array(k: int, n: int) -> np.ndarray:
    """Read-only (|Delta_{k,n}|, k) intp array of the grid's points in
    lexicographic order, one per grid, cached: `point_unrank` of every
    position, behind the grid gate `MAX_POINTS`."""
    check_grid(k, n)
    if (count := comb(n + k - 1, k - 1)) > MAX_POINTS:
        raise ValueError(f"Delta_{{k={k},n={n}}} has {count} points, more than MAX_POINTS = {MAX_POINTS}")
    _check_array_bytes(f"the point array of Delta_{{k={k},n={n}}}", count * k)
    points = point_unrank(np.arange(count), k, n)
    points.setflags(write=False)
    return points


@lru_cache(maxsize=64)
def enumerate_points(k: int, n: int) -> tuple[Point, ...]:
    """All compositions of n into k nonnegative parts, lexicographic order,
    as one tuple per grid, cached: every call returns the same tuple, the
    rows of `point_array(k, n)`."""
    return tuple(zip(*point_array(k, n).T.tolist()))


def point_rank(x: np.ndarray, n: int) -> np.ndarray:
    """The position in `enumerate_points(k, n)` of each point of Delta_{k,n}
    on x's last axis, k = x.shape[-1], without enumerating the grid: x_i puts
    C(r + s, s) - C(r - x_i + s, s) points before x, r = n - x_0 - ... -
    x_{i-1}, s = k - 1 - i.  intp, or object on 2**63 points or more."""
    k = x.shape[-1]
    binom = _tail_counts(k, n)
    after = n - np.cumsum(x[..., :-1], axis=-1)
    i = np.arange(k - 1)
    return (binom[i, after + x[..., :-1]] - binom[i, after]).sum(axis=-1)


def point_unrank(rank: np.ndarray, k: int, n: int) -> np.ndarray:
    """The inverse of `point_rank`: the intp point of Delta_{k,n} at each
    position of rank, on a new last axis, without enumerating the grid.
    With the rank left and r units left, r - x_i is the least t with
    C(t + s, s) >= C(r + s, s) - rank, as `point_rank`'s sum gives."""
    x = np.empty(np.shape(rank) + (k,), np.intp)
    r = np.full(np.shape(rank), n, np.intp)
    for i, row in enumerate(_tail_counts(k, n)):
        left = np.searchsorted(row, row[r] - rank)
        rank = rank - (row[r] - row[left])
        x[..., i], r = r - left, left
    x[..., -1] = r
    return x


@lru_cache(maxsize=64)
def _tail_counts(k: int, n: int) -> np.ndarray:
    """Row s' of C(r + s, s), s = k - 1 - s', r = 0..n: the points of Delta_{s+1,r}.
    Read-only and cached; intp, or object on 2**63 points or more."""
    dtype = np.intp if comb(n + k - 1, k - 1) < 2**63 else object
    binom = np.array([[comb(r + s, s) for r in range(n + 1)] for s in range(k - 1, 0, -1)], dtype)
    binom.setflags(write=False)
    return binom


@lru_cache(maxsize=64)
def terminal_ranks(k: int, n: int) -> np.ndarray:
    """Read-only intp positions of the terminals e^0, ..., e^{k-1} in point
    order: the C(n + s, s) points with x_0 = ... = x_{i-1} = 0, s = k - 1 -
    i, come first, and e^i is their last."""
    ranks = np.array([comb(n + k - 1 - i, k - 1 - i) - 1 for i in range(k)], np.intp)
    ranks.setflags(write=False)
    return ranks


def _check_array_bytes(what: str, entries: int) -> None:
    """Raise ValueError if an intp array of this many entries passes MAX_ARRAY_BYTES."""
    if (size := entries * np.dtype(np.intp).itemsize) > MAX_ARRAY_BYTES:
        raise ValueError(f"{what} takes {size} bytes, more than MAX_ARRAY_BYTES = {MAX_ARRAY_BYTES}")


def _check_gather(k: int, n: int, m: int, faces: int) -> None:
    """Raise ValueError if a gather of this many m-faces of [k] would build a
    (faces, |Delta_{m,n}|, k) intp temporary past MAX_ARRAY_BYTES."""
    _check_array_bytes(f"a gather of {faces} {m}-faces on Delta_{{k={k},n={n}}}", faces * len(point_array(m, n)) * k)


def face_gather(k: int, n: int, faces: Sequence[Sequence[int]]) -> np.ndarray:
    """Read-only (len(faces), |Delta_{m,n}|) array: row f, column j is the
    `point_rank` of the j-th point of Delta_{m,n}, in `enumerate_points`
    order, with its coordinates placed at faces[f].

    faces are faces of [k], all of one size m, in any order: m distinct
    indices in range(k) each, or ValueError.  A sorted face keeps
    lexicographic order, so it maps canonical edges to canonical edges.
    """
    if len(sizes := set(map(len, faces))) != 1:
        raise ValueError(f"faces must be nonempty and all of one size, got sizes {sorted(sizes)}")
    for face in faces:
        if len(set(face)) < len(face):
            raise ValueError(f"face {list(face)} repeats an index")
        if not all(i in range(k) for i in face):
            raise ValueError(f"face {list(face)} has an index outside range({k})")
    _check_gather(k, n, m := sizes.pop(), len(faces))
    small = point_array(m, n)
    big = np.zeros((len(faces), len(small), k), small.dtype)
    big[np.arange(len(faces))[:, None], :, np.array(faces, np.intp)] = small.T
    gather = point_rank(big, n)
    gather.setflags(write=False)
    return gather


@lru_cache(maxsize=64)
def sorted_face_gather(k: int, n: int, m: int) -> np.ndarray:
    """`face_gather` of the C(k, m) sorted m-faces of [k], in `combinations`
    order, gated on their count before any face is listed."""
    _check_gather(k, n, m, comb(k, m))
    return face_gather(k, n, list(combinations(range(k), m)))


def canonical_edge(x: Point, y: Point) -> Edge:
    """Order the endpoints lexicographically so edges have a unique key."""
    return (x, y) if x <= y else (y, x)


@lru_cache(maxsize=64)
def edge_index(k: int, n: int) -> np.ndarray:
    """Read-only (2, edges) intp array of rows (u, v): edge j of
    `enumerate_edges(k, n)` joins the points u[j] < v[j] of `enumerate_points(k, n)`.
    Index order is lexicographic, so the sorted pairs are the sorted canonical edges."""
    points = point_array(k, n)
    step = np.eye(k, dtype=points.dtype)
    pairs = []
    for i, j in combinations(range(k), 2):
        v = np.flatnonzero(points[:, i])  # moving a unit to a later x_j gives the smaller end
        pairs.append(np.stack((point_rank(points[v] - step[i] + step[j], n), v)))
    uv = np.concatenate(pairs, axis=1)
    uv = uv[:, np.lexsort(uv[::-1])]
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
    sides = (point_array(k, n) == 0) @ (1 << np.arange(k, dtype=np.intp))
    sides.setflags(write=False)
    return sides


def _is_point(x: object, k: int, n: int) -> bool:
    """x is a point of Delta_{k,n} as the dict constructors take one: a
    tuple of k Python ints >= 0 summing to n (a float or bool coordinate
    would hash like the grid point, but not serialize back)."""
    return type(x) is tuple and len(x) == k and all(type(a) is int and a >= 0 for a in x) and sum(x) == n


def _integers(values, what: str) -> np.ndarray:
    """values as an integer array, as numpy reads them when that gives an
    integer dtype, else as Python ints (object dtype), so a list mixing
    ints past int64 with negative ones is not rounded through float64;
    refuses the first entry that is not an int by name.  Empty input
    passes (`np.asarray([])` is float64)."""
    x = np.asarray(values)
    if x.dtype.kind in "iu" or x.ndim != 1:
        return x
    x = np.asarray(values, object)
    if bad := [q for q in x.tolist() if not isinstance(q, int)]:
        raise ValueError(f"{what} {bad[0]!r} is not an integer")
    return x


class WeightFunction:
    """Exact-rational edge weights on E_{k,n}, as integer numerators over one
    denominator: edge j joins the points of ranks u[j] < v[j] (`point_rank`)
    and weighs nums[j] / denominator > 0; absent edges weigh zero.  The
    edges are distinct and in `enumerate_edges` order, only positive
    weights are stored, and gcd(denominator, *nums) = 1, so equal weights
    give equal arrays.  nums is int64 if it totals below 2**63, else Python
    ints (object dtype); u and v are intp, or object on a grid of 2**63
    points or more.  The arrays are read-only.  `from_numerators` takes
    the arrays; the constructor takes a dict whose keys are pairs of point
    tuples and values ints or `Fraction`s, and ranks the endpoints in
    closed form, so it never enumerates Delta_{k,n}; both end in
    `_check`, the one weight check.
    """

    def __init__(self, k: int, n: int, weights: Mapping[Edge, int | Fraction] = MappingProxyType({})) -> None:
        check_grid(k, n)
        for e, w in weights.items():
            if not (type(e) is tuple and len(e) == 2 and all(type(p) is tuple for p in e)):
                raise ValueError(f"edge {e!r} is not a pair of point tuples")
            if bad := [p for p in e if not _is_point(p, k, n)]:
                raise ValueError(f"{list(bad[0])} is not a point of Delta_{{k={k},n={n}}}")
            if not isinstance(w, (int, Fraction)):
                raise ValueError(f"weight {w!r} on {e} is not an int or Fraction")
        items = sorted(weights.items())  # lexicographic order is rank order
        D = lcm(*(w.denominator for _, w in items))
        ends = point_rank(np.array([e for e, _ in items], np.int64).reshape(-1, 2, k), n)
        self._check(k, n, D, ends[:, 0], ends[:, 1], [w.numerator * (D // w.denominator) for _, w in items])

    @classmethod
    def from_numerators(cls, k: int, n: int, denominator: int, u, v, nums) -> WeightFunction:
        """Edge j joins the points u[j] < v[j] of `enumerate_points(k, n)` and
        weighs nums[j] / denominator, checked by `_check`."""
        w = cls.__new__(cls)
        w._check(k, n, denominator, u, v, nums)
        return w

    def _check(self, k: int, n: int, denominator: int, u, v, nums) -> None:
        """The one weight check, on the arrays, in this order: the grid, a
        denominator >= 1 and one u, v and integer numerator per edge, ranks
        on the grid with u <= v and the pairs (u, v) strictly increasing
        (compared pairwise, so no u * count + v key can wrap), every pair an
        edge (so u < v), no numerator negative.  Every edge given is
        checked, then `_store` keeps the positive weights."""
        check_grid(k, n)
        count = comb(n + k - 1, k - 1)
        u, v, nums = _integers(u, "rank"), _integers(v, "rank"), _integers(nums, "weight numerator")
        if denominator < 1 or not (u.ndim == 1 and u.shape == v.shape == nums.shape):
            raise ValueError(f"need a denominator >= 1 and one u, v and numerator per edge, got {denominator}")
        order = f"need canonically ordered rank pairs 0 <= u < v < {count} in enumerate_edges order"
        dtype = np.intp if count < 2**63 else object
        try:
            u, v = u.astype(dtype, copy=False), v.astype(dtype, copy=False)
        except OverflowError:  # a Python-int rank past intp, so off the grid
            raise ValueError(order) from None
        du = np.diff(u)
        ordered = (u <= v).all() and ((du > 0) | (du == 0) & (np.diff(v) > 0)).all()
        if u.size and not (0 <= u.min() and v.max() < count and ordered):
            raise ValueError(order)
        step = max(1, EDGE_CHECK_BYTES // (2 * k * np.dtype(np.intp).itemsize))
        for s in range(0, u.size, step):  # unranked a block at a time, so the check's memory is bounded
            x, y = point_unrank(np.stack((u[s : s + step], v[s : s + step])), k, n)
            if (far := np.flatnonzero(np.abs(x - y).sum(axis=1) != 2)).size:
                j = far[0]
                raise ValueError(f"{x[j].tolist()} and {y[j].tolist()} are not one unit transfer apart: not an edge")
        if (negative := np.flatnonzero(nums < 0)).size:
            j, q = negative[0], int(nums[negative[0]])
            e = tuple(map(tuple, point_unrank(np.array([u[j], v[j]], u.dtype), k, n).tolist()))
            raise ValueError(f"negative weight numerator {q}, so negative weight {Fraction(q, denominator)} on {e}")
        self._store(k, n, denominator, u, v, nums)

    def _store(self, k: int, n: int, D: int, u: np.ndarray, v: np.ndarray, nums: np.ndarray) -> None:
        """Store checked arrays read-only, only the positive weights, reduced
        by their gcd with D: the one statement of the zero rule."""
        keep = nums > 0
        nums = nums[keep].tolist()
        g = gcd(D, *nums)
        self.k, self.n, self.u, self.v, self.denominator = k, n, u[keep], v[keep], D // g
        self.nums = np.array([q // g for q in nums], np.int64 if sum(nums) // g < 2**63 else object)
        for a in (self.u, self.v, self.nums):
            a.setflags(write=False)

    @cached_property
    def weights(self) -> Mapping[Edge, Fraction]:
        """The weights as a read-only `Fraction` dict on point tuples, built on
        first read by `point_unrank`, so it never enumerates Delta_{k,n}."""
        xs, ys = point_unrank(np.stack((self.u, self.v)), self.k, self.n).tolist()
        D = self.denominator
        return MappingProxyType({(tuple(x), tuple(y)): Fraction(q, D) for x, y, q in zip(xs, ys, self.nums.tolist())})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightFunction):
            return NotImplemented
        fields = ("k", "n", "denominator", "u", "v", "nums")
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)

    def get(self, x: Point, y: Point) -> Fraction:
        return self.weights.get(canonical_edge(x, y), Fraction(0))

    def total(self) -> Fraction:
        return Fraction(sum(self.nums.tolist()), self.denominator)

    def scaled(self, a: Fraction) -> WeightFunction:
        """a >= 0 times every weight, on the checked arrays; a = 0 leaves no edge."""
        a = Fraction(a)
        if a < 0:
            raise ValueError(f"negative scale {a}")
        w = WeightFunction.__new__(WeightFunction)
        nums = self.nums.astype(object) * a.numerator  # Python ints, so no product can wrap
        w._store(self.k, self.n, self.denominator * a.denominator, self.u, self.v, nums)
        return w


def lpc(w: WeightFunction) -> Fraction:
    """Value of the canonical LP solution: (1/n) * total weight."""
    return w.total() / w.n


KWAY = "kway"
NONOPPOSITE = "nonopposite"
EXTRA = 3  # label of the extra cluster of a non-opposite cut


class Cut:
    """A labeling of all grid points into clusters, terminals pinned.

    Labels are 0-based: cluster i for i in range(k), and the extra cluster
    of a non-opposite cut is label k.  A cut stores k, n, family and
    `label_array`, the read-only small-int label of each point in
    `enumerate_points(k, n)` order; `labels` is a dict view of it.
    `from_array` takes the array, the constructor a dict on every point
    (outside input); both end in `validate`, the one check.
    """

    def __init__(self, k: int, n: int, labels: Mapping[Point, int], family: str = KWAY) -> None:
        if not all(_is_point(x, k, n) for x in labels):
            raise ValueError("labels must cover exactly the grid points")
        self.k, self.n, self.family = k, n, family
        self.label_array = np.array([c for _, c in sorted(labels.items())])  # lexicographic order is point order
        self.validate()

    @classmethod
    def from_array(cls, k: int, n: int, labels: Sequence[int] | np.ndarray, family: str = KWAY) -> Cut:
        """The cut labeling the j-th point of `enumerate_points(k, n)` with
        labels[j], checked on the array by `validate`."""
        P = cls.__new__(cls)
        P.k, P.n, P.family, P.label_array = k, n, family, np.asarray(labels)
        P.validate()
        return P

    def validate(self) -> None:
        """The one check, in numpy, in this order: the grid gate, one label a
        point, each an integer in range, terminal i labeled i, no opposite
        corner in a non-opposite cut.  Stores the labels read-only, small-int."""
        k, n, family = self.k, self.n, self.family
        points = point_array(k, n)  # the grid gate; a tuple only names a point in an error
        if family not in (KWAY, NONOPPOSITE):
            raise ValueError(f"unknown cut family {family!r}")
        if family == NONOPPOSITE and k != 3:
            raise ValueError("non-opposite cuts are only defined for k = 3")
        lab = self.label_array
        if lab.shape != (len(points),):
            raise ValueError("labels must cover exactly the grid points")
        hi = k + 1 if family == NONOPPOSITE else k
        if lab.dtype.kind not in "biu" or lab.min() < 0 or lab.max() >= hi:
            for j, c in enumerate(lab.tolist()):
                if not (isinstance(c, int) and 0 <= c < hi):
                    raise ValueError(f"label {c!r} out of range at {tuple(points[j].tolist())}")
        lab = lab.astype(np.min_scalar_type(hi - 1))
        terminals = terminal_ranks(k, n)
        if (wrong := np.flatnonzero(lab[terminals] != np.arange(k))).size:
            raise ValueError(f"terminal {wrong[0]} labeled {lab[terminals[wrong[0]]]}")
        # label c is opposite x when bit c of x's side mask is set; EXTRA's bit never is
        if family == NONOPPOSITE and (opposite := np.flatnonzero(point_sides(k, n) >> lab & 1)).size:
            raise ValueError(f"opposite assignment: {tuple(points[opposite[0]].tolist())} -> {lab[opposite[0]]}")
        lab.setflags(write=False)
        self.label_array = lab

    @cached_property
    def labels(self) -> Mapping[Point, int]:
        """The labels as a read-only dict on point tuples with Python-int
        values, in point order, built on first read."""
        return MappingProxyType(dict(zip(enumerate_points(self.k, self.n), self.label_array.tolist())))

    def __eq__(self, other: object) -> bool:
        fields = ("k", "n", "family", "label_array")
        return isinstance(other, Cut) and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)


def cost(P: Cut, w: WeightFunction) -> Fraction:
    """Total weight of edges whose endpoints receive different labels, an
    exact sum of w's numerators: int64 ones total below 2**63, so their sum
    cannot wrap, and object ones add Python ints."""
    if (P.k, P.n) != (w.k, w.n):
        raise ValueError("cut and weights live on different grids")
    lab = P.label_array
    return Fraction(int(w.nums[lab[w.u] != lab[w.v]].sum()), w.denominator)


def random_kway_cut(k: int, n: int, rng: random.Random) -> Cut:
    """Uniform label in range(k) for each non-terminal point, drawn in point order."""
    labels = np.full(len(point_array(k, n)), -1)
    labels[terminal_ranks(k, n)] = range(k)
    labels[labels < 0] = [rng.randrange(k) for _ in range(len(labels) - k)]
    return Cut.from_array(k, n, labels, KWAY)


def random_nonopposite_cut(n: int, rng: random.Random) -> Cut:
    """Uniform label in supp(x) + {extra} for each non-terminal point of the triangle, drawn in point order."""
    labels = np.full(len(point_array(3, n)), -1)
    labels[terminal_ranks(3, n)] = range(3)
    labels[labels < 0] = [rng.choice(nonopposite_labels(s)) for s in point_sides(3, n)[labels < 0].tolist()]
    return Cut.from_array(3, n, labels, NONOPPOSITE)


def nonopposite_labels(side: int) -> list[int]:
    """supp(x) + [EXTRA], ascending, for a triangle point x with this side
    mask: label c is opposite x when bit c is set, and EXTRA's bit never is."""
    return [c for c in (0, 1, 2, EXTRA) if not side >> c & 1]
