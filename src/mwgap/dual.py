"""Planar dual of the augmented triangle grid and cut-cost certification.

The dual of the augmented (triangle grid, unit edges) graph has one node
per triangular face plus three outer nodes O_0, O_1, O_2 (O_i opposite
simplex vertex e^i; edges among the outer nodes are dropped).  Every
primal edge corresponds to exactly one dual edge carrying the same
weight, so:

  * a 3-corner (non-opposite) cut contains three edge-disjoint dual paths
    among the outer nodes,
  * a ball cut contains three edge-disjoint dual paths from one face to
    the three outer nodes,
  * a 2-corner (3-way) cut contains two edge-disjoint paths among them,

and exact shortest-path distances give machine-checkable lower bounds on
cut costs.  `potential_system(n)` states that bound once, as one linear
system in integer arrays of at most three terms a row.  `lpsearch` solves
it on the orbits of its columns under the six permutations of the
coordinates, `symmetry_orbits(n)`; `check_potentials` evaluates it as one
exact A x >= b on the weights and the paper's potentials,
`paper_potentials(n)`, and names its first violated row by its edges
and (outer node, node) pairs; a brute-force enumerator provides an oracle
at tiny n.

The weight-free part of the dual, `dual_topology(n)`, is built once per n
from the point array and cached as read-only integer arrays of the dual
alone: each edge slot's two dual nodes, by node ids in sorted node-tuple
order, the face and outer-node ids, and the face centroids.  A
`DualGraph` adds one read-only array of weight numerators per edge slot,
in the `WeightFunction`'s dtype, placed by one search on sorted edge keys.
Both shortest-path kernels search one graph, `_search_graph(n)`, the
Lipschitz rows of the potential system.  `certify` takes scipy's
compiled Dijkstra while the weight numerators total less than
FLOAT_EXACT = 2**53, and checks its distances exactly on the rows it
searched, so a wrong one raises RuntimeError and never inflates a
certificate; from 2**53 on, and in `dijkstra`, the exact kernel
`_shortest_paths` runs in Python ints.  SciPy is imported on the first
compiled call, so `import mwgap` does not load it.  Columns and rows are
integer ids; only returned values are node tuples and `Fraction`s.

Normalization works on the primal grid, read from `core`: `normalize_cut`
and `classify_cut` find a cut's components by union-find over the edge
endpoints `edge_index(3, n)` on the cut's label array, and read the sides
a component touches from the side bitmasks `point_sides(3, n)`;
`normalize_cut` reads a component's neighbour labels from its members'
adjacency, and merges a relabelled component into its neighbours of the
new label.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, lcm
from typing import Optional

import numpy as np

from .core import (
    EXTRA,
    KWAY,
    NONOPPOSITE,
    Cut,
    Edge,
    WeightFunction,
    cost,
    edge_index,
    enumerate_edges,
    enumerate_points,
    nonopposite_labels,
    point_array,
    point_rank,
    point_sides,
    terminal_ranks,
)
from .serialize import rat_to_str

# Dual node encodings: ("O", i) for outer nodes, ("U"/"D", a, b, c) for
# upward/downward faces with base coordinates a+b+c = n-1 / n-2.
DualNodeT = tuple

OUTER = tuple(("O", i) for i in range(3))


@dataclass(frozen=True)
class DualTopology:
    """The weight-free dual of the augmented grid Delta_{3,n}: one dual
    edge per primal edge slot, given by the two dual nodes it joins.

    Node ids follow sorted node-tuple order: the down faces, then O_0,
    O_1, O_2, then the up faces.  Edge slots follow `enumerate_edges(3, n)`
    order.  So comparing ids, or (id, slot) pairs, compares node tuples,
    or (node, primal edge) pairs.  Every field is a read-only integer array
    of the dual: the primal grid's are `edge_index(3, n)` and `point_sides(3, n)`.
    """

    ends: np.ndarray  # (edge slots, 2): the two dual nodes of each edge slot, ascending
    faces: np.ndarray  # face ids: the up faces, then the down faces, each in tuple order
    centroids: np.ndarray  # each face's vertex sum, in the same order: its centroid as numerators over 3n
    outer: np.ndarray  # ids of O_0, O_1, O_2

    @property
    def size(self) -> int:
        """The number of dual nodes: the faces and the three outer nodes."""
        return len(self.faces) + 3

    def nodes(self) -> list[DualNodeT]:
        """The node tuples, by id.  Built per call: the cache holds no tuples."""
        n_up = len(self.faces) - int(self.outer[0])
        # the base (a, b, c) of a face: its centroid numerators are 3a + 1 (up) or 3a + 2 (down)
        faces = [("U" if j < n_up else "D", *x) for j, x in enumerate((self.centroids // 3).tolist())]
        return faces[n_up:] + list(OUTER) + faces[:n_up]  # up faces come first in centroid order


def _frozen(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.int32)
    a.setflags(write=False)
    return a


def _find_pairs(lo: np.ndarray, hi: np.ndarray, size: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The j with {lo[j], hi[j]} = {u, v}, for each pair of ids below size; the pairs
    (lo[j], hi[j]) are distinct, with lo < hi.  The keys lo * size + hi are intp:
    a node id times the node count passes 2**31 from n = 258 on."""
    keys = lo.astype(np.intp) * size + hi
    order = np.argsort(keys)
    return order[np.searchsorted(keys, np.minimum(u, v).astype(np.intp) * size + np.maximum(u, v), sorter=order)]


@lru_cache(maxsize=64)
def dual_topology(n: int) -> DualTopology:
    """The dual's topology for Delta_{3,n}, built once per n from the point
    array, read at each edge slot's endpoints `edge_index(3, n)`.

    A face is named by its base x: an up face has corners x + e^i, a down
    face x + (1, 1, 1) - e^i.  So the up faces are the points p with
    p_0 > 0, less e^0, and the down faces the points with p_0, p_1 > 0,
    less (1, 1, 0), both in tuple order, the lex order of their bases in
    Delta_{3,n-1} and Delta_{3,n-2}; the centroid numerators over 3n are
    3x + 1 and 3x + 2.  The edge x -> y = x - e^i + e^j, l the third index,
    is a side of the up face x - e^i and of the down face x - (1, 1, 1) +
    e^j, which exists when x_l > 0; when x_l = 0, O_l is its other end.
    """
    points = point_array(3, n)
    x, y = points[edge_index(3, n)]  # each edge slot's endpoints
    up = points[points[:, 0] > 0] - [1, 0, 0]
    down = points[(points[:, 0] > 0) & (points[:, 1] > 0)] - [1, 1, 0]
    eye = np.eye(3, dtype=np.intp)
    i, j = (y - x).argmin(axis=1), (y - x).argmax(axis=1)
    below = x - 1 + eye[j]  # the down face's base, when no coordinate is negative
    lower = len(down) + 3 - i - j
    face = below.min(axis=1) >= 0
    lower[face] = point_rank(below[face], n - 2)
    upper = len(down) + 3 + point_rank(x - eye[i], n - 1)  # every down or outer id is below every up id
    return DualTopology(
        ends=_frozen(np.column_stack((lower, upper))),
        faces=_frozen(np.concatenate((np.arange(len(up)) + len(down) + 3, np.arange(len(down))))),
        centroids=_frozen(np.concatenate((3 * up + 1, 3 * down + 2))),
        outer=_frozen(len(down) + np.arange(3)),
    )


@dataclass
class DualGraph:
    n: int
    topology: DualTopology
    weights: np.ndarray  # read-only weight numerator of each edge slot, over `denominator`, in w.nums' dtype
    denominator: int


def build_dual(n: int, w: WeightFunction) -> DualGraph:
    """The cached dual topology, with w's numerators in edge-slot order."""
    if w.k != 3:
        raise ValueError(f"dual machinery is specific to k = 3, got k = {w.k}")
    if w.n != n:
        raise ValueError(f"weight function is on n = {w.n}, expected {n}")
    topo = dual_topology(n)
    # `WeightFunction` admits weight only on edges, so every pair has a slot, and slot keys are sorted
    count, (u, v) = comb(n + 2, 2), edge_index(3, n)
    weights = np.zeros(len(topo.ends), w.nums.dtype)
    weights[np.searchsorted(u * count + v, w.u * count + w.v)] = w.nums
    weights.setflags(write=False)
    return DualGraph(n, topo, weights, w.denominator)


def _shortest_paths(g: DualGraph, sources: list[int]) -> list[tuple[list, list]]:
    """Exact shortest paths on `_search_graph(g.n)` from each source id:
    (dist, pred) lists by search-graph id, dist[v] the distance numerator
    over g.denominator and pred[v] = u * m + slot of the arc u -> v that
    reaches v, m the number of edge slots; None where v is not reached (and
    at the source, for pred).  One (dist, pred) pair per source, in order.
    Ties are broken by the smaller pred, so by (node, edge) order: within
    a block, ids and edge slots are in node-tuple and edge order.
    """
    indptr, head, slot = (a.tolist() for a in _search_graph(g.n))
    weights = g.weights.tolist()  # Python ints, so no distance can wrap
    m = len(weights)
    size = len(indptr) - 1
    heappop, heappush = heapq.heappop, heapq.heappush
    out = []
    for s in sources:
        dist: list[Optional[int]] = [None] * size
        pred: list[Optional[int]] = [None] * size
        done = [False] * size
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heappop(heap)
            if done[u]:
                continue
            done[u] = True
            base = u * m
            for k in range(indptr[u], indptr[u + 1]):
                v = head[k]
                if done[v]:
                    continue
                e = slot[k]
                nd = d + weights[e]
                dv = dist[v]
                if dv is None or nd < dv or (nd == dv and base + e < pred[v]):
                    dist[v] = nd
                    pred[v] = base + e
                    heappush(heap, (nd, v))
        out.append((dist, pred))
    return out


FLOAT_EXACT = 2**53  # float64 holds every integer below it exactly


def _outer_distances(g: DualGraph) -> np.ndarray:
    """Exact distances from O_0, O_1, O_2: a (3, N) array of numerators
    over g.denominator by node id, row i block i of a search of
    `_search_graph(n)` from i * N + O_i.

    When the weight numerators total less than FLOAT_EXACT, scipy's
    Dijkstra runs once from the three sources: every distance is the
    length of a path that crosses each edge at most once, so an integer
    below 2**53 that float64 holds exactly.  The diagonal blocks of the
    result are cast to int64 and checked exactly before use: every node is
    reached, each source is at 0, and the searched rows hold.  Distances
    that pass are feasible potentials, lower bounds on the true distances,
    so a wrong compiled result cannot inflate a certificate; a failure
    raises RuntimeError.  At or above FLOAT_EXACT the array is
    `_shortest_paths`'s Python ints, of object dtype.
    """
    outer = g.topology.outer.tolist()
    N = g.topology.size
    sources = [i * N + o for i, o in enumerate(outer)]
    if int(g.weights.sum()) >= FLOAT_EXACT:
        runs = _shortest_paths(g, sources)
        return np.array([dist[i * N : (i + 1) * N] for i, (dist, _) in enumerate(runs)], dtype=object)
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    indptr, head, slot = _search_graph(g.n)
    graph = csr_array((g.weights[slot].astype(np.float64), head, indptr), shape=(3 * N, 3 * N))
    dist = csgraph_dijkstra(graph, indices=sources).reshape(3, 3, N)[[0, 1, 2], [0, 1, 2]]
    if not (np.isfinite(dist).all() and (dist[[0, 1, 2], outer] == 0).all()):
        raise RuntimeError("compiled Dijkstra left a node unreached or a source off 0")
    dist = dist.astype(np.int64)
    lhs, rhs = _row_values(g.n, np.concatenate((g.weights, dist.ravel())))
    if (lhs[rhs == 0] < 0).any():  # the Lipschitz rows are the rows with rhs 0
        raise RuntimeError("compiled Dijkstra distances break a Lipschitz row")
    return dist


def dijkstra(
    g: DualGraph, source: DualNodeT
) -> tuple[dict[DualNodeT, int], dict[DualNodeT, tuple[DualNodeT, Edge]]]:
    """Exact shortest-path distances, as numerators over g.denominator,
    and predecessors (node, primal edge) from the outer node source, keyed
    by node tuples: `_shortest_paths` from one source, read through the
    node tuples.  Raises ValueError for any other source."""
    if source not in OUTER:
        raise ValueError(f"dijkstra searches from an outer node, got {source!r}")
    i = source[1]
    nodes = g.topology.nodes()
    N = len(nodes)
    ((dist, pred),) = _shortest_paths(g, [i * N + int(g.topology.outer[i])])
    m = len(g.weights)
    edges = enumerate_edges(3, g.n)
    return (
        {x: d for x, d in zip(nodes, dist[i * N :]) if d is not None},
        {x: (nodes[p // m - i * N], edges[p % m]) for x, p in zip(nodes, pred[i * N :]) if p is not None},
    )


@lru_cache(maxsize=64)
def potential_system(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The potential system on the dual of Delta_{3,n}, as read-only int32
    arrays `(col, coef, rhs)`.

    Row r means sum_t coef[r, t] * x[col[r, t]] >= rhs[r]; col and coef
    have shape (rows, 3).  Column s < m, m the number of edge slots, is the
    weight w(e) of edge slot s; column m + i * N + v, N the number of dual
    nodes, is the potential pi_i(v) of outer node O_i at node id v.  The
    rows are

      * pi_i(v) - pi_i(u) <= w(e) on every dual arc u -> v that neither
        leaves an outer node O_j, j != i, nor enters O_i (Lipschitz rows:
        paths meet the other outer nodes only at their ends, and a path
        from O_i never re-enters it); the term pi_i(O_i) = 0 of the rows
        leaving O_i has coefficient 0,
      * sum_i pi_i(F) >= 1 for every face F (ball rows),
      * pi_0(O_1) + pi_0(O_2) + pi_1(O_2) >= 1 (corner row).

    Weights w admit such potentials exactly when every ball and 3-corner
    dual path system costs at least one: shortest-path distances from O_i
    are feasible potentials, and any feasible pi_i is a lower bound on
    them, searched on the Lipschitz rows, `_search_graph(n)`.  The rows
    come in a fixed order: for each i, the Lipschitz rows of the arcs
    leaving each face (in `dual_topology(n).faces` order) and then O_i,
    each node's arcs in (head, edge) order, with terms (w(e), pi_i(v),
    pi_i(u)); then the ball rows in face order; then the corner row.
    Built once per n from the edge table `dual_topology(n).ends`.
    """
    topo = dual_topology(n)
    m, N, F = len(topo.ends), topo.size, len(topo.faces)
    # every dual arc tail -> head across a slot, by tail (the faces in face order,
    # then O_0, O_1, O_2: the inverse of that order ranks them), head and slot
    tail, head = np.concatenate((topo.ends, topo.ends[:, ::-1])).T
    slot = np.tile(np.arange(m, dtype=np.int32), 2)
    rank = np.argsort(np.append(topo.faces, topo.outer))
    order = np.lexsort((slot, head, rank[tail]))
    tail, head, slot = tail[order], head[order], slot[order]
    cols, coefs = [], []
    for i in range(3):
        source = topo.outer[i]
        arc = ((rank[tail] < F) | (tail == source)) & (head != source)
        t, h = tail[arc], head[arc]
        base = m + i * N
        cols.append(np.column_stack((slot[arc], base + h, base + t)))
        coefs.append(np.column_stack((np.ones_like(t), -np.ones_like(t), t != source)))
    o1, o2 = topo.outer[1:]  # int32, as every piece is, so nothing is built wider
    cols += [np.column_stack([m + i * N + topo.faces for i in range(3)]), [[m + o1, m + o2, m + N + o2]]]
    coefs.append(np.ones((F + 1, 3), np.int32))
    col = np.concatenate(cols)
    rhs = np.zeros(len(col), np.int32)
    rhs[-F - 1 :] = 1
    return _frozen(col), _frozen(np.concatenate(coefs)), _frozen(rhs)


@lru_cache(maxsize=64)
def _search_graph(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Lipschitz rows of `potential_system(n)` as one CSR `(indptr,
    head, slot)` over its 3N potential columns, built once per n: node
    i * N + v is pi_i(v), and the row pi_i(h) - pi_i(t) <= w(e) an arc
    t -> h across edge slot e.  A search from i * N + O_i stays in block i
    and meets the other outer nodes only at a path's end."""
    topo = dual_topology(n)
    m, N = len(topo.ends), topo.size
    col, _, rhs = potential_system(n)
    slot, head, tail = (col[rhs == 0] - [0, m, m]).T  # the terms (w(e), pi_i(h), pi_i(t))
    order = np.argsort(tail, kind="stable")
    count = np.bincount(tail, minlength=3 * N)
    return _frozen(np.concatenate(([0], np.cumsum(count)))), _frozen(head[order]), _frozen(slot[order])


PERMUTATIONS = tuple(permutations(range(3)))  # sigma sends coordinate i to sigma[i]; the identity first


@dataclass(frozen=True)
class SymmetryOrbits:
    """The six coordinate permutations acting on the columns of
    `potential_system(n)`.  Every field is a read-only integer array."""

    images: np.ndarray  # (6, columns): images[s, c] is column c's image under PERMUTATIONS[s]
    orbit: np.ndarray  # orbit id of each column, orbits numbered by their least column: edge orbits first
    size: np.ndarray  # number of columns in each orbit


@lru_cache(maxsize=64)
def symmetry_orbits(n: int) -> SymmetryOrbits:
    """The S3 orbits of `potential_system(n)`'s columns, built once per n.

    A permutation sigma maps the point x to y with y[sigma[i]] = x[i].  So
    it maps the side x_i = 0 to the side y_sigma(i) = 0, and O_i to
    O_sigma(i); a face to the face at the permuted centroid, of the same
    kind; an edge slot to the slot whose dual nodes are the images of its
    own; and the column pi_i(v) to pi_sigma(i)(sigma v).  Every Lipschitz
    row maps to a Lipschitz row and every ball row to a ball row.  The
    corner row's images are not rows of the system, but on S3-invariant
    points it reads 3 pi_0(O_1) >= 1.
    """
    topo = dual_topology(n)
    m, N = len(topo.ends), topo.size
    # a face is found by the first two numerators of its centroid
    face_at = np.zeros((3 * n + 1, 3 * n + 1), np.int32)
    face_at[topo.centroids[:, 0], topo.centroids[:, 1]] = topo.faces
    images = []
    for sigma in PERMUTATIONS:
        node = np.empty(N, np.intp)
        node[topo.outer] = topo.outer[list(sigma)]
        c = topo.centroids[:, np.argsort(sigma)]  # y = x[argsort(sigma)]
        node[topo.faces] = face_at[c[:, 0], c[:, 1]]
        slot = _find_pairs(*topo.ends.T, N, *node[topo.ends].T)
        images.append(np.concatenate((slot, m + (np.array(sigma)[:, None] * N + node).ravel())))
    images = np.stack(images)
    _, orbit = np.unique(images.min(axis=0), return_inverse=True)
    return SymmetryOrbits(images=_frozen(images), orbit=_frozen(orbit), size=_frozen(np.bincount(orbit)))


def _row_values(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A x, b) for `potential_system(n)`, in x's dtype."""
    col, coef, rhs = potential_system(n)
    # term by term, so the temporaries are one column, not all three
    return sum(k * x[j] for k, j in zip(coef.T, col.T)), rhs


def potential_numerators(i: int, num: np.ndarray, n: int) -> np.ndarray:
    """Potential of O_i at faces with the given centroid numerators (one
    row of three per face, over 3n), as numerators over 6n.

    At a face with centroid x = num / (3n), and rho = 1/(2n), it is

      * ceil(2n x_i) rho = 3 ceil(2 num_i / 3) / (6n) in the middle
        hexagon, where no num_j > 2n (no x_j > 2/3);
      * (4n/3) rho = 4n / (6n) in the corner triangle of e^i;
      * (n/3 + n (x_i - x_o)) rho = (n + num_i - num_o) / (6n) in the
        corner triangle of another e^m, o being the third index.

    Centroid numerators are 1 or 2 mod 3, so no face meets a line x_j = 2/3.
    """
    corner = num > 2 * n  # at most one corner triangle per face
    out = 3 * -(-2 * num[:, i] // 3)
    out = np.where(corner[:, i], 4 * n, out)
    for m in range(3):
        if m != i:
            o = 3 - i - m
            out = np.where(corner[:, m], n + num[:, i] - num[:, o], out)
    return out


def paper_potentials(n: int) -> np.ndarray:
    """The paper's potentials Phi, a (3, N) array of numerators over 6n
    by node id: Phi_i is `potential_numerators` at the faces, 0 at O_i,
    and the corner margin (2n/3) rho = 2n / (6n) = 1/3 at O_j, j != i, so
    the Lipschitz rows next to O_j are the corner-cut margins and the
    corner row reads 3 * 1/3 >= 1.
    """
    topo = dual_topology(n)
    phi = np.full((3, topo.size), 2 * n)
    for i in range(3):
        phi[i, topo.outer[i]] = 0
        phi[i, topo.faces] = potential_numerators(i, topo.centroids, n)
    return phi


THREEWAY = "threeway"
FAMILIES = (NONOPPOSITE, THREEWAY)


@dataclass
class Certificate:
    """Machine-checkable lower bound on the minimum cut cost of a family."""

    family: str
    pairwise: dict[tuple[int, int], Fraction]
    ball: Fraction
    witness_face: DualNodeT
    corner: Fraction
    two_corner: Fraction
    overall: Fraction
    target: Fraction
    passed: bool

    def to_obj(self) -> dict:
        return {
            "family": self.family,
            "pairwise": {f"{i},{j}": rat_to_str(v) for (i, j), v in sorted(self.pairwise.items())},
            "ball": rat_to_str(self.ball),
            "witness_face": list(self.witness_face),
            "corner": rat_to_str(self.corner),
            "two_corner": rat_to_str(self.two_corner),
            "overall": rat_to_str(self.overall),
            "target": rat_to_str(self.target),
            "pass": self.passed,
        }


def certify(n: int, w: WeightFunction, family: str, target: Fraction) -> Certificate:
    """Distance-based lower bound on the family's minimum cut cost.

    Sound because a ball cut contains three edge-disjoint dual paths from
    one face to the outer nodes, and a 3-corner (resp. 2-corner) cut
    contains three (resp. two) edge-disjoint paths among the outer nodes.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    target = Fraction(target)
    g = build_dual(n, w)
    topo = g.topology
    dist = _outer_distances(g)
    outer = topo.outer.tolist()
    pairwise = {(i, j): int(dist[i, outer[j]]) for i in range(3) for j in range(i + 1, 3)}
    sums = dist[:, topo.faces].sum(axis=0)
    f = int(np.argmin(sums))  # the first face of least distance sum, in face order
    ball = int(sums[f])
    a, b, c = topo.centroids[f].tolist()  # 3x + 1 for the up face on base x, 3x + 2 for the down face
    witness = ("U" if a % 3 == 1 else "D", a // 3, b // 3, c // 3)
    corner = sum(pairwise.values())
    two_corner = sum(sorted(pairwise.values())[:2])
    overall = min(ball, corner) if family == NONOPPOSITE else min(ball, two_corner)
    D = g.denominator
    return Certificate(
        family=family,
        pairwise={ij: Fraction(d, D) for ij, d in pairwise.items()},
        ball=Fraction(ball, D),
        witness_face=witness,
        corner=Fraction(corner, D),
        two_corner=Fraction(two_corner, D),
        overall=Fraction(overall, D),
        target=target,
        passed=overall >= target * D,
    )


INT64_TERMS = 2**60  # three terms of absolute value below it sum inside int64


@dataclass
class PotentialReport:
    ok: bool
    violation: Optional[tuple] = None  # (row, exact row value, rhs)


def check_potentials(n: int, w: WeightFunction) -> PotentialReport:
    """Evaluate `potential_system(n)` exactly on w and `paper_potentials(n)`.

    Every value is a multiple of 1/L, L = lcm(D, 6n) and D = w.denominator,
    so the check is A x >= b L on x, the edge weights and then the
    potentials as numerators over L.  They are int64
    when L and every entry of x are below INT64_TERMS, so that a row's
    three terms cannot overflow, and Python ints (object dtype) otherwise.
    The first violated row is reported by name: it maps each nonzero
    term's variable, in term order, to its coefficient, a primal edge e
    standing for its weight w(e) and a pair (i, v) for the potential pi_i
    at dual node v.
    """
    g = build_dual(n, w)
    D = g.denominator
    L = lcm(D, 6 * n)
    wscale, phiscale = L // D, L // (6 * n)
    phi = paper_potentials(n).ravel()
    small = max(int(g.weights.max(initial=0)) * wscale, int(phi.max()) * phiscale, L) < INT64_TERMS
    dtype = np.int64 if small else object
    x = np.concatenate((g.weights.astype(dtype) * wscale, phi.astype(dtype) * phiscale))
    lhs, rhs = _row_values(n, x)
    violated = np.flatnonzero(lhs < rhs.astype(dtype) * L)
    if not violated.size:
        return PotentialReport(True)
    r = int(violated[0])
    col, coef, _ = potential_system(n)
    nodes, edges, m = g.topology.nodes(), enumerate_edges(3, n), len(g.weights)
    row = {}
    for j, q in zip(col[r].tolist(), coef[r].tolist()):
        if q:
            i, v = divmod(j - m, len(nodes))
            row[edges[j] if j < m else (i, nodes[v])] = q
    return PotentialReport(False, (row, Fraction(int(lhs[r]), L), int(rhs[r])))


# ---------------------------------------------------------------------------
# Normalization of non-opposite cuts to ball / 3-corner form
# ---------------------------------------------------------------------------


class NormalizationError(RuntimeError):
    """No legal relabeling exists; signals an implementation bug."""


ALL_SIDES = 0b111


def _components(lab: list[int], n: int) -> tuple[list[int], dict[int, list[int]], dict[int, int]]:
    """Connected components of Delta_{3,n}'s grid graph minus the cut
    edges, by union-find over `edge_index(3, n)`.

    Returns root, the smallest point index of each point's component;
    the members of each component, ascending, keyed by root in ascending
    order (so in lex order of their first points); and the sides each
    component touches, as a `point_sides` bitmask.
    """
    root = list(range(len(lab)))
    for u, v in zip(*edge_index(3, n).tolist()):
        if lab[u] != lab[v]:
            continue
        # path halving; every link points to a smaller index
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u < v:
            root[v] = u
        elif v < u:
            root[u] = v
    comps: dict[int, list[int]] = {}
    sides: dict[int, int] = {}
    for x, (r, z) in enumerate(zip(root, point_sides(3, n).tolist())):
        r = root[x] = root[r]  # root[r] is final already, as r <= x
        if r == x:
            comps[x] = [x]
            sides[x] = z
        else:
            comps[r].append(x)
            sides[r] |= z
    return root, comps, sides


def normalize_cut(P: Cut, w: Optional[WeightFunction] = None) -> Cut:
    """Reduce a non-opposite cut to a ball or 3-corner cut, never cutting
    a previously uncut edge (hence never increasing the cost).

    Two rules run to fixpoint: extra-cluster components not touching all
    three sides are folded into a legal terminal cluster, and components
    carrying label i but missing terminal e^i adopt a neighboring
    component's label.  Ties always go to the smallest legal label.  A
    label l < 3 is legal for a component when no member lies on the side
    x_l = 0; the extra label EXTRA always is.
    """
    if P.family != NONOPPOSITE:
        raise ValueError("normalize_cut expects a non-opposite cut")
    n = P.n
    points = enumerate_points(3, n)
    terminals = terminal_ranks(3, n).tolist()
    lab = P.label_array.tolist()
    adj: list[list[int]] = [[] for _ in lab]
    for u, v in zip(*edge_index(3, n).tolist()):
        adj[u].append(v)
        adj[v].append(u)
    root, comps, sides = _components(lab, n)

    def relabel(r: int, m: int) -> None:
        """Give r's component label m and merge it with the components of
        label m next to it, as `_components` would find them: the smallest
        root survives, its members gain the others' (unsorted), and the
        sides are OR'd together."""
        comp = comps[r]
        for x in comp:
            lab[x] = m
        joined = {r}.union(root[y] for x in comp for y in adj[x] if lab[y] == m)
        new = min(joined)
        joined.discard(new)
        for q in joined:
            members = comps.pop(q)
            for x in members:
                root[x] = new
            comps[new] += members
            sides[new] |= sides.pop(q)

    while True:
        # rule (a): fold extra-cluster components not reaching all sides.
        # Folding one never changes another extra component, so one pass
        # over the components found before it suffices.
        for r in list(comps):
            if lab[r] != EXTRA or sides[r] == ALL_SIDES:
                continue
            relabel(r, next(l for l in range(3) if not sides[r] >> l & 1))
        # rule (b): a component missing its terminal adopts a neighbor's label.
        # Process the first violating component that has a legal neighbor
        # label; a violator can be temporarily stuck until another one is
        # folded first, so only raise when every violator is stuck.
        move = None
        stuck = []
        for r in comps:
            l = lab[r]
            if l == EXTRA or root[terminals[l]] == r:
                continue
            near = 0  # bit m: a member has a neighbour of label m
            for x in comps[r]:
                for y in adj[x]:
                    near |= 1 << lab[y]
            legal = near & ~(1 << l) & ~sides[r]
            if not legal:
                stuck.append(points[r])
                continue
            move = r, (legal & -legal).bit_length() - 1  # the smallest legal label
            break
        if move is None:
            if stuck:
                raise NormalizationError(f"no legal neighbor label for components at {stuck}")
            break
        relabel(*move)

    out = Cut.from_array(3, n, lab, NONOPPOSITE)
    if w is not None and cost(out, w) > cost(P, w):
        raise NormalizationError("normalization increased the cost")
    return out


def classify_cut(P: Cut) -> Optional[str]:
    """"ball" / "3corner" if every cluster is connected (with its terminal,
    and the extra cluster touching all three sides); None otherwise."""
    if P.k != 3:
        raise ValueError(f"dual machinery is specific to k = 3, got k = {P.k}")
    lab = P.label_array.tolist()
    _, comps, sides = _components(lab, P.n)
    by_label: dict[int, list[int]] = {}
    for r in comps:
        by_label.setdefault(lab[r], []).append(r)
    # a cut pins terminal i to label i, so a lone component of label i holds it
    if any(len(by_label.get(i, [])) != 1 for i in range(3)):
        return None
    extra = by_label.get(EXTRA, [])
    if not extra:
        return "ball"
    if len(extra) == 1 and sides[extra[0]] == ALL_SIDES:
        return "3corner"
    return None


def uncut_edges(P: Cut) -> set[Edge]:
    """The edges of Delta_{3,n} whose endpoints share a label under P."""
    if P.k != 3:
        raise ValueError(f"dual machinery is specific to k = 3, got k = {P.k}")
    u, v = P.label_array[edge_index(3, P.n)]  # each edge's two endpoint labels
    edges = enumerate_edges(3, P.n)
    return {edges[s] for s in np.flatnonzero(u == v).tolist()}


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

BRUTE_MAX_POINTS = 15


def brute_force_min_cut(n: int, w: WeightFunction, family: str) -> tuple[Fraction, Cut]:
    """Exact minimum cut cost over the family by pruned exhaustive search.

    Only for tiny grids (at most 15 points, i.e. n <= 4 on the triangle).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if w.k != 3:
        raise ValueError(f"brute force is specific to k = 3, got k = {w.k}")
    if w.n != n:
        raise ValueError(f"weight function is on n = {w.n}, expected {n}")
    if (count := comb(n + 2, 2)) > BRUTE_MAX_POINTS:
        raise ValueError(f"{count} points exceed the exhaustive bound {BRUTE_MAX_POINTS}")
    # edges to already-assigned points, per point: a canonical edge has u < v
    back_edges: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    for i, j, num in zip(w.u.tolist(), w.v.tolist(), w.nums.tolist()):
        back_edges[j].append((i, num))

    sides = point_sides(3, n).tolist()
    choices = [nonopposite_labels(s) if family == NONOPPOSITE else [0, 1, 2] for s in sides]
    for i, t in enumerate(terminal_ranks(3, n).tolist()):
        choices[t] = [i]

    best_cost: Optional[int] = None
    best_labels: Optional[list[int]] = None
    assigned: list[int] = []

    def dfs(i: int, running: int) -> None:
        nonlocal best_cost, best_labels
        if best_cost is not None and running >= best_cost:
            return
        if i == count:
            best_cost, best_labels = running, assigned.copy()
            return
        for c in choices[i]:
            extra = 0
            for j, val in back_edges[i]:
                if assigned[j] != c:
                    extra += val
            assigned.append(c)
            dfs(i + 1, running + extra)
            assigned.pop()

    dfs(0, 0)
    assert best_cost is not None and best_labels is not None
    fam = NONOPPOSITE if family == NONOPPOSITE else KWAY
    return Fraction(best_cost, w.denominator), Cut.from_array(3, n, best_labels, fam)
