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
cut costs.  `potential_rows` states that bound as one linear system,
which `lpsearch` solves and `check_potentials` evaluates on the paper's
potentials; a brute-force enumerator provides an oracle at tiny n.
Inside, weights are the integer numerators of `WeightFunction.integer_form()`
over its one denominator; only returned values are `Fraction`s.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .core import (
    KWAY,
    NONOPPOSITE,
    Cut,
    Edge,
    Point,
    WeightFunction,
    canonical_edge,
    cost,
    enumerate_edges,
    enumerate_points,
    neighbors,
    support,
    terminal,
)

# Dual node encodings: ("O", i) for outer nodes, ("U"/"D", a, b, c) for
# upward/downward faces with base coordinates a+b+c = n-1 / n-2.
DualNodeT = tuple

OUTER = tuple(("O", i) for i in range(3))


def face_vertices(node: DualNodeT) -> tuple[Point, Point, Point]:
    kind, a, b, c = node
    if kind == "U":
        return ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1))
    return ((a, b + 1, c + 1), (a + 1, b, c + 1), (a + 1, b + 1, c))


def face_centroid_numerators(node: DualNodeT) -> tuple[int, int, int]:
    """Centroid coordinates as numerators over 3n."""
    kind, a, b, c = node
    off = 1 if kind == "U" else 2
    return (3 * a + off, 3 * b + off, 3 * c + off)


def face_centroid(node: DualNodeT, n: int) -> tuple[Fraction, Fraction, Fraction]:
    nums = face_centroid_numerators(node)
    return tuple(Fraction(v, 3 * n) for v in nums)


def enumerate_faces(n: int) -> list[DualNodeT]:
    faces: list[DualNodeT] = []
    for a in range(n):
        for b in range(n - a):
            faces.append(("U", a, b, n - 1 - a - b))
    for a in range(n - 1):
        for b in range(n - 1 - a):
            faces.append(("D", a, b, n - 2 - a - b))
    return faces


@dataclass
class DualGraph:
    n: int
    # adjacency: node -> sorted list of (neighbor, weight numerator, primal edge)
    adj: dict[DualNodeT, list[tuple[DualNodeT, int, Edge]]]
    faces: list[DualNodeT]
    denominator: int  # arc weights are numerators over this


def build_dual(n: int, w: WeightFunction) -> DualGraph:
    """Dual of the augmented triangle grid; arcs carry w's integer_form() numerators."""
    if w.k != 3:
        raise ValueError(f"dual machinery is specific to k = 3, got k = {w.k}")
    if w.n != n:
        raise ValueError(f"weight function is on n = {w.n}, expected {n}")
    D, _, _, nums = w.integer_form()
    num = dict(zip(w.weights, nums))
    faces = enumerate_faces(n)
    incident: dict[Edge, list[DualNodeT]] = {}
    for f in faces:
        vs = face_vertices(f)
        for i in range(3):
            e = canonical_edge(vs[i], vs[(i + 1) % 3])
            incident.setdefault(e, []).append(f)

    adj: dict[DualNodeT, list] = {f: [] for f in faces}
    for o in OUTER:
        adj[o] = []
    for x, y in enumerate_edges(3, n):
        e = (x, y)
        fs = incident[e]
        wt = num.get(e, 0)
        if len(fs) == 2:
            u, v = fs
        else:
            (u,) = fs
            # boundary edge: both endpoints have some coordinate zero
            (c,) = (i for i in range(3) if x[i] == 0 and y[i] == 0)
            v = ("O", c)
        adj[u].append((v, wt, e))
        adj[v].append((u, wt, e))
    for lst in adj.values():
        lst.sort(key=lambda t: (t[0], t[2]))
    return DualGraph(n, adj, faces, D)


def dijkstra(
    g: DualGraph, source: DualNodeT
) -> tuple[dict[DualNodeT, int], dict[DualNodeT, tuple[DualNodeT, Edge]]]:
    """Exact shortest-path distances, as numerators over g.denominator,
    and predecessors from source.

    Outer nodes other than the source may end a path but are never
    traversed: the paths forming a cut meet outer nodes only at their
    endpoints.  Ties are broken by node order, so the predecessors are
    reproducible.
    """
    dist: dict[DualNodeT, int] = {source: 0}
    pred: dict[DualNodeT, tuple[DualNodeT, Edge]] = {}
    heap: list[tuple[int, DualNodeT]] = [(0, source)]
    done: set[DualNodeT] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u[0] == "O" and u != source:
            continue
        for v, wt, e in g.adj[u]:
            nd = d + wt
            if v not in done and (v not in dist or nd < dist[v] or (nd == dist[v] and (u, e) < pred[v])):
                dist[v] = nd
                pred[v] = (u, e)
                heapq.heappush(heap, (nd, v))
    return dist, pred


def dual_distance(g: DualGraph, s: DualNodeT, t: DualNodeT) -> Fraction:
    return Fraction(dijkstra(g, s)[0][t], g.denominator)


def potential_rows(g: DualGraph) -> Iterator[tuple[dict[Hashable, int], int]]:
    """The potential system on g, one row at a time.

    Each `(row, rhs)` means sum(coef * var for var, coef in row.items())
    >= rhs, with integer coefficients.  A variable is a primal edge e,
    standing for its weight w(e), or a pair (i, v), standing for the
    potential pi_i(v) of outer node O_i at dual node v; pi_i(O_i) = 0 is
    left out.  The rows are

      * pi_i(v) - pi_i(u) <= w(e) on every dual arc u -> v that neither
        leaves an outer node O_j, j != i, nor enters O_i (Lipschitz rows:
        paths meet the other outer nodes only at their ends, and a path
        from O_i never re-enters it),
      * sum_i pi_i(F) >= 1 for every face F (ball rows),
      * pi_0(O_1) + pi_0(O_2) + pi_1(O_2) >= 1 (corner row).

    Weights w admit such potentials exactly when every ball and 3-corner
    dual path system costs at least one: shortest-path distances from O_i
    are feasible potentials, and any feasible pi_i is a lower bound on
    them.  Rows are yielded in a fixed order.
    """
    for i, source in enumerate(OUTER):
        for u, arcs in g.adj.items():
            if u[0] == "O" and u != source:
                continue
            for v, _, e in arcs:
                if v == source:
                    continue
                row = {e: 1, (i, v): -1}
                if u != source:
                    row[(i, u)] = 1
                yield row, 0
    for f in g.faces:
        yield {(i, f): 1 for i in range(3)}, 1
    yield {(0, OUTER[1]): 1, (0, OUTER[2]): 1, (1, OUTER[2]): 1}, 1


def potential(i: int, node: DualNodeT, n: int) -> Fraction:
    """Potential of O_i at a dual node (a face or O_i itself).

    At a face with centroid x = num / (3n), and rho = 1/(2n), it is

      * ceil(2n x_i) rho = ceil(2 num_i / 3) / (2n) in the middle hexagon,
        where no num_j > 2n (no x_j > 2/3);
      * (4n/3) rho = 2/3 in the corner triangle of e^i;
      * (n/3 + n (x_i - x_o)) rho = (n + num_i - num_o) / (6n) in the
        corner triangle of another e^m, o being the third index.

    Centroid numerators are 1 or 2 mod 3, so no face meets a line x_j = 2/3.
    """
    if node == ("O", i):
        return Fraction(0)
    if node[0] == "O":
        raise ValueError(f"potential of O_{i} is undefined at {node}")
    num = face_centroid_numerators(node)
    region = [j for j in range(3) if num[j] > 2 * n]
    if not region:  # middle hexagon
        return Fraction(-(-2 * num[i] // 3), 2 * n)
    (m,) = region
    if m == i:
        return Fraction(2, 3)
    (o,) = (j for j in range(3) if j not in (i, m))
    return Fraction(n + num[i] - num[o], 6 * n)


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
        from .serialize import rat_to_str

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
    dists = [dijkstra(g, o)[0] for o in OUTER]
    pairwise = {(i, j): dists[i][("O", j)] for i in range(3) for j in range(i + 1, 3)}
    d0, d1, d2 = dists
    # the first face of least distance sum, in face order
    ball, witness = min(((d0[f] + d1[f] + d2[f], f) for f in g.faces), key=lambda t: t[0])
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


@dataclass
class PotentialReport:
    ok: bool
    violation: Optional[tuple] = None  # (row, exact row value, rhs)


def check_potentials(n: int, w: WeightFunction) -> PotentialReport:
    """Evaluate `potential_rows` exactly on w and the paper's potentials.

    Phi_i is `potential(i, ., n)` on faces and the corner margin
    (2n/3) rho = 1/3 at O_j, j != i, so the Lipschitz rows next to O_j
    are the corner-cut margins and the corner row reads 3 * 1/3 >= 1.
    Every potential value has a denominator dividing 6n, so rows are
    summed in integers over L = lcm(D, 6n), D the denominator of
    `w.integer_form()`; the first violated row is reported.
    """
    g = build_dual(n, w)
    D, _, _, nums = w.integer_form()
    L = lcm(D, 6 * n)
    value: dict[Hashable, int] = {e: q * (L // D) for e, q in zip(w.weights, nums)}
    for i, source in enumerate(OUTER):
        value.update({(i, f): int(potential(i, f, n) * L) for f in g.faces})
        value.update({(i, o): L // 3 for o in OUTER if o != source})
    for row, rhs in potential_rows(g):
        lhs = sum(coef * value.get(var, 0) for var, coef in row.items())
        if lhs < rhs * L:
            return PotentialReport(False, (row, Fraction(lhs, L), rhs))
    return PotentialReport(True)


# ---------------------------------------------------------------------------
# Normalization of non-opposite cuts to ball / 3-corner form
# ---------------------------------------------------------------------------


class NormalizationError(RuntimeError):
    """No legal relabeling exists; signals an implementation bug."""


def _components(n: int, labels: dict[Point, int], points: list[Point]) -> list[list[Point]]:
    """Connected components of the grid graph minus cut edges, lex-sorted."""
    seen: set[Point] = set()
    comps = []
    for p in points:
        if p in seen:
            continue
        comp = [p]
        seen.add(p)
        stack = [p]
        while stack:
            x = stack.pop()
            for y in neighbors(x):
                if y not in seen and labels[y] == labels[x]:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def _touched_sides(comp: list[Point]) -> set[int]:
    return {i for x in comp for i in range(3) if x[i] == 0}


def _legal(label: int, comp: list[Point]) -> bool:
    return label == 3 or all(label in support(x) for x in comp)


def normalize_cut(P: Cut, w: Optional[WeightFunction] = None) -> Cut:
    """Reduce a non-opposite cut to a ball or 3-corner cut, never cutting
    a previously uncut edge (hence never increasing the cost).

    Two rules run to fixpoint: extra-cluster components not touching all
    three sides are folded into a legal terminal cluster, and components
    carrying label i but missing terminal e^i adopt a neighboring
    component's label.  Ties always go to the smallest legal label.
    """
    if P.family != NONOPPOSITE:
        raise ValueError("normalize_cut expects a non-opposite cut")
    n = P.n
    points = enumerate_points(3, n)
    labels = dict(P.labels)
    terminals = {i: terminal(i, 3, n) for i in range(3)}

    while True:
        comps = _components(n, labels, points)
        changed = False
        # rule (a): fold extra-cluster components not reaching all sides
        for comp in comps:
            if labels[comp[0]] != 3 or _touched_sides(comp) == {0, 1, 2}:
                continue
            candidates = [l for l in range(3) if _legal(l, comp)]
            if not candidates:
                raise NormalizationError(f"no legal label for extra component at {comp[0]}")
            for x in comp:
                labels[x] = candidates[0]
            changed = True
        if changed:
            continue
        # rule (b): a component missing its terminal adopts a neighbor's label.
        # Process the first violating component that has a legal neighbor
        # label; a violator can be temporarily stuck until another one is
        # folded first, so only raise when every violator is stuck.
        applied = False
        stuck = []
        for comp in comps:
            l = labels[comp[0]]
            if l == 3 or terminals[l] in comp:
                continue
            in_comp = set(comp)
            nbr_labels = sorted(
                {labels[y] for x in comp for y in neighbors(x) if y not in in_comp}
            )
            legal = [m for m in nbr_labels if m != l and _legal(m, comp)]
            if not legal:
                stuck.append(comp[0])
                continue
            for x in comp:
                labels[x] = legal[0]
            applied = True
            break  # components changed; recompute
        if not applied:
            if stuck:
                raise NormalizationError(f"no legal neighbor label for components at {stuck}")
            break

    out = Cut(3, n, labels, NONOPPOSITE)
    if w is not None and cost(out, w) > cost(P, w):
        raise NormalizationError("normalization increased the cost")
    return out


def classify_cut(P: Cut) -> Optional[str]:
    """"ball" / "3corner" if every cluster is connected (with its terminal,
    and the extra cluster touching all three sides); None otherwise."""
    n = P.n
    points = enumerate_points(3, P.n)
    comps = _components(n, P.labels, points)
    by_label: dict[int, list[list[Point]]] = {}
    for comp in comps:
        by_label.setdefault(P.labels[comp[0]], []).append(comp)
    for i in range(3):
        if len(by_label.get(i, [])) != 1 or terminal(i, 3, n) not in by_label[i][0]:
            return None
    extra = by_label.get(3, [])
    if not extra:
        return "ball"
    if len(extra) == 1 and _touched_sides(extra[0]) == {0, 1, 2}:
        return "3corner"
    return None


def uncut_edges(P: Cut) -> set[Edge]:
    return {
        (x, y)
        for x, y in enumerate_edges(P.k, P.n)
        if P.labels[x] == P.labels[y]
    }


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
    points = enumerate_points(3, n)
    if len(points) > BRUTE_MAX_POINTS:
        raise ValueError(f"{len(points)} points exceed the exhaustive bound {BRUTE_MAX_POINTS}")
    D, u, v, nums = w.integer_form()
    # edges to already-assigned (lower-index) points, per point
    back_edges: list[list[tuple[int, int]]] = [[] for _ in points]
    for i, j, num in zip(u.tolist(), v.tolist(), nums):
        if i > j:
            i, j = j, i
        back_edges[j].append((i, num))

    choices: list[list[int]] = []
    for p in points:
        if max(p) == n:
            choices.append([p.index(n)])
        elif family == NONOPPOSITE:
            choices.append(sorted(support(p)) + [3])
        else:
            choices.append([0, 1, 2])

    best_cost: Optional[int] = None
    best_labels: Optional[list[int]] = None
    assigned: list[int] = []

    def dfs(i: int, running: int) -> None:
        nonlocal best_cost, best_labels
        if best_cost is not None and running >= best_cost:
            return
        if i == len(points):
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
    labels = {p: best_labels[i] for i, p in enumerate(points)}
    fam = NONOPPOSITE if family == NONOPPOSITE else KWAY
    return Fraction(best_cost, D), Cut(3, n, labels, fam)
