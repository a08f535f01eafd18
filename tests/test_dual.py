"""Planar dual graph, certificates, potentials, normalization, brute force."""

import hashlib
import heapq
import itertools
import random
import re
from dataclasses import fields
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwgap import core
from mwgap import dual as dual_module
from mwgap.core import (
    NONOPPOSITE,
    Cut,
    WeightFunction,
    canonical_edge,
    cost,
    edge_index,
    enumerate_edges,
    enumerate_points,
    point_sides,
    random_kway_cut,
    random_nonopposite_cut,
    support,
    terminal,
)
from mwgap.dual import (
    OUTER,
    PERMUTATIONS,
    THREEWAY,
    Certificate,
    NormalizationError,
    brute_force_min_cut,
    build_dual,
    certify,
    check_potentials,
    classify_cut,
    dijkstra,
    dual_topology,
    normalize_cut,
    paper_potentials,
    potential_system,
    symmetry_orbits,
    uncut_edges,
)
from mwgap.lpsearch import search
from mwgap.svg import emit_svg
from mwgap.weights import build_fk, build_w3


def face_vertices(node):
    """Reference: a face's three corners, from its node tuple."""
    kind, a, b, c = node
    if kind == "U":
        return ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1))
    return ((a, b + 1, c + 1), (a + 1, b, c + 1), (a + 1, b + 1, c))


def enumerate_faces(n):
    """Reference: the face tuples, the up faces and then the down faces, each in tuple order."""
    faces = []
    for a in range(n):
        for b in range(n - a):
            faces.append(("U", a, b, n - 1 - a - b))
    for a in range(n - 1):
        for b in range(n - 1 - a):
            faces.append(("D", a, b, n - 2 - a - b))
    return faces


def oracle_build_dual(n, w):
    """Reference: the dual as a dict adjacency, node -> sorted list of
    (neighbor, weight numerator over D, primal edge), from faces and their
    incident edges."""
    D = lcm(*(q.denominator for q in w.weights.values()))
    num = {e: int(q * D) for e, q in w.weights.items()}
    faces = enumerate_faces(n)
    incident = {}
    for f in faces:
        vs = face_vertices(f)
        for i in range(3):
            incident.setdefault(canonical_edge(vs[i], vs[(i + 1) % 3]), []).append(f)
    adj = {f: [] for f in faces}
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
    return SimpleNamespace(n=n, adj=adj, faces=faces, denominator=D)


def oracle_potential_rows(g):
    """Reference: the potential system read off the dict adjacency."""
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


def named_rows(n):
    """`potential_system(n)` read by name, one `(row, rhs)` at a time: a
    row maps the variable of each nonzero term, in term order, to its
    coefficient, a primal edge e for its weight w(e) or a pair (i, v) for
    the potential pi_i at dual node v."""
    nodes = dual_topology(n).nodes()
    names = [*enumerate_edges(3, n), *((i, v) for i in range(3) for v in nodes)]
    col, coef, rhs = potential_system(n)
    for c, k, b in zip(col.tolist(), coef.tolist(), rhs.tolist()):
        yield {names[j]: q for j, q in zip(c, k) if q}, b


def oracle_potential(i, node, n):
    """Reference: Phi_i at a face, region by region, in `Fraction`s."""
    num = [sum(x) for x in zip(*face_vertices(node))]  # the centroid, over 3n
    region = [j for j in range(3) if num[j] > 2 * n]
    if not region:  # middle hexagon
        return Fraction(-(-2 * num[i] // 3), 2 * n)
    (m,) = region
    if m == i:
        return Fraction(2, 3)
    (o,) = (j for j in range(3) if j not in (i, m))
    return Fraction(n + num[i] - num[o], 6 * n)


def oracle_dijkstra(g, w, source):
    """Reference: exact Dijkstra in `Fraction`s, arc weights read through `w.get`."""
    dist = {source: Fraction(0)}
    pred = {}
    heap = [(Fraction(0), source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u[0] == "O" and u != source:
            continue
        for v, _, e in g.adj[u]:
            nd = d + w.get(*e)
            if v not in dist or nd < dist[v] or (nd == dist[v] and (u, e) < pred.get(v, ((), ()))):
                if v not in done:
                    dist[v] = nd
                    pred[v] = (u, e)
                    heapq.heappush(heap, (nd, v))
    return dist, pred


def _past_int64_instances():
    """Triangle weights whose numerators over the common denominator pass 2**63.

    The first instance lists its edges in reverse order, so the integer
    form's order is not the sorted edge order.
    """
    edges = enumerate_edges(3, 3)
    primes = [p for p in range(101, 400) if all(p % q for q in range(2, 20))][: len(edges)]
    yield WeightFunction(3, 3, {e: Fraction(p - 1, p) for e, p in zip(reversed(edges), primes)})
    yield WeightFunction(3, 6, {e: Fraction(2**62 + j) for j, e in enumerate(enumerate_edges(3, 6))})


def _oracle_cases():
    """w3 at n = 3..18, fk, `search(3..5)` weights and the past-int64 instances."""
    cases = [build_w3(n) for n in range(3, 19, 3)] + [build_fk()]
    for n in range(3, 6):
        w = search(n).weights
        # the rescaled weights, and the float-derived ones the LP hands to certify
        cases += [w, WeightFunction(3, n, {e: Fraction(float(v)) for e, v in w.weights.items()})]
    return cases + list(_past_int64_instances())


def test_dijkstra_matches_fraction_oracle():
    big = list(_past_int64_instances())
    for w in _oracle_cases():
        g = build_dual(w.n, w)
        og = oracle_build_dual(w.n, w)
        for source in OUTER:
            dist, pred = dijkstra(g, source)
            want_dist, want_pred = oracle_dijkstra(og, w, source)
            assert dist.keys() == want_dist.keys() == og.adj.keys()
            assert all(Fraction(d, g.denominator) == want_dist[v] for v, d in dist.items())
            assert pred == want_pred
    for w in big:
        g = build_dual(w.n, w)
        assert max(dijkstra(g, OUTER[0])[0].values()) > 2**63


def test_dijkstra_pred_matches_oracle_from_every_source():
    cases = [build_w3(n) for n in range(3, 19, 3)] + [build_fk()]
    cases += [search(n).weights for n in range(3, 6)] + list(_past_int64_instances())
    for w in cases:
        g = build_dual(w.n, w)
        og = oracle_build_dual(w.n, w)
        for source in OUTER:
            dist, pred = dijkstra(g, source)
            want_dist, want_pred = oracle_dijkstra(og, w, source)
            assert {v: Fraction(d, g.denominator) for v, d in dist.items()} == want_dist
            assert pred == want_pred


def _topology_arcs(n):
    """The cached topology as node tuple -> [(neighbor, edge)], in id
    order, each node's arcs sorted by (neighbor id, slot)."""
    topo = dual_topology(n)
    nodes = topo.nodes()
    edges = enumerate_edges(3, n)
    arcs = {u: [] for u in range(topo.size)}
    for s, (u, v) in enumerate(topo.ends.tolist()):
        arcs[u].append((v, s))
        arcs[v].append((u, s))
    return {nodes[u]: [(nodes[v], edges[s]) for v, s in sorted(lst)] for u, lst in arcs.items()}


def test_topology_matches_oracle_adjacency():
    for n in range(1, 13):
        topo = dual_topology(n)
        og = oracle_build_dual(n, WeightFunction(3, n, {}))
        arcs = _topology_arcs(n)
        # ids are in sorted node-tuple order, and each node's arcs, the
        # outer nodes' included, in the oracle's order
        assert list(arcs) == sorted(og.adj)
        assert arcs == {u: [(v, e) for v, _, e in lst] for u, lst in og.adj.items()}
        assert (topo.ends[:, 0] < topo.ends[:, 1]).all()  # each slot's two nodes, ascending
        # edge keys: slot s joins the endpoints of enumerate_edges' s-th edge
        points = enumerate_points(3, n)
        assert tuple((points[u], points[v]) for u, v in zip(*edge_index(3, n))) == enumerate_edges(3, n)
        assert point_sides(3, n).tolist() == [sum(1 << i for i in range(3) if x[i] == 0) for x in points]
        nodes = topo.nodes()
        assert [nodes[f] for f in topo.faces] == og.faces
        assert [nodes[o] for o in topo.outer] == list(OUTER)
        # centroid numerators over 3n: 3 * base + 1 on up faces, + 2 on down faces
        assert topo.centroids.tolist() == [[3 * x + (1 if f[0] == "U" else 2) for x in f[1:]] for f in og.faces]


def test_potential_rows_match_oracle():
    for n in range(1, 13):
        rows = list(named_rows(n))
        want = list(oracle_potential_rows(oracle_build_dual(n, WeightFunction(3, n, {}))))
        # the same dicts, in the same order and with the same key order (the LP's columns)
        assert [(list(row.items()), rhs) for row, rhs in rows] == [(list(row.items()), rhs) for row, rhs in want]


def test_potential_system_holds_three_terms_per_row():
    for n in (1, 3, 6):
        topo = dual_topology(n)
        m, N = len(topo.ends), topo.size
        col, coef, rhs = potential_system(n)
        assert col.shape == coef.shape == (len(list(named_rows(n))), 3) and rhs.shape == col.shape[:1]
        for a in (col, coef, rhs):
            assert a.dtype == np.int32 and not a.flags.writeable
        # a zero coefficient marks pi_i(O_i), in the Lipschitz rows leaving O_i
        i, v = np.divmod(col[coef == 0] - m, N)
        assert len(i) == 3 * n and (v == topo.outer[i]).all()


def test_search_graph_matches_oracle_arcs():
    for n in range(1, 13):
        nodes = dual_topology(n).nodes()
        edges = enumerate_edges(3, n)
        N = len(nodes)
        indptr, head, slot = dual_module._search_graph(n)
        assert len(indptr) == 3 * N + 1
        # every arc stays in the block of its tail
        assert (head // N == np.repeat(np.arange(3 * N), np.diff(indptr)) // N).all()
        og = oracle_build_dual(n, WeightFunction(3, n, {}))
        for i, source in enumerate(OUTER):
            # block i: the dual arcs that neither leave O_j, j != i, nor enter O_i
            want = {
                u: [(v, e) for v, _, e in arcs if v != source] if u[0] != "O" or u == source else []
                for u, arcs in og.adj.items()
            }
            got = {}
            for u, x in enumerate(nodes):
                lo, hi = indptr[i * N + u], indptr[i * N + u + 1]
                got[x] = [(nodes[h - i * N], edges[s]) for h, s in zip(head[lo:hi].tolist(), slot[lo:hi].tolist())]
            assert got == want


def _permuted(sigma, x):
    """The point y with y[sigma[i]] = x[i]."""
    y = [0, 0, 0]
    for i, v in zip(sigma, x):
        y[i] = v
    return tuple(y)


def _row_set(col, coef, rhs):
    """Rows as sets of (column, coefficient) terms: a permuted ball row
    lists its three potentials in another order."""
    return {(frozenset(zip(c, k)), b) for c, k, b in zip(col.tolist(), coef.tolist(), rhs.tolist())}


def test_symmetry_orbits_permute_the_potential_system():
    for n in range(1, 13):
        topo = dual_topology(n)
        orbits = symmetry_orbits(n)
        m, N = len(topo.ends), topo.size
        edges = enumerate_edges(3, n)
        slot = {e: s for s, e in enumerate(edges)}
        nodes = topo.nodes()
        col, coef, rhs = potential_system(n)
        assert orbits.images.shape == (6, m + 3 * N)
        for sigma, image in zip(PERMUTATIONS, orbits.images.tolist()):
            assert sorted(image) == list(range(m + 3 * N))  # a bijection of the columns
            # an edge goes to the canonical edge of its permuted endpoints
            assert image[:m] == [slot[canonical_edge(_permuted(sigma, x), _permuted(sigma, y))] for x, y in edges]
            # a face goes to the face of its kind at the permuted base, O_i to O_sigma(i), pi_i to pi_sigma(i)
            want = [("O", sigma[x[1]]) if x[0] == "O" else (x[0], *_permuted(sigma, x[1:])) for x in nodes]
            for i in range(3):
                block = image[m + i * N : m + (i + 1) * N]
                assert [nodes[c - m - sigma[i] * N] for c in block] == want
            # the Lipschitz and ball rows, all but the corner row, map onto themselves
            image = np.array(image)
            assert _row_set(image[col[:-1]], coef[:-1], rhs[:-1]) == _row_set(col[:-1], coef[:-1], rhs[:-1])
        # orbit ids: the columns one column maps to, numbered by least column
        for c, images in enumerate(orbits.images.T.tolist()):
            o = orbits.orbit[c]
            assert set(orbits.orbit[images].tolist()) == {o} and len(set(images)) == orbits.size[o]
        first = np.unique(orbits.orbit, return_index=True)[1]
        assert (np.diff(first) > 0).all() and orbits.size.sum() == m + 3 * N
        assert orbits.orbit[:m].max() < orbits.orbit[m:].min()
        for a in (orbits.images, orbits.orbit, orbits.size):
            assert a.dtype.kind == "i" and not a.flags.writeable


def test_symmetry_orbits_stay_bijective_past_int32_keys():
    # N = 67,603 dual nodes at n = 260, so a node-pair key id * N + id passes 2**31
    n = 260
    topo = dual_topology(n)
    assert (topo.size - 1) * topo.size > 2**31
    orbits = symmetry_orbits(n)
    columns = len(topo.ends) + 3 * topo.size
    assert orbits.images.shape == (6, columns)
    assert (np.sort(orbits.images, axis=1) == np.arange(columns)).all()
    assert orbits.size.sum() == columns


def _phi(i, node, n):
    """Phi_i at a dual node tuple, from `paper_potentials`."""
    return Fraction(int(paper_potentials(n)[i, dual_topology(n).nodes().index(node)]), 6 * n)


def test_potential_matches_region_oracle():
    for n in range(1, 13):
        nodes = dual_topology(n).nodes()
        phi = paper_potentials(n)
        assert phi.shape == (3, len(nodes))
        for i in range(3):
            want = {f: oracle_potential(i, f, n) for f in enumerate_faces(n)}
            want.update({o: Fraction(0 if o == OUTER[i] else 1, 3) for o in OUTER})
            assert {v: Fraction(p, 6 * n) for v, p in zip(nodes, phi[i].tolist())} == want


def test_svg_overlay_shows_the_region_oracle():
    for n in (3, 6):
        for i in range(3):
            values = re.findall(r">([^<>]*)</text>", emit_svg(build_w3(n), potential_index=i))
            assert values == [str(oracle_potential(i, f, n)) for f in enumerate_faces(n)]


def test_topology_holds_only_read_only_integer_arrays():
    topo = dual_topology(6)
    # only the dual: the primal grid's arrays are core.edge_index and core.point_sides
    assert [field.name for field in fields(topo)] == ["ends", "faces", "centroids", "outer"]
    for field in fields(topo):
        a = getattr(topo, field.name)
        assert isinstance(a, np.ndarray) and a.dtype.kind == "i" and not a.flags.writeable, field.name
    with pytest.raises(ValueError):
        topo.ends[0, 0] = 0


def test_dual_topology_bytes_are_unchanged_for_n_up_to_60():
    # sha256 of each field's dtype, shape and bytes for n = 1..60, recorded
    # with face ids from the k = 3 lex position a (2n + 3 - a) / 2 + b, which
    # `core.point_rank` generalizes
    digest = hashlib.sha256()
    for n in range(1, 61):
        topo = dual_topology(n)
        for a in (topo.ends, topo.faces, topo.centroids, topo.outer):
            digest.update(str(a.dtype).encode() + str(a.shape).encode() + a.tobytes())
    assert digest.hexdigest() == "1baa811163ccd891419d92fc55c4a1bc308ddb64a35d644cbcf72b248b6a337e"


def test_second_build_dual_enumerates_no_edges():
    w = build_w3(6)
    edge_index.cache_clear()
    dual_topology.cache_clear()
    g = build_dual(6, w)
    assert edge_index.cache_info().misses == 1  # the first build enumerates the edges, once
    h = build_dual(6, w.scaled(2))
    assert edge_index.cache_info().misses == 1
    assert h.topology is g.topology


def test_build_dual_rejects_weight_off_the_edges():
    # (0, 0, 3) and (2, 1, 0) are points of Delta_{3,3} but not adjacent;
    # the weight function itself refuses the pair, so no such w reaches build_dual
    with pytest.raises(ValueError, match="not an edge"):
        build_dual(3, WeightFunction(3, 3, {((0, 0, 3), (2, 1, 0)): Fraction(1)}))


def test_face_count_is_n_squared():
    for n in (1, 2, 3, 6):
        assert len(dual_topology(n).faces) == n * n


def test_face_vertices_are_adjacent_grid_points():
    for f in enumerate_faces(3):
        vs = face_vertices(f)
        assert len(set(vs)) == 3
        for v in vs:
            assert sum(v) == 3 and min(v) >= 0
        for i in range(3):
            d = sorted(a - b for a, b in zip(vs[i], vs[(i + 1) % 3]))
            assert d == [-1, 0, 1]


def test_face_centroids_avoid_third_lines():
    # centroids have numerator 1 or 2 mod 3 over 3n, so they never sit on
    # a line x_i = 2/3 and region membership is unambiguous
    n = 6
    centroids = dual_topology(n).centroids
    assert (centroids % 3 != 0).all()
    assert (centroids != 2 * n).all()


def test_dual_degrees():
    n = 3
    topo = build_dual(n, build_w3(n)).topology
    degree = np.bincount(topo.ends.ravel())
    for f in topo.faces:
        assert degree[f] == 3
    for i in range(3):
        assert degree[topo.outer[i]] == n
    assert degree.sum() == 2 * len(enumerate_edges(3, n))


def test_dual_distance_uniform_weights():
    # unit weight everywhere: the cheapest O_0-O_1 path snips off the e^2
    # corner, crossing the two boundary edges of the corner face
    for n in (2, 4):
        w = WeightFunction(3, n, {e: Fraction(1) for e in enumerate_edges(3, n)})
        g = build_dual(n, w)
        assert dijkstra(g, ("O", 0))[0][("O", 1)] == 2 * g.denominator


def test_certify_fk_pairwise_third():
    cert = certify(2, build_fk(), NONOPPOSITE, Fraction(1))
    assert all(v == Fraction(1, 3) for v in cert.pairwise.values())
    assert cert.corner == 1
    assert cert.overall == 1
    assert cert.passed


def test_certify_w3_families():
    for n in (3, 6, 9):
        w = build_w3(n)
        cert = certify(n, w, NONOPPOSITE, Fraction(1))
        assert cert.passed
        assert all(v >= Fraction(1, 3) for v in cert.pairwise.values())
        assert cert.ball >= 1
        three = certify(n, w, THREEWAY, Fraction(2, 3))
        assert three.passed
        assert three.two_corner == Fraction(2, 3)


def oracle_certify(w, family, target):
    """Reference: the certificate assembled from `oracle_dijkstra` in `Fraction`s."""
    og = oracle_build_dual(w.n, w)
    dists = [oracle_dijkstra(og, w, o)[0] for o in OUTER]
    pairwise = {(i, j): dists[i][OUTER[j]] for i in range(3) for j in range(i + 1, 3)}
    witness = min(og.faces, key=lambda f: sum(d[f] for d in dists))  # the first minimum
    ball = sum(d[witness] for d in dists)
    corner = sum(pairwise.values())
    two_corner = sum(sorted(pairwise.values())[:2])
    overall = min(ball, corner if family == NONOPPOSITE else two_corner)
    return Certificate(family, pairwise, ball, witness, corner, two_corner, overall, target, overall >= target)


def test_certify_matches_oracle_dijkstra():
    for w in _oracle_cases():
        for family, target in ((NONOPPOSITE, Fraction(1)), (THREEWAY, Fraction(2, 3))):
            assert certify(w.n, w, family, target) == oracle_certify(w, family, target)


def test_certify_names_its_witness_without_the_node_tuples(monkeypatch):
    def no_tuples(self):
        raise AssertionError("built the node tuples")

    rng = random.Random(17)
    cases = _oracle_cases()
    for _ in range(240):  # integer weights at n = 2..6: some witnesses are down faces
        n = rng.randrange(2, 7)
        cases.append(WeightFunction(3, n, {e: Fraction(rng.randrange(1, 9)) for e in enumerate_edges(3, n)}))
    expected = [oracle_certify(w, NONOPPOSITE, Fraction(1)) for w in cases]
    monkeypatch.setattr(dual_module.DualTopology, "nodes", no_tuples)
    got = [certify(w.n, w, NONOPPOSITE, Fraction(1)) for w in cases]
    assert got == expected
    assert {cert.witness_face[0] for cert in got} == {"U", "D"}


def test_dual_weights_are_one_read_only_array_in_the_numerators_dtype():
    cases = [(build_w3(9), np.int64), (build_fk(), np.int64), (search(3).weights, np.int64)]
    for w, dtype in cases + [(w, object) for w in _past_int64_instances()]:
        g = build_dual(w.n, w)
        assert isinstance(g.weights, np.ndarray) and g.weights.dtype == w.nums.dtype == dtype
        assert not g.weights.flags.writeable
        assert g.weights.tolist() == [w.get(x, y) * g.denominator for x, y in enumerate_edges(3, w.n)]


def _python_outer_distances(g):
    N = g.topology.size
    runs = dual_module._shortest_paths(g, [i * N + o for i, o in enumerate(g.topology.outer.tolist())])
    return [dist[i * N : (i + 1) * N] for i, (dist, _) in enumerate(runs)]


def _compiled_cases():
    """w3 at n = 3..45, fk, `search(3..6)` weights rounded to denominators
    of at most 1000, and 50 seeded integer weights with zeros at n = 3..12."""
    cases = [build_w3(n) for n in range(3, 46, 3)] + [build_fk()]
    for n in range(3, 7):
        w = search(n).weights
        cases.append(WeightFunction(3, n, {e: v.limit_denominator(1000) for e, v in w.weights.items()}))
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randrange(3, 13)
        edges = enumerate_edges(3, n)
        values = [rng.choice((0, 0, 1, 2, rng.randrange(100), rng.randrange(10**6))) for _ in edges]
        cases.append(WeightFunction(3, n, {e: Fraction(v) for e, v in zip(edges, values) if v}))
    return cases


def test_compiled_distances_match_the_python_kernel():
    for w in _compiled_cases():
        g = build_dual(w.n, w)
        assert sum(g.weights) < dual_module.FLOAT_EXACT
        dist = dual_module._outer_distances(g)
        assert dist.dtype == np.int64 and dist.shape == (3, g.topology.size)
        assert dist.tolist() == _python_outer_distances(g)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d, face, N, outer: d.__setitem__((0, face), d[0, face] + 1),
        lambda d, face, N, outer: d.__setitem__((2, 2 * N + face), d[2, 2 * N + face] + 1),
        lambda d, face, N, outer: d.__setitem__((1, N + face), np.inf),
        lambda d, face, N, outer: d.__setitem__((1, N + outer[1]), 1),
    ],
    ids=["face+1 from O_0", "face+1 from O_2", "unreached", "source off 0"],
)
def test_certify_rejects_compiled_distances_that_fail_the_exact_check(monkeypatch, edit):
    import scipy.sparse.csgraph

    compiled = scipy.sparse.csgraph.dijkstra
    topo = dual_module.dual_topology(6)

    def wrong(graph, indices):
        d = compiled(graph, indices=indices)
        edit(d, int(topo.faces[7]), topo.size, topo.outer.tolist())
        return d

    w = build_w3(6)
    certify(6, w, NONOPPOSITE, Fraction(1))  # passes unpatched
    monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra", wrong)
    with pytest.raises(RuntimeError, match="compiled Dijkstra"):
        certify(6, w, NONOPPOSITE, Fraction(1))


def test_certify_takes_the_python_kernel_from_float_exact_on(monkeypatch):
    calls = []
    kernel = dual_module._shortest_paths

    def spy(g, sources):
        calls.append(sources)
        return kernel(g, sources)

    monkeypatch.setattr(dual_module, "_shortest_paths", spy)
    edges = enumerate_edges(3, 3)
    rng = random.Random(3)
    for total, python_calls in ((dual_module.FLOAT_EXACT - 1, 0), (dual_module.FLOAT_EXACT, 1)):
        light = {e: Fraction(rng.randrange(1, 1000)) for e in edges}
        for heavy in (edges[0], edges[9]):
            rest = {e: v for e, v in light.items() if e != heavy}
            w = WeightFunction(3, 3, {**rest, heavy: total - sum(rest.values())})
            assert sum(build_dual(3, w).weights) == total
            calls.clear()
            for family, target in ((NONOPPOSITE, Fraction(1)), (THREEWAY, Fraction(2, 3))):
                assert certify(3, w, family, target) == oracle_certify(w, family, target)
            assert len(calls) == 2 * python_calls


def test_certificate_round_trip_fields():
    cert = certify(3, build_w3(3), NONOPPOSITE, Fraction(1))
    obj = cert.to_obj()
    assert obj["pass"] is True
    assert obj["overall"] == "1/1"
    assert set(obj["pairwise"]) == {"0,1", "0,2", "1,2"}


def test_potentials_pass_for_w3():
    for n in (3, 6, 9):
        assert check_potentials(n, build_w3(n)).ok


def _arc_walk_check_potentials(n, w):
    """Oracle: the analytic potential facts as a case split over dual edges.

    Lipschitz between faces and next to O_i, corner-cut margin
    Phi_i(F) + w(e) >= (2n/3) rho next to O_j, j != i, and ball sum >= 1.
    """
    g = oracle_build_dual(n, w)
    rho = Fraction(1, 2 * n)
    margin = Fraction(2 * n, 3) * rho
    edges = {e: (u, v, w.get(*e)) for u, arcs in g.adj.items() for v, _, e in arcs}
    for i in range(3):
        for u, v, wt in edges.values():
            outer = [x for x in (u, v) if x[0] == "O"]
            if outer:
                (o,) = outer
                f = v if u == o else u
                if o == ("O", i):
                    if abs(oracle_potential(i, f, n)) > wt:
                        return False
                elif oracle_potential(i, f, n) + wt < margin:
                    return False
            elif abs(oracle_potential(i, u, n) - oracle_potential(i, v, n)) > wt:
                return False
    return all(sum(oracle_potential(i, f, n) for i in range(3)) >= 1 for f in g.faces)


def test_potentials_fail_when_weights_shrink():
    # halving the hexagon weights breaks the Lipschitz property
    n = 6
    w = build_w3(n)
    weights = dict(w.weights)
    for e, v in weights.items():
        weights[e] = v / 2
    assert not check_potentials(n, WeightFunction(3, n, weights)).ok
    # without a boundary edge at the e^2 corner, the corner-cut margin fails
    weights = dict(w.weights)
    del weights[((0, 0, 6), (1, 0, 5))]
    rep = check_potentials(n, WeightFunction(3, n, weights))
    assert not rep.ok
    row, value, rhs = rep.violation
    assert value < rhs
    assert any(
        coef == -1 and var[1][0] == "O" and var[1] != OUTER[var[0]]
        for var, coef in row.items()
        if isinstance(var[0], int)
    )


def test_potentials_agree_with_arc_walk_oracle():
    # every weighted edge of w3 is tight: lowering one must fail, raising
    # any set of edges (zero-weight ones included) must pass
    rng = random.Random(5)
    outcomes = set()
    for n in (3, 6, 9):
        w = build_w3(n)
        support = sorted(w.weights)
        edges = enumerate_edges(3, n)
        for _ in range(3):
            lowered = dict(w.weights)
            e = rng.choice(support)
            lowered[e] *= Fraction(rng.randrange(0, 100), 100)
            raised = dict(w.weights)
            for e in rng.sample(edges, rng.randrange(1, len(edges))):
                raised[e] = raised.get(e, 0) + Fraction(rng.randrange(1, 10), 4 * n)
            for weights, expected in ((lowered, False), (raised, True)):
                v = WeightFunction(3, n, {e: x for e, x in weights.items() if x})
                ok = check_potentials(n, v).ok
                assert ok == _arc_walk_check_potentials(n, v) == expected
                outcomes.add(ok)
    assert outcomes == {True, False}


def oracle_check_potentials(n, w):
    """Reference: the oracle's potential rows summed in `Fraction`s, weights read through `w.get`."""
    g = oracle_build_dual(n, w)
    value = {}
    for i, source in enumerate(OUTER):
        value.update({(i, f): oracle_potential(i, f, n) for f in g.faces})
        value.update({(i, o): Fraction(1, 3) for o in OUTER if o != source})
    for row, rhs in oracle_potential_rows(g):
        lhs = sum(coef * (value[var] if isinstance(var[0], int) else w.get(*var)) for var, coef in row.items())
        if lhs < rhs:
            return False, (row, lhs, rhs)
    return True, None


def test_check_potentials_matches_fraction_oracle():
    # n not divisible by 3 too, where the 2/3 and 1/3 potentials need the
    # factor 3 of lcm(D, 6n) and the weights' denominators are powers of two
    rng = random.Random(8)
    outcomes = set()
    for n in (2, 3, 4, 5, 7):
        edges = enumerate_edges(3, n)
        for _ in range(8):
            weights = {e: Fraction(rng.randrange(4, 9), 2 ** rng.randrange(0, 3)) for e in edges}
            for e in rng.sample(edges, rng.randrange(0, 3)):
                weights[e] = Fraction(rng.randrange(0, 8), 2 ** rng.randrange(3, 6))
            w = WeightFunction(3, n, {e: v for e, v in weights.items() if v})
            rep = check_potentials(n, w)
            assert (rep.ok, rep.violation) == oracle_check_potentials(n, w)
            outcomes.add(rep.ok)
    assert outcomes == {True, False}


def test_check_potentials_reports_the_oracle_violation_on_w3_perturbations():
    rng = random.Random(12)
    outcomes = set()
    for n in (3, 6, 9):
        w = build_w3(n)
        edges = enumerate_edges(3, n)
        for _ in range(200):
            weights = dict(w.weights)
            for e in rng.sample(edges, rng.randrange(1, 6)):
                weights[e] = weights.get(e, 0) * Fraction(rng.randrange(0, 150), 100) + Fraction(rng.randrange(0, 3), 7 * n)
            v = WeightFunction(3, n, {e: x for e, x in weights.items() if x})
            rep = check_potentials(n, v)
            assert (rep.ok, rep.violation) == oracle_check_potentials(n, v)
            outcomes.add(rep.ok)
    assert outcomes == {True, False}


def test_check_potentials_is_exact_beyond_int64():
    # LP weights with denominators near 2**55, the same divided by 3 (which
    # violates rows), and numerators past 2**63 over the common denominator
    searched = [search(n).weights for n in range(3, 7)]
    cases = searched + [w.scaled(Fraction(1, 3)) for w in searched] + list(_past_int64_instances())
    outcomes = set()
    for w in cases:
        rep = check_potentials(w.n, w)
        assert (rep.ok, rep.violation) == oracle_check_potentials(w.n, w)
        outcomes.add(rep.ok)
    assert outcomes == {True, False}


def test_check_potentials_agrees_across_the_int64_boundary(monkeypatch):
    # w3 scaled so that the largest weight numerator over L = lcm(D, 6n)
    # falls just below and just above 2**60, intact and with one edge dropped
    dtypes = []
    row_values = dual_module._row_values

    def spy(n, x):
        dtypes.append(x.dtype)
        return row_values(n, x)

    monkeypatch.setattr(dual_module, "_row_values", spy)
    outcomes = set()
    for n in (3, 6):
        w = build_w3(n)
        D, nums = w.denominator, w.nums.tolist()
        assert (6 * n) % D == 0  # so L = 6n, before and after scaling by an integer
        below = (dual_module.INT64_TERMS - 1) // (max(nums) * (6 * n // D))
        for c, dtype in ((below, np.int64), (below + 1, object)):
            scaled = w.scaled(Fraction(c))
            dropped = WeightFunction(3, n, {e: v for e, v in scaled.weights.items() if e != min(w.weights)})
            for v in (scaled, dropped):
                dtypes.clear()
                rep = check_potentials(n, v)
                assert dtypes == [np.dtype(dtype)]
                assert (rep.ok, rep.violation) == oracle_check_potentials(n, v)
                outcomes.add(rep.ok)
    assert outcomes == {True, False}


def _rows_hold(g, value):
    return all(
        sum(coef * value.get(var, 0) for var, coef in row.items()) >= rhs
        for row, rhs in named_rows(g.n)
    )


def test_certify_passes_exactly_when_distances_satisfy_rows():
    n = 3
    rng = random.Random(6)
    w3 = build_w3(n)
    cases = [w3]
    for e in sorted(w3.weights):
        cases.append(WeightFunction(3, n, {f: v for f, v in w3.weights.items() if f != e}))
    while len(cases) < 60:
        weights = {e: Fraction(rng.randrange(0, 13), 12) for e in enumerate_edges(3, n)}
        cases.append(WeightFunction(3, n, {e: v for e, v in weights.items() if v}))
    outcomes = set()
    for w in cases:
        g = build_dual(n, w)
        value = dict(w.weights)
        for i, o in enumerate(OUTER):
            value.update({(i, v): Fraction(d, g.denominator) for v, d in dijkstra(g, o)[0].items()})
        passed = certify(n, w, NONOPPOSITE, Fraction(1)).passed
        assert passed == _rows_hold(g, value)
        outcomes.add(passed)
    assert outcomes == {True, False}


def test_potential_values_in_regions():
    n = 9
    rho = Fraction(1, 18)
    # up face at the e^0 corner lies in T_0
    assert _phi(0, ("U", 8, 0, 0), n) == Fraction(4 * n, 3) * rho
    assert _phi(0, ("O", 0), n) == 0
    # the corner margin at the other outer nodes
    assert _phi(0, ("O", 1), n) == _phi(0, ("O", 2), n) == Fraction(1, 3)
    # central face sits in the hexagon: ceil(2 n x_0) rho
    f = ("U", 2, 3, 3)
    x0 = Fraction(3 * 2 + 1, 3 * n)
    assert _phi(0, f, n) == -((-2 * n * x0).__floor__()) * rho


def test_distances_dominate_potentials():
    n = 9
    w = build_w3(n)
    g = build_dual(n, w)
    for i in range(3):
        dist, _ = dijkstra(g, ("O", i))
        for f in enumerate_faces(n):
            assert Fraction(dist[f], g.denominator) >= _phi(i, f, n)


def test_normalize_fixed_point_on_ball_cut():
    n = 3
    # all-hexagon-to-nearest-corner labeling is already a ball cut
    from mwgap.core import Cut, enumerate_points, support, terminal

    labels = {}
    for p in enumerate_points(3, n):
        labels[p] = max(range(3), key=lambda i: (p[i], -i))
    for i in range(3):
        labels[terminal(i, 3, n)] = i
    P = Cut(3, n, labels, NONOPPOSITE)
    P.validate()
    assert classify_cut(P) == "ball"
    Q = normalize_cut(P)
    assert Q.labels == P.labels


def test_normalize_random_cuts_property():
    w = build_w3(6)
    rng = random.Random(11)
    for _ in range(200):
        P = random_nonopposite_cut(6, rng)
        Q = normalize_cut(P, w)
        Q.validate()
        assert classify_cut(Q) in ("ball", "3corner")
        assert cost(Q, w) <= cost(P, w)
        assert uncut_edges(P) <= uncut_edges(Q)


@given(
    n=st.integers(2, 9),
    with_w=st.booleans(),
    rng=st.randoms(use_true_random=False),
)
def test_normalize_cut_never_cuts_an_uncut_edge(n, with_w, rng):
    P = random_nonopposite_cut(n, rng)
    # build_w3 exists for n divisible by 3; elsewhere every edge weighs 1
    w3 = build_w3(n) if n % 3 == 0 else None
    Q = normalize_cut(P, w3 if with_w else None)
    assert uncut_edges(P) <= uncut_edges(Q)
    w = w3 or WeightFunction(3, n, {e: Fraction(1) for e in enumerate_edges(3, n)})
    assert cost(Q, w) <= cost(P, w)


def oracle_uncut_edges(P):
    """Reference: every edge of a fresh `enumerate_edges`, labels read by dict."""
    return {(x, y) for x, y in enumerate_edges(P.k, P.n) if P.labels[x] == P.labels[y]}


def test_uncut_edges_matches_comprehension_oracle():
    rng = random.Random(8)
    for n in (1, 2, 3, 5, 6, 9):
        for _ in range(10):
            for P in (random_nonopposite_cut(n, rng), random_kway_cut(3, n, rng)):
                assert uncut_edges(P) == oracle_uncut_edges(P)
    with pytest.raises(ValueError, match="k = 3"):
        uncut_edges(random_kway_cut(4, 3, rng))


def neighbors(x):
    """Reference: grid points at L1 distance exactly 2/n from x (unit transfers)."""
    out = []
    for i, j in itertools.permutations(range(len(x)), 2):
        if x[i]:
            y = list(x)
            y[i] -= 1
            y[j] += 1
            out.append(tuple(y))
    return out


def oracle_components(labels, points):
    """Reference: components of the grid graph minus cut edges, by a
    depth-first walk over point tuples through `neighbors`; each sorted,
    listed in the order of their first points."""
    seen = set()
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


def _oracle_touched_sides(comp):
    return {i for x in comp for i in range(3) if x[i] == 0}


def _oracle_legal(label, comp):
    return label == 3 or all(label in support(x) for x in comp)


def oracle_normalize_cut(P, w=None):
    """Reference: the two normalization rules on point tuples and a labels dict."""
    n = P.n
    points = enumerate_points(3, n)
    labels = dict(P.labels)
    terminals = {i: terminal(i, 3, n) for i in range(3)}
    while True:
        comps = oracle_components(labels, points)
        changed = False
        for comp in comps:
            if labels[comp[0]] != 3 or _oracle_touched_sides(comp) == {0, 1, 2}:
                continue
            candidates = [l for l in range(3) if _oracle_legal(l, comp)]
            if not candidates:
                raise NormalizationError(f"no legal label for extra component at {comp[0]}")
            for x in comp:
                labels[x] = candidates[0]
            changed = True
        if changed:
            continue
        applied = False
        stuck = []
        for comp in comps:
            l = labels[comp[0]]
            if l == 3 or terminals[l] in comp:
                continue
            in_comp = set(comp)
            nbr_labels = sorted({labels[y] for x in comp for y in neighbors(x) if y not in in_comp})
            legal = [m for m in nbr_labels if m != l and _oracle_legal(m, comp)]
            if not legal:
                stuck.append(comp[0])
                continue
            for x in comp:
                labels[x] = legal[0]
            applied = True
            break
        if not applied:
            if stuck:
                raise NormalizationError(f"no legal neighbor label for components at {stuck}")
            break
    out = Cut(3, n, labels, NONOPPOSITE)
    if w is not None and cost(out, w) > cost(P, w):
        raise NormalizationError("normalization increased the cost")
    return out


def oracle_classify_cut(P):
    """Reference: cluster shapes from `oracle_components`."""
    n = P.n
    by_label = {}
    for comp in oracle_components(P.labels, enumerate_points(3, n)):
        by_label.setdefault(P.labels[comp[0]], []).append(comp)
    for i in range(3):
        if len(by_label.get(i, [])) != 1 or terminal(i, 3, n) not in by_label[i][0]:
            return None
    extra = by_label.get(3, [])
    if not extra:
        return "ball"
    if len(extra) == 1 and _oracle_touched_sides(extra[0]) == {0, 1, 2}:
        return "3corner"
    return None


def _normalized_or_error(normalize, P, w):
    try:
        return normalize(P, w).labels
    except NormalizationError as exc:
        return str(exc)


@pytest.mark.parametrize("n", range(2, 13))
def test_normalize_and_classify_match_oracles(n):
    rng = random.Random(f"normalize:{n}")
    w3 = build_w3(n) if n % 3 == 0 else None
    for i in range(300):
        P = random_nonopposite_cut(n, rng)
        w = w3 if i % 2 else None
        got = _normalized_or_error(normalize_cut, P, w)
        assert got == _normalized_or_error(oracle_normalize_cut, P, w)
        assert classify_cut(P) == oracle_classify_cut(P)
        if isinstance(got, dict):
            Q = Cut(3, n, got, NONOPPOSITE)
            assert classify_cut(Q) == oracle_classify_cut(Q)


def test_stuck_normalization_names_points(monkeypatch):
    n = 3
    labels = {p: min(support(p)) for p in enumerate_points(3, n)}
    labels[(1, 1, 1)] = 2
    P = Cut(3, n, labels, NONOPPOSITE)
    # every point on every side: no label but the extra one is legal
    # anywhere, and the island of cluster 2 at the centre has no extra neighbor
    everywhere = np.full_like(point_sides(3, n), 0b111)
    monkeypatch.setattr(dual_module, "point_sides", lambda k, m: everywhere)
    with pytest.raises(NormalizationError, match=r"^no legal neighbor label for components at \[\(1, 1, 1\)\]$"):
        normalize_cut(P)


def test_classify_matches_oracle_on_kway_cuts():
    rng = random.Random(12)
    for n in (1, 2, 3, 5):
        for _ in range(50):
            P = random_kway_cut(3, n, rng)
            assert classify_cut(P) == oracle_classify_cut(P)


def test_classify_rejects_other_k():
    P = random_kway_cut(4, 3, random.Random(0))
    with pytest.raises(ValueError, match="dual machinery is specific to k = 3, got k = 4"):
        classify_cut(P)


def test_classify_rejects_disconnected_cluster():
    from mwgap.core import Cut, enumerate_points, support

    n = 3
    labels = {p: min(support(p)) for p in enumerate_points(3, n)}
    labels[(1, 1, 1)] = 2
    labels[(0, 3, 0)] = 1
    P = Cut(3, n, labels, NONOPPOSITE)
    # cluster 2 is the terminal corner plus an island at the center
    assert classify_cut(P) is None


def test_brute_force_fk():
    value, cut = brute_force_min_cut(2, build_fk(), NONOPPOSITE)
    assert value == 1
    cut.validate()
    assert cost(cut, build_fk()) == value


def test_brute_force_w3_bounds():
    w = build_w3(3)
    nonop, cut = brute_force_min_cut(3, w, NONOPPOSITE)
    assert nonop >= 1
    assert nonop == cost(cut, w)
    three, cut = brute_force_min_cut(3, w, THREEWAY)
    assert three >= Fraction(2, 3)
    assert three == cost(cut, w)
    assert three <= nonop


def test_brute_force_never_below_certificate():
    rng = random.Random(4)
    for _ in range(10):
        weights = {
            e: Fraction(rng.randrange(0, 9), 4)
            for e in enumerate_edges(3, 3)
            if rng.random() < 0.7
        }
        w = WeightFunction(3, 3, {e: v for e, v in weights.items() if v})
        for family in (NONOPPOSITE, THREEWAY):
            bf, cut = brute_force_min_cut(3, w, family)
            assert bf == cost(cut, w)
            assert bf >= certify(3, w, family, Fraction(0)).overall


@given(st.sampled_from((2, 3)), st.sampled_from((NONOPPOSITE, THREEWAY)), st.data())
def test_certify_never_exceeds_brute_force(n, family, data):
    edges = enumerate_edges(3, n)
    values = data.draw(
        st.lists(st.fractions(0, 2, max_denominator=4), min_size=len(edges), max_size=len(edges))
    )
    w = WeightFunction(3, n, {e: v for e, v in zip(edges, values) if v})
    value, cut = brute_force_min_cut(n, w, family)
    assert value == cost(cut, w)
    assert certify(n, w, family, Fraction(0)).overall <= value


def test_brute_force_rejects_non_triangle_input():
    with pytest.raises(ValueError, match="k = 3"):
        brute_force_min_cut(3, WeightFunction(4, 3, {}), NONOPPOSITE)
    with pytest.raises(ValueError, match="n = 2, expected 3"):
        brute_force_min_cut(3, build_fk(), NONOPPOSITE)


def test_brute_force_size_guard():
    with pytest.raises(ValueError):
        brute_force_min_cut(6, build_w3(6), NONOPPOSITE)
