"""Planar dual graph, certificates, potentials, normalization, brute force."""

import heapq
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwgap.core import (
    NONOPPOSITE,
    WeightFunction,
    cost,
    enumerate_edges,
    random_nonopposite_cut,
)
from mwgap.dual import (
    OUTER,
    THREEWAY,
    brute_force_min_cut,
    build_dual,
    certify,
    check_potentials,
    classify_cut,
    dijkstra,
    dual_distance,
    enumerate_faces,
    face_centroid,
    face_vertices,
    normalize_cut,
    potential,
    potential_rows,
    uncut_edges,
)
from mwgap.lpsearch import search
from mwgap.weights import build_fk, build_w3


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


def test_dijkstra_matches_fraction_oracle():
    cases = [build_w3(n) for n in range(3, 19, 3)] + [build_fk()]
    for n in range(3, 6):
        w = search(n).weights
        # the rescaled weights, and the float-derived ones the LP hands to certify
        cases += [w, WeightFunction(3, n, {e: Fraction(float(v)) for e, v in w.weights.items()})]
    big = list(_past_int64_instances())
    for w in cases + big:
        g = build_dual(w.n, w)
        for source in list(OUTER) + g.faces[:: len(g.faces) // 2]:
            dist, pred = dijkstra(g, source)
            want_dist, want_pred = oracle_dijkstra(g, w, source)
            assert dist.keys() == want_dist.keys() == g.adj.keys()
            assert all(Fraction(d, g.denominator) == want_dist[v] for v, d in dist.items())
            assert pred == want_pred
    for w in big:
        g = build_dual(w.n, w)
        assert max(dijkstra(g, OUTER[0])[0].values()) > 2**63


def test_face_count_is_n_squared():
    for n in (1, 2, 3, 6):
        assert len(enumerate_faces(n)) == n * n


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
    for f in enumerate_faces(n):
        for c in face_centroid(f, n):
            assert c.limit_denominator(3 * n) * 3 * n % 3 != 0
            assert 3 * c != 2


def test_dual_degrees():
    n = 3
    g = build_dual(n, build_w3(n))
    for f in g.faces:
        assert len(g.adj[f]) == 3
    for i in range(3):
        assert len(g.adj[("O", i)]) == n
    assert sum(len(v) for v in g.adj.values()) == 2 * len(enumerate_edges(3, n))


def test_dual_distance_uniform_weights():
    # unit weight everywhere: the cheapest O_0-O_1 path snips off the e^2
    # corner, crossing the two boundary edges of the corner face
    for n in (2, 4):
        w = WeightFunction(3, n, {e: Fraction(1) for e in enumerate_edges(3, n)})
        g = build_dual(n, w)
        assert dual_distance(g, ("O", 0), ("O", 1)) == 2


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
    g = build_dual(n, w)
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
                    if abs(potential(i, f, n)) > wt:
                        return False
                elif potential(i, f, n) + wt < margin:
                    return False
            elif abs(potential(i, u, n) - potential(i, v, n)) > wt:
                return False
    return all(sum(potential(i, f, n) for i in range(3)) >= 1 for f in g.faces)


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
    """Reference: `potential_rows` summed in `Fraction`s, weights read through `w.get`."""
    g = build_dual(n, w)
    value = {}
    for i, source in enumerate(OUTER):
        value.update({(i, f): potential(i, f, n) for f in g.faces})
        value.update({(i, o): Fraction(1, 3) for o in OUTER if o != source})
    for row, rhs in potential_rows(g):
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


def _rows_hold(g, value):
    return all(
        sum(coef * value.get(var, 0) for var, coef in row.items()) >= rhs
        for row, rhs in potential_rows(g)
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
    assert potential(0, ("U", 8, 0, 0), n) == Fraction(4 * n, 3) * rho
    assert potential(0, ("O", 0), n) == 0
    # central face sits in the hexagon: ceil(2 n x_0) rho
    f = ("U", 2, 3, 3)
    x0 = face_centroid(f, n)[0]
    assert potential(0, f, n) == -((-2 * n * x0).__floor__()) * rho


def test_potential_undefined_at_other_outer_nodes():
    with pytest.raises(ValueError):
        potential(0, ("O", 1), 3)


def test_distances_dominate_potentials():
    n = 9
    w = build_w3(n)
    g = build_dual(n, w)
    for i in range(3):
        dist, _ = dijkstra(g, ("O", i))
        for f in g.faces:
            assert Fraction(dist[f], g.denominator) >= potential(i, f, n)


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
