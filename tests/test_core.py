"""Grid simplex primitives: points, edges, weight functions, cuts."""

import hashlib
import itertools
import random
import re
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from mwgap import core
from mwgap import dual as dual_module
from mwgap.core import (
    Cut,
    KWAY,
    NONOPPOSITE,
    WeightFunction,
    canonical_edge,
    cost,
    edge_index,
    enumerate_edges,
    enumerate_points,
    lpc,
    point_rank,
    point_sides,
    point_unrank,
    random_kway_cut,
    random_nonopposite_cut,
    support,
    terminal,
)
from mwgap.dual import THREEWAY, certify, check_potentials
from mwgap.lpsearch import search
from mwgap.projection import check_cost_lemmas, check_projection_bounds, restrict_injection
from mwgap.serialize import instance_digest, instance_to_obj, obj_to_instance
from mwgap.weights import build_fk, build_w3, build_w_hat, build_w_prime, build_w_tilde


def oracle_cost(P, w):
    """Reference cost: a Fraction sum over the weight dict, labels read from the dict."""
    total = Fraction(0)
    for (x, y), v in w.weights.items():
        if P.labels[x] != P.labels[y]:
            total += v
    return total


def test_point_count_is_stars_and_bars():
    for k in (2, 3, 4, 5):
        for n in (1, 2, 3, 5):
            assert len(enumerate_points(k, n)) == comb(n + k - 1, k - 1)


def test_points_sum_to_n_and_are_sorted():
    pts = enumerate_points(3, 4)
    assert all(sum(p) == 4 for p in pts)
    assert pts == tuple(sorted(pts))
    assert len(set(pts)) == len(pts)


def test_points_are_one_cached_tuple():
    pts = enumerate_points(3, 4)
    assert isinstance(pts, tuple) and enumerate_points(3, 4) is pts
    assert len(pts) == comb(6, 2)


def compositions(k, n):
    """Reference: the compositions of n into k parts, recursively, in lexicographic order."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(k - 1, n - first):
            yield (first,) + rest


@pytest.mark.parametrize("k, n", [(3, n) for n in range(1, 13)] + [(5, 3), (8, 6), (12, 3)])
def test_point_array_is_the_point_tuples(k, n):
    points = core.point_array(k, n)
    assert points.dtype == np.intp and np.array_equal(points, np.array(enumerate_points(k, n)))
    assert points.tolist() == list(map(list, compositions(k, n)))


def test_grid_tables_are_cached_and_read_only():
    for table in (core.point_array, core._tail_counts, core.terminal_ranks):
        a = table(8, 6)
        assert table(8, 6) is a and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    points = enumerate_points(8, 6)
    assert core.terminal_ranks(8, 6).tolist() == [points.index(terminal(i, 8, 6)) for i in range(8)]


def test_oversize_point_array_raises_before_allocating():
    # Delta_{3,2000} has 2,003,001 points: its point array would take 48 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape("has 2003001 points, more than MAX_POINTS = 524288")):
            core.point_array(3, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_oversize_gathers_raise_before_allocating():
    # ungated, the first lists 166,167,000 faces for a 7.98 TB temporary, the
    # second needs 4 GB, and the point array of Delta_{1000,2} 4 GB
    many = [(0, 1, 2)] * 10000
    calls = (lambda: core.sorted_face_gather(1000, 2, 3), lambda: core.face_gather(5000, 3, many))
    tracemalloc.start()
    try:
        for call in (*calls, lambda: core.point_array(1000, 2)):
            with pytest.raises(ValueError, match="more than MAX_ARRAY_BYTES = 268435456"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("k, n, m", [(30, 4, 3), (100, 2, 2)])
def test_a_gather_peaks_near_four_temporaries(k, n, m):
    # the (faces, |Delta_{m,n}|, k) temporary that MAX_ARRAY_BYTES bounds, and
    # point_rank's working arrays of its size: measured about 4x, so a gather
    # at the bound peaks near 1 GiB
    faces = list(itertools.combinations(range(k), m))
    core.point_array(m, n), core._tail_counts(k, n)  # the small cached tables, built untraced
    tracemalloc.start()
    try:
        gather = core.face_gather(k, n, faces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    temporary = gather.size * k * np.dtype(np.intp).itemsize
    assert peak <= 4.5 * temporary
    assert 4.5 * core.MAX_ARRAY_BYTES <= 1.25 * 2**30


def test_rank_round_trip_past_int64_leaves_the_cached_table():
    table = core._tail_counts(40, 60)  # Delta_{40,60} has about 10**27 points
    before = table.copy()
    top = comb(99, 39) - 1
    ranks = np.array([0, 1, 2**63, 10**20 + 7, top // 3, top], dtype=object)
    points = point_unrank(ranks, 40, 60)
    assert (points >= 0).all() and (points.sum(axis=1) == 60).all()
    assert point_rank(points, 60).tolist() == ranks.tolist()
    assert core._tail_counts(40, 60) is table and table.dtype == object and not table.flags.writeable
    assert np.array_equal(table, before)


def test_edge_count_triangle():
    # 3 * n * (n + 1) / 2 unit-transfer edges on the triangle grid
    for n in (1, 2, 3, 6, 9):
        assert len(enumerate_edges(3, n)) == 3 * n * (n + 1) // 2


def test_edges_are_unit_transfers():
    for x, y in enumerate_edges(3, 5):
        diff = [a - b for a, b in zip(x, y)]
        assert sorted(diff) == [-1, 0, 1]
        assert (x, y) == canonical_edge(x, y) == canonical_edge(y, x)
        assert x < y


def test_neighbors_match_edge_list():
    edges = set(enumerate_edges(3, 3))
    for p in enumerate_points(3, 3):
        for q in neighbors(p):
            assert canonical_edge(p, q) in edges


def point_index(k, n):
    """Reference: each point of Delta_{k,n} to its position in `enumerate_points(k, n)`."""
    return {x: i for i, x in enumerate(enumerate_points(k, n))}


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


def oracle_enumerate_edges(k, n):
    """Reference: every point's neighbors, canonically ordered, deduplicated and sorted."""
    return sorted({canonical_edge(x, y) for x in enumerate_points(k, n) for y in neighbors(x)})


def test_edges_match_neighbor_oracle():
    for k, n in ((2, 4), (3, 1), (3, 2), (3, 9), (4, 5), (8, 3)):
        assert enumerate_edges(k, n) == tuple(oracle_enumerate_edges(k, n))


def test_edges_are_cached_per_grid(monkeypatch):
    calls = []

    def counting(x, n):
        calls.append(x)
        return point_rank(x, n)

    monkeypatch.setattr(core, "point_rank", counting)
    core.edge_index.cache_clear()
    core.enumerate_edges.cache_clear()
    build_w3(6)
    # one rank per unit transfer from x_i to a later x_j, each pair (i, j) once
    assert len(calls) == 3 and sum(map(len, calls)) == len(enumerate_edges(3, 6))
    calls.clear()
    build_w3(6)
    assert calls == []
    edges = enumerate_edges(3, 6)
    assert enumerate_edges(3, 6) is edges
    # the endpoints are the cached point tuples, not copies
    points = enumerate_points(3, 6)
    index = point_index(3, 6)
    assert all(x is points[index[x]] and y is points[index[y]] for x, y in edges)


@pytest.mark.parametrize("k, n", [(2, 4), (3, 6), (4, 3)])
def test_edge_index_and_point_sides_follow_the_point_tuples(k, n):
    points = enumerate_points(k, n)
    u, v = edge_index(k, n)
    sides = point_sides(k, n)
    for a in (u, v, sides):
        assert a.dtype == np.intp and not a.flags.writeable
    edges = enumerate_edges(k, n)
    assert len(u) == len(v) == len(edges)
    # edge j is (points[u[j]], points[v[j]]), the cached point tuples themselves
    assert all(x is points[i] and y is points[j] for (x, y), i, j in zip(edges, u.tolist(), v.tolist()))
    assert sides.tolist() == [sum(1 << i for i in range(k) if x[i] == 0) for x in points]


def test_terminal_and_support():
    assert terminal(1, 3, 6) == (0, 6, 0)
    assert support((0, 2, 1)) == frozenset({1, 2})
    assert support(terminal(0, 4, 5)) == frozenset({0})


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        enumerate_points(1, 3)
    with pytest.raises(ValueError):
        enumerate_points(3, 0)


def test_weight_function_total_and_lpc():
    e1 = canonical_edge((2, 0, 0), (1, 1, 0))
    e2 = canonical_edge((0, 1, 1), (0, 0, 2))
    w = WeightFunction(3, 2, {e1: Fraction(1, 3), e2: Fraction(1, 6)})
    assert w.total() == Fraction(1, 2)
    assert lpc(w) == Fraction(1, 4)
    assert w.get((1, 1, 0), (2, 0, 0)) == Fraction(1, 3)
    assert w.get((0, 2, 0), (1, 1, 0)) == 0


def test_scaled():
    e1 = canonical_edge((2, 0, 0), (1, 1, 0))
    w1 = WeightFunction(3, 2, {e1: Fraction(1, 2)})
    s = w1.scaled(Fraction(4))
    assert s.get(*e1) == 2


def test_cut_validation_pins_terminals():
    pts = enumerate_points(3, 2)
    labels = {p: 0 for p in pts}
    with pytest.raises(ValueError):
        Cut(3, 2, labels, KWAY).validate()
    for i in range(3):
        labels[terminal(i, 3, 2)] = i
    Cut(3, 2, labels, KWAY).validate()


def test_nonopposite_cut_rejects_opposite_label():
    pts = enumerate_points(3, 2)
    labels = {p: min(support(p)) for p in pts}
    Cut(3, 2, labels, NONOPPOSITE).validate()
    labels[(0, 1, 1)] = 0  # 0 not in the support of (0, 1, 1)
    with pytest.raises(ValueError):
        Cut(3, 2, labels, NONOPPOSITE).validate()


def test_nonopposite_cut_names_the_first_opposite_point():
    labels = {p: min(support(p)) for p in enumerate_points(3, 2)}
    labels[(0, 1, 1)] = 0  # 0 not in the support of (0, 1, 1)
    labels[(1, 0, 1)] = 1  # 1 not in the support of (1, 0, 1)
    first = re.escape("opposite assignment: (0, 1, 1) -> 0")
    with pytest.raises(ValueError, match=first):
        Cut(3, 2, labels, NONOPPOSITE)
    # the first in point order, not in the labels dict's order
    with pytest.raises(ValueError, match=first):
        Cut(3, 2, dict(reversed(labels.items())), NONOPPOSITE)
    with pytest.raises(ValueError, match=first):
        Cut(3, 2, {x: np.uint64(c) for x, c in labels.items()}, NONOPPOSITE)


def test_cost_counts_label_boundaries():
    w = WeightFunction(3, 1, {e: Fraction(1) for e in enumerate_edges(3, 1)})
    labels = {terminal(i, 3, 1): i for i in range(3)}
    P = Cut(3, 1, labels, KWAY)
    assert cost(P, w) == 3


def test_random_cuts_are_valid_and_reproducible():
    for seed in range(10):
        a = random_kway_cut(5, 3, random.Random(seed))
        b = random_kway_cut(5, 3, random.Random(seed))
        a.validate()
        assert a.labels == b.labels
        p = random_nonopposite_cut(4, random.Random(seed))
        q = random_nonopposite_cut(4, random.Random(seed))
        p.validate()
        assert p.labels == q.labels


def test_random_cuts_differ_across_seeds():
    a = random_kway_cut(5, 3, random.Random(0))
    b = random_kway_cut(5, 3, random.Random(1))
    assert a.labels != b.labels


# sha256 over the uint8 label arrays of three successive cuts from random.Random(seed),
# recorded from the tuple-scanning builders that read max(x) == n and support(x)
RANDOM_CUT_PINS = {
    (KWAY, 3, 6, 1): "b20fc412ec07b59cb584d4bbfa0f73bdcb31bc55228d6177a0ceff0645df7836",
    (KWAY, 5, 3, 2): "ccadf13f7506300e87eb7b9ba22446373d5b914925fc2f023257e2e22e4e9262",
    (KWAY, 8, 6, 3): "c5c8fc1cf704236d14c1229d5942be7254868a938f961e1c31e84d8c12119961",
    (KWAY, 12, 3, 4): "2611326770e87cbcf9df899c482d7d3636f7d899d3d4d5371fa53384f70b7659",
    (NONOPPOSITE, 3, 3, 5): "0e44aada0764adebe6e9c53c8bea08e307bf2f419827dba1636c351dcd490690",
    (NONOPPOSITE, 3, 6, 6): "9c1ba45130634e99f777e9fb338074dd3891b3e4b0adb139557555a4c4130596",
    (NONOPPOSITE, 3, 9, 7): "723abc7adb26f99739d15ad9757b98da06aa168b89dad2f068ba08ed13d3833e",
}


def _pinned_cuts(family, k, n, seed):
    rng = random.Random(seed)
    if family == KWAY:
        return [random_kway_cut(k, n, rng) for _ in range(3)]
    return [random_nonopposite_cut(n, rng) for _ in range(3)]


def test_random_cuts_match_their_recorded_digests():
    for (family, k, n, seed), pin in RANDOM_CUT_PINS.items():
        cuts = _pinned_cuts(family, k, n, seed)
        data = b"".join(np.asarray(P.label_array, np.uint8).tobytes() for P in cuts)
        assert hashlib.sha256(data).hexdigest() == pin, (family, k, n, seed)


def _clear_grid_caches():
    for name in dir(core):
        if hasattr(getattr(core, name), "cache_clear"):
            getattr(core, name).cache_clear()


def test_builders_never_build_the_point_tuples(monkeypatch):
    def no_tuples(*args):
        raise AssertionError("built the point tuples")

    expected = {key: _pinned_cuts(*key) for key in RANDOM_CUT_PINS}
    weights = {(k, n): build_w_prime(k, n) for k, n in ((2, 5), (4, 6), (8, 3))}
    fk = build_fk()
    _clear_grid_caches()
    monkeypatch.setattr(core, "enumerate_points", no_tuples)
    for key, cuts in expected.items():
        assert _pinned_cuts(*key) == cuts
    assert build_fk() == fk
    for (k, n), w in weights.items():
        assert build_w_prime(k, n) == w


def test_cut_label_array_is_in_point_index_order():
    P = random_kway_cut(5, 3, random.Random(4))
    assert P.label_array.tolist() == [P.labels[x] for x in point_index(5, 3)]
    assert not P.label_array.flags.writeable


def test_cut_rejects_foreign_and_non_integer_labels():
    labels = {p: min(support(p)) for p in enumerate_points(3, 2)}
    del labels[(1, 1, 0)]
    with pytest.raises(ValueError, match="cover exactly"):
        Cut(3, 2, {**labels, (1, 1, 1): 0}, KWAY)  # right length, one point off the grid
    with pytest.raises(ValueError, match="cover exactly"):
        Cut(3, 2, labels, KWAY)
    with pytest.raises(ValueError, match="out of range"):
        Cut(3, 2, {**labels, (1, 1, 0): 0.5}, KWAY)


def _random_cuts():
    """Random cuts at (3,2), (5,3), (8,6) and (12,3), non-opposite ones too on the triangle."""
    rng = random.Random("two constructors")
    for k, n in ((3, 2), (5, 3), (8, 6), (12, 3)):
        yield from (random_kway_cut(k, n, rng) for _ in range(4))
        if k == 3:
            yield from (random_nonopposite_cut(n, rng) for _ in range(4))


def test_array_and_dict_constructors_agree():
    rng = random.Random(1)
    for P in _random_cuts():
        oracle = dict(zip(enumerate_points(P.k, P.n), P.label_array.tolist()))
        items = list(oracle.items())
        rng.shuffle(items)  # the dict constructor takes its keys in any order
        A = Cut.from_array(P.k, P.n, P.label_array, P.family)
        D = Cut(P.k, P.n, dict(items), P.family)
        for Q in (A, D):
            assert Q.label_array.dtype == np.uint8 and np.array_equal(Q.label_array, P.label_array)
            assert not Q.label_array.flags.writeable
            assert Q.labels == oracle and list(Q.labels) == list(oracle)
            assert Q == P and Q.family == P.family
        with pytest.raises(TypeError):
            A.labels[next(iter(oracle))] = 0  # a view of the array, so read-only


def test_from_array_rejects_with_the_existing_messages():
    points = enumerate_points(3, 2)  # (0,0,2), (0,1,1), (0,2,0), (1,0,1), (1,1,0), (2,0,0)
    good = [2, 1, 1, 0, 0, 0]  # a k-way and a non-opposite cut

    def at(j, c):
        return good[:j] + [c] + good[j + 1 :]

    cover = "labels must cover exactly the grid points"
    for family, hi in ((KWAY, 3), (NONOPPOSITE, 4)):
        assert Cut.from_array(3, 2, good, family).labels == dict(zip(points, good))
        cases = [
            (good[:-1], cover),
            (good + [0], cover),
            ([good[:3], good[3:]], cover),
            (np.array(good, float), "label 2.0 out of range at (0, 0, 2)"),
            (at(1, -1), "label -1 out of range at (0, 1, 1)"),
            (at(1, hi), f"label {hi} out of range at (0, 1, 1)"),
            (at(2, 2), "terminal 1 labeled 2"),
        ]
        if family == NONOPPOSITE:
            cases.append((at(1, 0), "opposite assignment: (0, 1, 1) -> 0"))
        for labels, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                Cut.from_array(3, 2, labels, family)
            if np.ndim(labels) == 1 and len(labels) <= len(points):  # the same labels as a dict
                with pytest.raises(ValueError, match=re.escape(message)):
                    Cut(3, 2, dict(zip(points, np.asarray(labels).tolist())), family)


def test_a_first_valid_cut_never_builds_the_point_tuples(monkeypatch):
    # the grid gate is the cached point array; a point tuple only names a point
    # in an error message, so a valid cut on a fresh grid builds none
    def no_tuples(*args):
        raise AssertionError("built the point tuples")

    for k, n, family in ((7, 4, KWAY), (3, 11, NONOPPOSITE)):
        # each point to its largest coordinate: terminals keep their own, and
        # no label is opposite its point
        labels = core.point_array(k, n).argmax(axis=1)
        core.point_array.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(core, "enumerate_points", no_tuples)
            P = Cut.from_array(k, n, labels, family)
        assert P.labels == dict(zip(enumerate_points(k, n), labels.tolist()))


def test_bench_layer_calls_never_build_the_labels_view():
    rng = random.Random(11)
    P = random_kway_cut(8, 6, rng)
    assert check_cost_lemmas(P, 6, (build_w_hat(8, 6), build_w_prime(8, 6), build_w_tilde(8, 6))).ok
    assert check_projection_bounds(P).ok
    Q = restrict_injection(P, rng.sample(range(8), 3), 3)
    w = build_w3(9)
    T = random_nonopposite_cut(9, rng)
    N = dual_module.normalize_cut(T, w)
    for R in (T, N):
        dual_module.classify_cut(R)
        dual_module.uncut_edges(R)
        cost(R, w)
    for cut in (P, Q, T, N):
        assert "labels" not in vars(cut)
    assert N.labels and "labels" in vars(N)  # built on first read, then kept


def _crafted_instances():
    """Triangle instances whose numerators over the common denominator sum past 2**63."""
    edges = enumerate_edges(3, 3)
    big = WeightFunction(3, 3, {e: Fraction(2**62 + j) for j, e in enumerate(edges)})
    primes = [p for p in range(10**6, 10**6 + 400) if all(p % d for d in range(2, 1001))]
    coprime = WeightFunction(3, 3, {e: Fraction(p - 1, p) for e, p in zip(edges, primes)})
    return [big, coprime]


def test_cost_matches_fraction_oracle():
    instances = [build_w3(3), build_w3(6), build_fk(), search(3).weights, *_crafted_instances()]
    for k, n in ((5, 3), (8, 6), (12, 3)):
        instances += [build_w_hat(k, n), build_w_prime(k, n), build_w_tilde(k, n)]
    assert max(q.denominator for q in search(3).weights.weights.values()) > 2**50
    past_int64 = 0
    for w in instances:
        rng = random.Random(f"{w.k}:{w.n}:{len(w.weights)}")
        cuts = [random_kway_cut(w.k, w.n, rng) for _ in range(6)]
        if w.k == 3:
            cuts += [random_nonopposite_cut(w.n, rng) for _ in range(6)]
        for P in cuts:
            assert cost(P, w) == oracle_cost(P, w)
            ends = zip(w.nums.tolist(), w.u, w.v)
            cut_nums = sum(m for m, a, b in ends if P.label_array[a] != P.label_array[b])
            past_int64 += cut_nums >= 2**63
    assert past_int64 > 0


def test_inputs_are_owned():
    w3 = build_w3(3)
    P = random_nonopposite_cut(3, random.Random(5))
    labels, weights = dict(P.labels), dict(w3.weights)
    Q = Cut(3, 3, labels, NONOPPOSITE)
    w = WeightFunction(3, 3, weights)
    expected = cost(P, w3)
    edge = next(e for e in weights if P.labels[e[0]] != P.labels[e[1]])
    weights[edge] += 1  # before the first cost: the stored numerators must not see it
    x = next(x for x in labels if max(x) < 3 and labels[x] != 3)
    labels[x] = 3
    assert Q.labels == P.labels and w.weights == w3.weights
    assert cost(Q, w) == expected
    weights[edge] += 1
    labels.clear()
    assert cost(Q, w) == expected


def test_weight_function_never_enumerates_its_grid():
    before = core.enumerate_points.cache_info()
    e = canonical_edge((60,) + (0,) * 39, (59, 1) + (0,) * 38)
    w = WeightFunction(40, 60, {e: Fraction(1, 3)})  # Delta_{40,60} has about 10**27 points
    assert lpc(w) == Fraction(1, 180)
    assert w.scaled(Fraction(2)).total() == Fraction(2, 3)
    assert core.enumerate_points.cache_info() == before


def test_weight_function_admits_only_grid_edges():
    # two points of Delta_{3,3} that are not adjacent, and a point paired with itself
    for x, y in (((0, 0, 3), (2, 1, 0)), ((0, 1, 2), (0, 1, 2))):
        with pytest.raises(ValueError, match="not one unit transfer apart"):
            WeightFunction(3, 3, {(x, y): Fraction(1)})
    # off the grid: wrong sum, length or sign, or a non-integer coordinate
    for x in ((0, 0, 4), (0, 3), (-1, 1, 3), (0, 1.5, 1.5), (0, 0, 3, 0)):
        with pytest.raises(ValueError, match="is not a point of"):
            WeightFunction(3, 3, {canonical_edge(x, (0, 1, 2)): Fraction(1)})
    # every edge of the grid is admitted, in canonical order only
    edges = enumerate_edges(3, 3)
    assert len(WeightFunction(3, 3, dict.fromkeys(edges, Fraction(1))).weights) == len(edges)
    x, y = edges[0]
    with pytest.raises(ValueError, match="canonically ordered"):
        WeightFunction(3, 3, {(y, x): Fraction(1)})


@pytest.mark.parametrize(
    "value, message",
    [
        (0.25, "0.25 on {e} is not an int or Fraction"),
        ("1/4", "'1/4' on {e} is not an int or Fraction"),
        (None, "None on {e} is not an int or Fraction"),
        (-1, "negative weight -1 on {e}"),
        (Fraction(-1, 4), "negative weight -1/4 on {e}"),
    ],
)
def test_weight_function_rejects_weights_off_the_nonnegative_rationals(value, message):
    e = enumerate_edges(3, 2)[0]
    with pytest.raises(ValueError, match=re.escape(message.format(e=e))):
        WeightFunction(3, 2, {e: value})


@pytest.mark.parametrize("k, n", [(2, 7), (3, 45), (4, 5), (8, 6), (12, 3), (20, 5)])
def test_point_rank_is_the_point_order(k, n):
    ranks = point_rank(np.array(enumerate_points(k, n)), n)
    assert ranks.dtype == np.intp and ranks.tolist() == list(range(comb(n + k - 1, k - 1)))
    assert point_unrank(ranks, k, n).tolist() == list(map(list, enumerate_points(k, n)))


def test_point_rank_past_int64_never_enumerates_its_grid():
    before = core.enumerate_points.cache_info()
    top = comb(99, 39) - 1
    assert top == 5498493658321124600506947887
    ranks = point_rank(np.array([(60,) + (0,) * 39, (59, 1) + (0,) * 38]), 60)
    assert ranks.dtype == object and ranks.tolist() == [top, top - 1]
    assert point_unrank(ranks, 40, 60).tolist() == [[60] + [0] * 39, [59, 1] + [0] * 38]
    assert core.enumerate_points.cache_info() == before


def test_instance_past_the_grid_gate_serializes_without_enumerating():
    # digest and lpc as before the weights were stored as numerators
    before = core.enumerate_points.cache_info()
    e = canonical_edge((60,) + (0,) * 39, (59, 1) + (0,) * 38)
    w = WeightFunction(40, 60, {e: Fraction(1, 3)})
    assert w.get(*e) == Fraction(1, 3) and list(w.weights) == [e]
    assert instance_digest(w) == "13091747909dfe10641a62d3b980afe6ff248aab19f82762fd7f96aae21bebdd"
    assert lpc(w) == Fraction(1, 180)
    assert core.enumerate_points.cache_info() == before


def test_weight_function_stores_reduced_numerators_by_rank():
    e, f, g = (enumerate_edges(3, 3)[j] for j in (0, 1, 5))
    w = WeightFunction(3, 3, {f: Fraction(1, 4), g: 0, e: Fraction(2, 4)})  # any dict order
    index = point_index(3, 3)
    assert w.denominator == 4 and w.nums.tolist() == [2, 1] and w.nums.dtype == np.int64  # the zero is dropped
    assert w.u.tolist() == [index[x] for x, _ in (e, f)] and w.v.tolist() == [index[y] for _, y in (e, f)]
    assert all(not a.flags.writeable for a in (w.u, w.v, w.nums))
    assert list(w.weights) == [e, f] and list(w.weights.values()) == [Fraction(1, 2), Fraction(1, 4)]
    with pytest.raises(TypeError):
        w.weights[e] = Fraction(1)  # a view of the arrays, so read-only
    doubled = w.scaled(2)
    assert doubled.denominator == 2 and doubled.nums.tolist() == [2, 1] and len(doubled.weights) == 2
    assert WeightFunction(3, 3, {e: Fraction(1, 2), f: Fraction(1, 4)}) == w
    assert w.scaled(0) == WeightFunction(3, 3) and w.scaled(0).denominator == 1
    with pytest.raises(ValueError, match="negative scale"):
        w.scaled(-1)


def test_from_numerators_checks_its_arrays():
    u, v = edge_index(3, 3)
    w = WeightFunction.from_numerators(3, 3, 12, u, v, np.arange(len(u)) * 2)
    assert w == WeightFunction(3, 3, {e: Fraction(2 * j, 12) for j, e in enumerate(enumerate_edges(3, 3))})
    assert w.denominator == 6
    # np.asarray([]) is float64, which the numerator check lets through
    assert WeightFunction.from_numerators(3, 3, 1, [], [], []) == WeightFunction(3, 3) == WeightFunction(3, 3, {})
    cases = [
        ((u - 1, v, [1] * len(u)), "0 <= u < v < 10"),  # a rank below the grid
        ((u, v + 1, [1] * len(u)), "0 <= u < v < 10"),  # v past the last point
        ((v, u, [1] * len(u)), "0 <= u < v < 10"),  # ends swapped
        ((u[::-1], v[::-1], [1] * len(u)), "enumerate_edges order"),
        ((u[[0, 0]], v[[0, 0]], [1, 1]), "enumerate_edges order"),  # an edge twice
        (([0], [9], [1]), "not one unit transfer apart"),
        ((u, v, [1] * (len(u) - 1) + [-1]), "negative weight numerator -1"),
        ((u, v, [1] * (len(u) - 1)), "one u, v and numerator per edge"),  # a numerator short
        ((u, v[:-1], [1] * len(u)), "one u, v and numerator per edge"),
    ]
    for (a, b, nums), message in cases:
        with pytest.raises(ValueError, match=message):
            WeightFunction.from_numerators(3, 3, 1, a, b, nums)
    for D in (0, -1):
        with pytest.raises(ValueError, match=f"denominator >= 1 .*, got {D}"):
            WeightFunction.from_numerators(3, 3, D, u, v, [1] * len(u))


def test_from_numerators_refuses_float_ranks_by_value():
    # read as intp, 0.7 and 1.2 would truncate to the edge of ranks (0, 1)
    for u, v, bad in (([0.7], [1], "0.7"), ([0], [1.2], "1.2"), ([0.0], [1.0], "0.0"), (np.array([0.0]), [1], "0.0")):
        with pytest.raises(ValueError, match=f"rank {bad} is not an integer"):
            WeightFunction.from_numerators(3, 3, 1, u, v, [1])
    assert WeightFunction.from_numerators(3, 3, 1, [0], [1], [1]).u.tolist() == [0]


def test_numerators_past_int64_beside_a_negative_one_name_the_negative_weight():
    # np.asarray([2**63, -1]) is float64, which would name 2**63 as a non-integer
    with pytest.raises(ValueError, match="negative weight numerator -1"):
        WeightFunction.from_numerators(3, 3, 1, [0, 1], [1, 2], [2**63, -1])
    w = WeightFunction.from_numerators(3, 3, 1, [0, 1], [1, 2], [2**63, 1])
    assert w.nums.tolist() == [2**63, 1]


def test_from_numerators_orders_rank_pairs_whose_keys_pass_int64():
    # Delta_{40,10} has 8,217,822,536 points, so u * count + v would wrap int64 on these pairs
    u, v = [2876736711, 4548614414], [2879872502, 4548625109]
    x, y = point_unrank(np.array([u, v]), 40, 10)
    assert (np.abs(x - y).sum(axis=1) == 2).all()
    edges = [(tuple(a), tuple(b)) for a, b in zip(x.tolist(), y.tolist())]
    w = WeightFunction.from_numerators(40, 10, 3, u, v, [1, 2])
    assert w == WeightFunction(40, 10, {edges[0]: Fraction(1, 3), edges[1]: Fraction(2, 3)})
    with pytest.raises(ValueError, match="enumerate_edges order"):
        WeightFunction.from_numerators(40, 10, 3, u[::-1], v[::-1], [1, 2])


def test_the_weight_check_unranks_in_bounded_blocks():
    # 91,260 edges on 40 coordinates: unranked at once, the (2, edges, 40) ends alone take 58 MB
    w = build_w_hat(40, 3)
    tracemalloc.start()
    try:
        assert WeightFunction.from_numerators(40, 3, w.denominator, w.u, w.v, w.nums) == w
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w.nums) == 91260 and peak < 24 * 10**6


def test_zero_weights_are_not_stored():
    e, f = enumerate_edges(3, 3)[:2]
    u, v = edge_index(3, 3)
    plain = WeightFunction(3, 3, {e: Fraction(1, 2)})
    zero_dict = WeightFunction(3, 3, {e: Fraction(1, 2), f: 0})
    zero_arrays = WeightFunction.from_numerators(3, 3, 4, u, v, [2] + [0] * (len(u) - 1))
    for w in (plain, zero_dict, zero_arrays):
        assert w == plain and instance_digest(w) == instance_digest(plain)
        assert obj_to_instance(instance_to_obj(w)) == w and w.scaled(1) == w


def _every_builder():
    ws = [build_w3(n) for n in (3, 6, 30, 45)] + [build_fk()]
    for k, n in ((5, 3), (8, 6), (12, 3)):
        ws += [build_w_hat(k, n), build_w_prime(k, n), build_w_tilde(k, n)]
    return ws


def test_the_dict_of_every_weight_function_rebuilds_it():
    searched = [search(n).weights for n in range(3, 7)]
    assert all(max(q.denominator for q in w.weights.values()) > 2**50 for w in searched)
    crafted = _crafted_instances()
    assert all(w.nums.dtype == object for w in crafted)
    u, v = edge_index(3, 3)
    rng = random.Random(5)
    drawn = [WeightFunction.from_numerators(3, 3, 8, u, v, [rng.randrange(0, 3) for _ in u]) for _ in range(5)]
    assert all(0 < len(w.nums) < len(u) for w in drawn)  # zeros were drawn, and none is stored
    for w in _every_builder() + searched + crafted + drawn:
        assert (w.nums > 0).all()
        assert WeightFunction(w.k, w.n, w.weights) == w
        assert lpc(w) == sum(w.weights.values()) / w.n


def test_kernels_never_build_the_weights_view():
    # what the triangle benchmark job runs: build_w3, certify twice, check_potentials
    for n in (3, 6, 45):
        w = build_w3(n)
        assert certify(n, w, NONOPPOSITE, Fraction(1)).passed
        assert certify(n, w, THREEWAY, Fraction(2, 3)).passed
        assert check_potentials(n, w).ok
        assert "weights" not in vars(w)
    w = build_w_tilde(8, 6)
    assert "weights" not in vars(w)
    P = random_kway_cut(8, 6, random.Random(3))
    assert cost(P, w) >= 1
    assert "weights" not in vars(w)


def test_numerators_just_past_int64_take_python_ints(monkeypatch):
    # 18 integer weights of Delta_{3,3}, each below 2**63 / 16, totalling 2**63 + 1:
    # an int64 sum would wrap to -2**63 + 1
    edges = enumerate_edges(3, 3)
    q = 2**63 // len(edges)
    nums = [q] * (len(edges) - 1) + [2**63 + 1 - q * (len(edges) - 1)]
    assert max(nums) < 2**63 // 16 and sum(nums) == 2**63 + 1
    w = WeightFunction(3, 3, dict(zip(edges, nums)))
    assert w.nums.dtype == object and w.denominator == 1
    assert np.array(nums, np.int64).sum() < 0  # the trap
    rng = random.Random(8)
    cuts = [random_kway_cut(3, 3, rng) for _ in range(8)] + [random_nonopposite_cut(3, rng) for _ in range(8)]
    for P in cuts:
        assert cost(P, w) == oracle_cost(P, w)
    assert lpc(w) == Fraction(2**63 + 1, 3)
    runs = []
    kernel = dual_module._shortest_paths
    monkeypatch.setattr(dual_module, "_shortest_paths", lambda g, sources: runs.append(sources) or kernel(g, sources))
    cert = certify(3, w, NONOPPOSITE, Fraction(1))
    assert len(runs) == 1 and cert.passed
