"""Grid simplex primitives: points, edges, weight functions, cuts."""

import random
from fractions import Fraction
from math import comb

import pytest

from mwgap.core import (
    Cut,
    KWAY,
    NONOPPOSITE,
    WeightFunction,
    canonical_edge,
    combine,
    cost,
    enumerate_edges,
    enumerate_points,
    lpc,
    neighbors,
    random_kway_cut,
    random_nonopposite_cut,
    support,
    terminal,
)


def test_point_count_is_stars_and_bars():
    for k in (2, 3, 4, 5):
        for n in (1, 2, 3, 5):
            assert len(enumerate_points(k, n)) == comb(n + k - 1, k - 1)


def test_points_sum_to_n_and_are_sorted():
    pts = enumerate_points(3, 4)
    assert all(sum(p) == 4 for p in pts)
    assert pts == sorted(pts)
    assert len(set(pts)) == len(pts)


def test_points_are_a_fresh_list_each_call():
    pts = enumerate_points(3, 4)
    pts.pop()
    pts[0] = (9, 9, 9)
    assert enumerate_points(3, 4) == sorted(enumerate_points(3, 4))
    assert len(enumerate_points(3, 4)) == comb(6, 2)


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


def test_scaled_and_combine():
    e1 = canonical_edge((2, 0, 0), (1, 1, 0))
    w1 = WeightFunction(3, 2, {e1: Fraction(1, 2)})
    w2 = WeightFunction(3, 2, {e1: Fraction(1, 3)})
    s = w1.scaled(Fraction(4))
    assert s.get(*e1) == 2
    c = combine(Fraction(1, 2), w1, Fraction(1, 2), w2)
    assert c.get(*e1) == Fraction(5, 12)


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
