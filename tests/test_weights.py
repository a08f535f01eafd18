"""Weight-family constructors and their exact totals and symmetries."""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from mwgap.core import WeightFunction, enumerate_edges, lpc, support
from mwgap.weights import (
    _lifted,
    _line,
    build_fk,
    build_w3,
    build_w_hat,
    build_w_prime,
    build_w_tilde,
    lpc_w3_closed,
    lpc_w_tilde_closed,
)


def edge_direction(x, y):
    """(constant index c, moving index a, moving index b) for a triangle edge.

    The edge is parallel to the side spanned by vertices a and b, with a < b.
    """
    diff = [i for i in range(3) if x[i] != y[i]]
    (c,) = (i for i in range(3) if i not in diff)
    return c, diff[0], diff[1]


def oracle_build_w3(n):
    """Oracle for build_w3: the paper's rule, edge by edge, in `Fraction`s."""
    rho = Fraction(1, 2 * n)
    third = n // 3
    weights = {}
    for x, y in enumerate_edges(3, n):
        c, a, b = edge_direction(x, y)
        m = x[c]
        if 3 * m > 2 * n:
            continue  # weight zero
        if m == 0:
            u = min(x[a], y[a])
            v = min(x[b], y[b])
            if v < third:
                wgt = (third - v) * rho
            elif u < third:
                wgt = (third - u) * rho
            else:
                wgt = rho
        else:
            wgt = rho
        weights[(x, y)] = wgt
    return WeightFunction(3, n, weights)


def build_w_hat_literal(k, n):
    """Oracle for build_w_hat: every edge of E_{k,n}, with the w3 weight of
    its projection averaged over the C(k,3) faces whose span holds it."""
    w3 = build_w3(n)
    weights = {}
    for x, y in enumerate_edges(k, n):
        spanned = support(x) | support(y)
        acc = sum(
            (
                w3.get(tuple(x[i] for i in face), tuple(y[i] for i in face))
                for face in itertools.combinations(range(k), 3)
                if spanned <= set(face)
            ),
            Fraction(0),
        )
        if acc != 0:
            weights[(x, y)] = acc / comb(k, 3)
    return weights


def build_w_prime_literal(k, n):
    """Oracle for build_w_prime: the edges of E_{k,n} spanning exactly two coordinates."""
    return {
        (x, y): Fraction(1, comb(k, 2))
        for x, y in enumerate_edges(k, n)
        if len(support(x) | support(y)) == 2
    }


def test_w3_requires_divisible_n():
    for bad in (0, 1, 2, 4, 7):
        with pytest.raises(ValueError):
            build_w3(bad)


def test_build_w3_matches_loop_oracle():
    for n in range(3, 46, 3):
        fast, want = build_w3(n).weights, oracle_build_w3(n).weights
        assert fast == want
        assert list(fast) == list(want)


def test_w3_smallest_instance_exact_weights():
    # n = 3: rho = 1/6, every side edge ramps 1/6..1/6 (n/3 = 1), and the
    # single innermost edge in each direction parallel to the far side drops out.
    w = build_w3(3)
    rho = Fraction(1, 6)
    assert w.get((0, 0, 3), (0, 1, 2)) == rho
    assert w.get((1, 1, 1), (2, 1, 0)) == rho
    # inside T_0 parallel to the side x_0 = 0: zero => absent
    assert w.get((3, 0, 0), (2, 1, 0)) == rho  # side edge, ramp value (n/3) rho = rho
    assert lpc(w) == 1


def test_w3_per_direction_totals():
    # each parallel class carries (5 n^2 / 9 + n / 3) rho in total
    for n in (3, 6, 9, 12):
        w = build_w3(n)
        rho = Fraction(1, 2 * n)
        expect = (Fraction(5 * n * n, 9) + Fraction(n, 3)) * rho
        for c in range(3):
            tot = sum(
                w.get(x, y) for x, y in enumerate_edges(3, n) if edge_direction(x, y)[0] == c
            )
            assert tot == expect


def test_w3_symmetric_under_coordinate_permutation():
    n = 9
    w = build_w3(n)
    for perm in itertools.permutations(range(3)):
        for x, y in enumerate_edges(3, n):
            px = tuple(x[perm[i]] for i in range(3))
            py = tuple(y[perm[i]] for i in range(3))
            assert w.get(px, py) == w.get(x, y)


def test_w3_zero_edges_are_exactly_the_deep_parallel_ones():
    n = 9
    w = build_w3(n)
    for x, y in enumerate_edges(3, n):
        c, _, _ = edge_direction(x, y)
        inside = 3 * x[c] > 2 * n
        assert (w.get(x, y) == 0) == inside


def test_fk_total():
    w = build_fk()
    assert w.k == 3 and w.n == 2
    assert lpc(w) == Fraction(7, 8)
    assert w.total() == Fraction(7, 4)


def oracle_build_fk():
    """The dict construction: 1/6 on an edge at a simplex vertex, 1/4 between middle points."""
    edges = enumerate_edges(3, 2)
    return WeightFunction(3, 2, {(x, y): Fraction(1, 6 if 2 in x + y else 4) for x, y in edges})


def oracle_line(n):
    return WeightFunction(2, n, dict.fromkeys(enumerate_edges(2, n), 1))


def test_fk_and_line_match_dict_oracles():
    pairs = [(build_fk(), oracle_build_fk())] + [(_line(n), oracle_line(n)) for n in range(1, 13)]
    for fast, slow in pairs:
        assert fast == slow
        assert fast.nums.dtype == slow.nums.dtype == np.int64 and fast.u.dtype == slow.u.dtype
    assert build_fk().denominator == 12 and build_fk().nums.tolist().count(2) == 6


def test_w_hat_shortcut_matches_literal_average():
    for k, n in ((3, 3), (4, 3), (5, 3), (4, 6), (8, 3), (8, 6), (12, 3)):
        fast = build_w_hat(k, n)
        slow = build_w_hat_literal(k, n)
        assert fast.weights == slow
        assert list(fast.weights) == list(slow)  # enumerate_edges order


def test_w_prime_and_w_tilde_match_literal():
    for k, n in ((3, 3), (4, 6), (6, 3), (8, 3), (8, 6), (12, 3)):
        prime = build_w_prime_literal(k, n)
        fast = build_w_prime(k, n).weights
        assert fast == prime
        assert list(fast) == list(prime)  # enumerate_edges order
        hat = build_w_hat_literal(k, n)
        a, b = Fraction(k - 2, k - 1), Fraction(1, k - 1)
        literal = {
            e: a * hat.get(e, 0) + b * prime.get(e, 0) for e in enumerate_edges(k, n) if e in hat or e in prime
        }
        fast = build_w_tilde(k, n).weights
        assert fast == literal
        assert list(fast) == list(literal)


def test_lifted_sum_rejects_numerators_beyond_int64():
    with pytest.raises(ValueError, match="exceed int64"):
        _lifted(4, 3, [(Fraction(2**62), build_w3(3))])


def test_w_hat_at_k3_is_w3():
    assert build_w_hat(3, 6).weights == build_w3(6).weights


def test_w_prime_mass_on_two_terminal_lines():
    k, n = 5, 3
    w = build_w_prime(k, n)
    pairs = comb(k, 2)
    for (x, y), v in w.weights.items():
        union = {i for i in range(k) if x[i] or y[i]}
        assert len(union) == 2
        assert v == Fraction(1, pairs)
    assert lpc(w) == 1


def test_w_tilde_closed_forms():
    for k in range(3, 9):
        for n in (3, 6, 9):
            assert lpc(build_w_tilde(k, n)) == lpc_w_tilde_closed(k, n)
    assert lpc_w3_closed(9) == Fraction(8, 9)
    assert lpc_w_tilde_closed(3, 9) == Fraction(17, 18)
    assert lpc_w_tilde_closed(8, 30) == Fraction(61, 70)


def test_gap_ratio_at_large_scale():
    # certified 1 against lpc gives the headline ratio 6/(5 + 1/(k-1)) as n grows
    k = 8
    assert 1 / lpc_w_tilde_closed(k, 30) == Fraction(70, 61)
    asymptote = Fraction(6 * (k - 1), 5 * (k - 1) + 1)
    assert abs(1 / lpc_w_tilde_closed(k, 3000) - asymptote) < Fraction(1, 1000)
