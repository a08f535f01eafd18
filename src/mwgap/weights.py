"""Constructors for the gap weight functions on simplex grids.

Five families:
  build_w3      — the triangle gap with corner triangles and middle hexagon
  build_fk      — the classic n = 2 lower-bound instance with lpc = 7/8
  build_w_hat   — build_w3 averaged over its embeddings into the C(k,3)
                  faces of the k-simplex (the 3-skeleton; E_{k,n} is never
                  enumerated)
  build_w_prime — uniform weight on the lines between terminals, embedded
                  directly
  build_w_tilde — the convex combination of the last two that pushes every
                  k-way cut cost to at least one
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import comb

from .core import Edge, Point, WeightFunction, combine, embed, enumerate_edges


def _require_divisible(n: int) -> None:
    if n < 3 or n % 3 != 0:
        raise ValueError(f"construction needs n >= 3 divisible by 3, got {n}")


def edge_direction(x: Point, y: Point) -> tuple[int, int, int]:
    """(constant index c, moving index a, moving index b) for a triangle edge.

    The edge is parallel to the side spanned by vertices a and b, with a < b.
    """
    diff = [i for i in range(3) if x[i] != y[i]]
    (c,) = (i for i in range(3) if i not in diff)
    return c, diff[0], diff[1]


def build_w3(n: int) -> WeightFunction:
    """The triangle gap: lpc = 5/6 + 1/(2n), every non-opposite cut costs >= 1.

    Edges strictly inside corner triangle T_c parallel to the side opposite
    e^c get weight 0; side edges ramp from (n/3)*rho next to a terminal down
    to rho at the hexagon; everything else gets rho = 1/(2n).
    """
    _require_divisible(n)
    rho = Fraction(1, 2 * n)
    third = n // 3
    weights: dict[Edge, Fraction] = {}
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


def build_fk() -> WeightFunction:
    """The classic n = 2 triangle instance with lpc = 7/8."""
    weights: dict[Edge, Fraction] = {}
    for x, y in enumerate_edges(3, 2):
        if max(x) == 2 or max(y) == 2:
            weights[(x, y)] = Fraction(1, 6)  # simplex vertex to middle point
        else:
            weights[(x, y)] = Fraction(1, 4)  # middle point to middle point
    return WeightFunction(3, 2, weights)


def build_w_hat(k: int, n: int) -> WeightFunction:
    """Average of build_w3 embedded into every 3-element face of [k].

    Each face is sorted, so embedding keeps every w3 edge canonical; an
    edge on s < 3 coordinates collects one share from each face holding it.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    _require_divisible(n)
    w3 = build_w3(n).weights
    share = Fraction(1, comb(k, 3))
    weights: dict[Edge, Fraction] = defaultdict(Fraction)
    for face in combinations(range(k), 3):
        for (x, y), val in w3.items():
            weights[(embed(x, face, k), embed(y, face, k))] += share * val
    return WeightFunction(k, n, dict(weights))


def build_w_prime(k: int, n: int) -> WeightFunction:
    """Weight 1/C(k,2) on every edge lying on a line between two terminals."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    val = Fraction(1, comb(k, 2))
    weights: dict[Edge, Fraction] = {}
    for pair in combinations(range(k), 2):
        for t in range(n):
            weights[(embed((t, n - t), pair, k), embed((t + 1, n - t - 1), pair, k))] = val
    return WeightFunction(k, n, weights)


def build_w_tilde(k: int, n: int) -> WeightFunction:
    """((k-2)/(k-1)) * w_hat + (1/(k-1)) * w_prime."""
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    _require_divisible(n)
    return combine(
        Fraction(k - 2, k - 1),
        build_w_hat(k, n),
        Fraction(1, k - 1),
        build_w_prime(k, n),
    )


def lpc_w3_closed(n: int) -> Fraction:
    return Fraction(5, 6) + Fraction(1, 2 * n)


def lpc_w_tilde_closed(k: int, n: int) -> Fraction:
    return Fraction(k - 2, k - 1) * lpc_w3_closed(n) + Fraction(1, k - 1)


BUILDERS = {
    "w3": lambda k, n: build_w3(n),
    "fk": lambda k, n: build_fk(),
    "what": build_w_hat,
    "wprime": build_w_prime,
    "wtilde": build_w_tilde,
}
