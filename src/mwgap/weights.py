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
from typing import Optional

import numpy as np

from .core import Edge, WeightFunction, _edges, _points, combine, embed, enumerate_edges
from .dual import dual_topology


def _require_divisible(n: int) -> None:
    if n < 3 or n % 3 != 0:
        raise ValueError(f"construction needs n >= 3 divisible by 3, got {n}")


def build_w3(n: int) -> WeightFunction:
    """The triangle gap: lpc = 5/6 + 1/(2n), every non-opposite cut costs >= 1.

    Edges strictly inside corner triangle T_c parallel to the side opposite
    e^c get weight 0; side edges ramp from (n/3)*rho next to a terminal down
    to rho at the hexagon; everything else gets rho = 1/(2n).

    The weights are numerators over 2n, computed on the edge arrays of
    `dual_topology(n)`; the dict lists the edges in `enumerate_edges` order.
    """
    _require_divisible(n)
    topo = dual_topology(n)
    points = np.array(_points(3, n))
    x, y = points[topo.edge_u], points[topo.edge_v]
    # an edge moves coordinates a < b by one each and keeps c at m
    c = np.argmax(x == y, axis=1)
    a = np.where(c == 0, 1, 0)
    b = np.where(c == 2, 1, 2)
    low = np.minimum(x, y)
    rows = np.arange(len(low))
    m, u, v = low[rows, c], low[rows, a], low[rows, b]
    third = n // 3
    ramp = np.where(v < third, third - v, np.where(u < third, third - u, 1))
    num = np.where(3 * m > 2 * n, 0, np.where(m == 0, ramp, 1))
    rho = [Fraction(j, 2 * n) for j in range(third + 1)]
    return WeightFunction(3, n, {e: rho[j] for e, j in zip(_edges(3, n), num.tolist()) if j})


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


DEFAULT_N = 3


def _require_fixed(family: str, axis: str, given: Optional[int], fixed: int) -> None:
    if given is not None and given != fixed:
        raise ValueError(f"{family} is defined only for {axis} = {fixed}, got {axis} = {given}")


def _w3_on(k: int, n: Optional[int]) -> WeightFunction:
    _require_fixed("w3", "k", k, 3)
    return build_w3(DEFAULT_N if n is None else n)


def _fk_on(k: int, n: Optional[int]) -> WeightFunction:
    _require_fixed("fk", "k", k, 3)
    _require_fixed("fk", "n", n, 2)
    return build_fk()


def _kway_on(build):
    return lambda k, n: build(k, DEFAULT_N if n is None else n)


# Families by name, each built on the grid (k, n), where n is None when
# not given (then DEFAULT_N).  A family on a fixed grid (w3 on k = 3, fk
# on k = 3, n = 2) raises ValueError for any other k or given n.
BUILDERS = {
    "w3": _w3_on,
    "fk": _fk_on,
    "what": _kway_on(build_w_hat),
    "wprime": _kway_on(build_w_prime),
    "wtilde": _kway_on(build_w_tilde),
}
