"""Constructors for the gap weight functions on simplex grids.

Five families:
  build_w3      — the triangle gap with corner triangles and middle hexagon
  build_fk      — the classic n = 2 lower-bound instance with lpc = 7/8
  build_w_hat   — build_w3 averaged over the C(k,3) faces of the k-simplex
                  spanned by three terminals
  build_w_prime — uniform weight on the lines between terminals
  build_w_tilde — the convex combination of the last two that pushes every
                  k-way cut cost to at least one

Every family hands `WeightFunction.from_numerators` integer arrays on
the cached edge endpoints `core.edge_index` (`build_fk` finds its
terminals in `core.terminal_ranks`); the k-way families are one lifted
integer sum, `_lifted`, over the cached `core.sorted_face_gather`, and
E_{k,n} is never enumerated.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Optional

import numpy as np

from .core import WeightFunction, edge_index, point_array, sorted_face_gather, terminal_ranks


def build_w3(n: int) -> WeightFunction:
    """The triangle gap: lpc = 5/6 + 1/(2n), every non-opposite cut costs >= 1.

    Edges strictly inside corner triangle T_c parallel to the side opposite
    e^c get weight 0; side edges ramp from (n/3)*rho next to a terminal down
    to rho at the hexagon; everything else gets rho = 1/(2n).

    The weights are numerators over 2n, computed on the edge endpoints
    `edge_index(3, n)`, the arrays the weight function keeps.
    """
    if n < 3 or n % 3 != 0:
        raise ValueError(f"construction needs n >= 3 divisible by 3, got {n}")
    uv = edge_index(3, n)
    x, y = point_array(3, n)[uv]
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
    return WeightFunction.from_numerators(3, n, 2 * n, *uv[:, num > 0], num[num > 0])


def build_fk() -> WeightFunction:
    """The classic n = 2 triangle instance with lpc = 7/8: 1/6 from a simplex
    vertex to a middle point, 1/4 between middle points, over 12."""
    uv = edge_index(3, 2)
    corner = np.isin(uv, terminal_ranks(3, 2)).any(axis=0)
    return WeightFunction.from_numerators(3, 2, 12, *uv, np.where(corner, 2, 3))


def _line(n: int) -> WeightFunction:
    """Weight 1 on every edge of Delta_{2,n}, the line between two terminals."""
    uv = edge_index(2, n)
    return WeightFunction.from_numerators(2, n, 1, *uv, np.ones(uv.shape[1], np.int64))


def _lifted(k: int, n: int, terms: list[tuple[Fraction, WeightFunction]]) -> WeightFunction:
    """Sum of c * w over the terms (c, w), each w placed on every sorted face
    of [k] of its size by `sorted_face_gather` (so edges stay canonical), as
    int64 numerators over one denominator L."""
    count = len(point_array(k, n))
    L = lcm(*(c.denominator * w.denominator for c, w in terms))
    keys, nums, bound = [], [], 0
    for c, w in terms:
        gather = sorted_face_gather(k, n, w.k)
        scale = c.numerator * (L // (c.denominator * w.denominator))
        bound += len(gather) * sum(w.nums.tolist()) * scale
        if bound >= 2**63:
            raise ValueError(f"the numerators of the ({k}, {n}) sum over denominator {L} exceed int64")
        keys.append((gather[:, w.u] * count + gather[:, w.v]).ravel())
        nums.append(np.tile(w.nums * scale, len(gather)))
    key, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    total = np.zeros(len(key), np.int64)
    np.add.at(total, inverse, np.concatenate(nums))
    return WeightFunction.from_numerators(k, n, L, *np.divmod(key, count), total)


def build_w_hat(k: int, n: int) -> WeightFunction:
    """Average of build_w3 placed on every 3-element face of [k]; an edge
    on s < 3 coordinates collects one share from each face holding it."""
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    return _lifted(k, n, [(Fraction(1, comb(k, 3)), build_w3(n))])


def build_w_prime(k: int, n: int) -> WeightFunction:
    """Weight 1/C(k,2) on every edge lying on a line between two terminals."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _lifted(k, n, [(Fraction(1, comb(k, 2)), _line(n))])


def build_w_tilde(k: int, n: int) -> WeightFunction:
    """((k-2)/(k-1)) * w_hat + (1/(k-1)) * w_prime, as one lifted sum."""
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    hat, prime = Fraction(k - 2, (k - 1) * comb(k, 3)), Fraction(1, (k - 1) * comb(k, 2))
    return _lifted(k, n, [(hat, build_w3(n)), (prime, _line(n))])


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
