"""Monte-Carlo estimator of the maximum separation density of the
two-part distribution on non-opposite triangle cuts.

A draw is a corner cut with probability P_CORNER = 1/5, else a ball cut.

* A corner cut with threshold r in [2/3, 1) labels x with i iff x_i > r,
  and with EXTRA if no coordinate exceeds r (at most one can).
* A ball cut has its centre r inside one of two diagonals, picked by a
  fair coin: (2/3, 1/3, 0)-(0, 2/3, 1/3) or (2/3, 0, 1/3)-(0, 1/3, 2/3).
  Three chords from r, one ending on each side, split the triangle into
  three corner regions.  The lines x_a = r_a (a = 0, 1, 2) make six
  half-lines from r.  They cut the triangle into three corner sectors,
  where only x_c > r_c (holding e^c), alternating with three side sectors,
  where only x_s < r_s (touching side s, on which x_s = 0).  A fair coin
  per side s picks the chord to it among the half-lines of x_a = r_a,
  a != s; call that a lines[s].  The chord parts side sector s from the
  corner sector of the third index, so side sector s joins corner
  lines[s].  Hence x is labelled

    * c, if x_c > r_c is its only coordinate above r;
    * lines[s], if two coordinates are above r and x_s < r_s;

  and x lies on a chord, with no label, if x = r or if exactly one
  coordinate l has x_l < r_l and x_b = r_b for b = lines[l].

All geometry is exact: cut parameters are rationals drawn from a fixed
2^20-cell discretization of the parameter intervals.  A label follows
from the signs of x_i - r_i alone (r_i = r for a corner cut); on the
n-grid that is p_i > floor(n r_i).  A cut whose chords meet a grid point
is detected exactly and redrawn, mirroring the almost-sure
non-degeneracy of continuous sampling.  The grid is bounded once, by
the grid gate: `enumerate_points(3, n)` refuses more than `core.MAX_POINTS`
points (n <= 1022), so one draw's label row, 2^19 points at most, always
fits LABEL_BYTES = 2^25 bytes.

So a draw's labels on the n-grid are fixed by its class: the three
floors floor(n r_i), its three chord lines, and whether it is a corner
cut (a corner cut never reads its chord lines, so all corner cuts with
one threshold floor share a class).  `estimate_density` keeps only each
draw's class key, `_class_keys`, computed KEY_BLOCK draws at a time so
that the key arithmetic runs in cache, counts the draws of each key and
labels each class from its key.  The key kernel does a few flat int64
operations per draw: all three centre coordinates are affine in the one
product n * jt, and the exact chord-line test for degeneracy runs only
on the rare draws where that product is a multiple of PARAM_CELLS / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt

import numpy as np

from .core import EXTRA, Point, edge_index, enumerate_edges, enumerate_points

# The paper's mixture: a corner cut with this probability, else a ball cut.
P_CORNER = Fraction(1, 5)

# Cells in the discretized parameter intervals.
PARAM_CELLS = 1 << 20

# Cap on the largest array of one batch: the int8 label matrix (classes x
# grid points, with never more classes than draws) and the compare matrix
# of one chunk of edges.  A batch's draw arrays take 49 bytes per draw;
# their class keys are computed KEY_BLOCK draws at a time, so the key
# kernel's temporaries scale with KEY_BLOCK, not with the batch.
LABEL_BYTES = 1 << 25

# Draws keyed at once by `_class_keys`: its temporaries, about ten KEY_BLOCK
# int64 arrays at 64 KiB each, stay in a core's L2 cache.
KEY_BLOCK = 1 << 13


def _batch_size(n: int) -> int:
    """Draws per labelling batch on the n-grid: 200,000 for n <= 16, fewer
    above so that the label matrix stays within LABEL_BYTES."""
    return min(200_000, LABEL_BYTES // comb(n + 2, 2))


def _draw_params(rng: np.random.Generator, count: int) -> dict:
    """`count` draws: corner threshold r = (2M + jr) / 3M; ball centre at
    jt / M along diagonal diag (0 < jt < M: strictly interior)."""
    M = PARAM_CELLS
    return {
        "is_corner": rng.integers(0, P_CORNER.denominator, count) < P_CORNER.numerator,
        "jr": rng.integers(0, M, count),
        "diag": rng.integers(0, 2, count).astype(np.int8),  # drawn as int64: the recorded stream
        "jt": rng.integers(1, M, count),
        "choice": rng.integers(0, 2, (count, 3)).astype(np.int8),
    }


def _class_keys(params: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(key, degenerate): one int64 per parametrized cut naming its class
    (module docstring), so that cuts with equal keys label the n-grid alike.

    The key is the floors floor(n r_i) (r_i = r for a corner cut) in base n
    (each is below n), then the chord lines in base 3: lines[s] is the
    coordinate index of the chord to side s.  The lines' digit is 0 for a
    corner cut and at least 9 for a ball cut (lines[0] > 0), so it also
    carries the corner flag.  degenerate flags the ball cuts with a grid
    point on a chord.  The chord on x_a = r_a to side s ends at the side
    point with x_s = 0, a grid point whenever the line holds any, so that
    happens iff some n r_a, a a chord line, is an integer.

    Each draw costs a few flat int64 operations on its block.  Over 3M
    (M = PARAM_CELLS) the ball centre's n r is (2nM - 2t, nM + t, t) on
    diagonal 0, its last two swapped on diagonal 1, for the one product
    t = n jt; so the floors are three divisions of t, and the swap is
    arithmetic on the last two base-n digits: f_1 n + f_2 = f_P n + f_Q +
    diag (f_Q - f_P)(n - 1).  The coin c_s = choice[:, s] picks the smaller
    (0) or larger (1) index other than s, so lines = (1 + c_0, 2 c_1, c_2)
    and the chord digit 9 lines[0] + 3 lines[1] + lines[2] is 9 + 9 c_0 +
    6 c_1 + c_2.  Every numerator is 0, n M or 2n M plus t or -2t, so 3M
    divides it only if M/2 divides t: the chord lines are resolved exactly
    on those rare rows alone.  The integers stay below 3 * PARAM_CELLS * n,
    far inside int64.
    """
    M = PARAM_CELLS
    key = np.empty(len(params["is_corner"]), np.int64)
    degenerate = np.zeros(key.size, bool)
    for start in range(0, key.size, KEY_BLOCK):
        block = slice(start, start + KEY_BLOCK)
        corner, diag, coins = params["is_corner"][block], params["diag"][block], params["choice"][block]
        t = n * np.asarray(params["jt"][block], np.int64)
        f_0, f_P, f_Q = (2 * n * M - 2 * t) // (3 * M), (n * M + t) // (3 * M), t // (3 * M)
        ball = ((f_0 * n + f_P) * n + f_Q + diag * (f_Q - f_P) * (n - 1)) * 27
        ball += 9 + 9 * coins[:, 0] + 6 * coins[:, 1] + coins[:, 2]
        floor_r = n * (2 * M + np.asarray(params["jr"][block], np.int64)) // (3 * M)
        key[block] = np.where(corner, floor_r * (27 * (n * n + n + 1)), ball)
        rare = np.flatnonzero((t & (M // 2 - 1)) == 0)
        if rare.size:
            u, d, c, rows = t[rare], np.asarray(diag[rare], np.int64), coins[rare], np.arange(rare.size)
            whole = np.stack([2 * n * M - 2 * u, u + (1 - d) * n * M, u + d * n * M]) % (3 * M) == 0
            on_chord = whole[1 + c[:, 0], rows] | whole[2 * c[:, 1], rows] | whole[c[:, 2], rows]
            degenerate[start + rare] = ~corner[rare] & on_chord
    return key, degenerate


def _class_labels(classes: np.ndarray, points: tuple[Point, ...], n: int) -> np.ndarray:
    """Labels of every grid point under every class key (`_class_keys`), of
    shape (len(classes), len(points)) with values in {0, 1, 2, EXTRA}, each
    point's column contiguous.

    This is the module docstring's rule on the grid: x_i > r_i iff
    p_i > floor(n r_i), and one table per class maps the three comparisons
    to a label.  The floors are the key's base-n digits above its base-3
    chord digit; a corner cut's digit 0 leaves the table's chord entries
    unread.
    """
    floors, chords = np.divmod(classes, 27)
    floor_nr = (floors // (n * n), floors // n % n, floors % n)
    count = len(classes)
    # table[row, code] with bit i of code set iff x_i > r_i; two bits set
    # (codes 6, 5, 3 have side 0, 1, 2 below) occur only for ball cuts
    table = np.empty((count, 8), np.int8)
    table[:] = (EXTRA, 0, 1, -1, 2, -1, -1, -1)
    table[:, 6], table[:, 5], table[:, 3] = chords // 9, chords // 3 % 3, chords % 3
    table, base = table.ravel(), 8 * np.arange(count)
    labels = np.empty((len(points), count), np.int8)
    for j, p in enumerate(points):
        code = (floor_nr[0] < p[0]) | ((floor_nr[1] < p[1]) << 1) | ((floor_nr[2] < p[2]) << 2)
        labels[j] = table[base + code]
    return labels.T


def _edge_chunk(classes: int) -> int:
    """Edges scored at once against `classes` labelled classes: their compare
    matrix, widened to int64 for the weighted sum, fits LABEL_BYTES."""
    return max(1, LABEL_BYTES // (8 * classes))


def _separations(labels: np.ndarray, counts: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """For each edge (eu[e], ev[e]), the sum of counts over the classes
    whose labels (one row each) differ on its endpoints."""
    by_point = labels.T  # one contiguous row per point
    step = _edge_chunk(counts.size)
    out = np.empty(eu.size, np.int64)
    for lo in range(0, eu.size, step):
        hi = lo + step
        out[lo:hi] = (by_point[eu[lo:hi]] != by_point[ev[lo:hi]]) @ counts
    return out


@dataclass
class PairStat:
    edge: tuple[Point, Point]
    separations: int
    p_hat: float
    sigma_tau: float  # binomial sigma of p_hat, on the density (tau) scale


@dataclass
class DensityEstimate:
    n: int
    samples: int
    seed: int
    pair_stats: list[PairStat]
    tau_hat: float
    worst_pair: tuple[Point, Point]
    ci3sigma: float  # 3 sigma of the worst pair, on the tau scale
    max_sigma_tau: float
    corner_fraction: float
    resampled: int


def estimate_density(n: int, samples: int, seed: int) -> DensityEstimate:
    """Monte-Carlo estimate of the maximum separation density on the grid.

    Only adjacent grid pairs are scored: any grid pair is joined by an
    L1-geodesic grid path and separation probability is subadditive along
    it, so adjacent pairs attain the maximum density on the grid.  Draws
    come `_batch_size(n)` at a time and are kept as their class keys,
    degenerate ones redrawn; each batch labels every class from its key
    (module docstring) and adds its draw count to every edge it separates.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if samples < 1000:
        raise ValueError(f"need samples >= 1000, got {samples}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    points = enumerate_points(3, n)  # the grid gate; first, so an oversize n allocates nothing
    edges = enumerate_edges(3, n)
    eu, ev = edge_index(3, n)
    rng = np.random.default_rng(seed)
    batch = _batch_size(n)

    sep = np.zeros(len(edges), np.int64)
    corner_count = 0
    resampled = 0
    done = 0
    while done < samples:
        want = min(batch, samples - done)
        key, degenerate = _class_keys(_draw_params(rng, want), n)
        while degenerate.any():
            redo = np.flatnonzero(degenerate)
            resampled += redo.size
            key[redo], degenerate[redo] = _class_keys(_draw_params(rng, redo.size), n)
        classes, counts = np.unique(key, return_counts=True)
        corner_count += int(counts[classes % 27 == 0].sum())
        sep += _separations(_class_labels(classes, points, n), counts, eu, ev)
        done += want

    stats = []
    for e_idx, e in enumerate(edges):
        p_hat = sep[e_idx] / samples
        sigma = sqrt(max(p_hat * (1 - p_hat), 1e-12) / samples)
        stats.append(PairStat(e, int(sep[e_idx]), p_hat, sigma * n))
    worst = max(stats, key=lambda s: s.p_hat)
    return DensityEstimate(
        n=n,
        samples=samples,
        seed=seed,
        pair_stats=stats,
        tau_hat=worst.p_hat * n,
        worst_pair=worst.edge,
        ci3sigma=3 * worst.sigma_tau,
        max_sigma_tau=max(s.sigma_tau for s in stats),
        corner_fraction=corner_count / samples,
        resampled=resampled,
    )
