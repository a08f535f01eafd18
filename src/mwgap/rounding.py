"""Sampler and evaluator for the two-part distribution on non-opposite
triangle cuts (corner cuts with a uniform threshold, ball cuts built from
three chords through a random point of two fixed diagonals), plus a
Monte-Carlo estimator of the maximum separation density on the grid.

All geometry is exact: cut parameters are rationals drawn from a fixed
2^20-cell discretization of the parameter intervals.  Every chord lies on
a coordinate line x_a = r_a through the centre r, so a point's label
follows from the signs of x_i - r_i alone (the rule is stated once, in
`BallCut`); on the n-grid that is p_i > floor(n r_i).  A cut whose chords
meet a grid point is detected exactly and redrawn, mirroring the
almost-sure non-degeneracy of continuous sampling.  The grid size is
bounded only by memory: one draw's label row must fit LABEL_BYTES.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, sqrt
from typing import Optional, Union

import numpy as np

from .core import Point, enumerate_edges, enumerate_points, point_index

# Cells in the discretized parameter intervals.
PARAM_CELLS = 1 << 20

EXTRA = 3  # label of the unassigned middle cluster of a corner cut

# Cap on one batch's int8 label matrix (draws x grid points), the one
# matrix `_batch_labels` holds.
LABEL_BYTES = 1 << 25

# Largest n whose label row, comb(n + 2, 2) bytes, fits LABEL_BYTES: 8190.
# The labelling's integers stay below 3 * PARAM_CELLS * n, far inside int64.
MAX_N = (isqrt(8 * LABEL_BYTES + 1) - 3) // 2


def _check_n(n: int) -> None:
    if not 2 <= n <= MAX_N:
        raise ValueError(
            f"need 2 <= n <= {MAX_N} (one label row of comb(n + 2, 2) bytes "
            f"must fit LABEL_BYTES = {LABEL_BYTES}), got {n}"
        )


def _batch_size(n: int) -> int:
    """Draws per labelling batch on the n-grid: 200,000 for n <= 16, fewer
    above so that the label matrix stays within LABEL_BYTES."""
    return min(200_000, LABEL_BYTES // comb(n + 2, 2))


class DegenerateEvaluationError(RuntimeError):
    """The point lies on a chord of a ball cut, or exceeds a corner cut's
    threshold in two coordinates."""


@dataclass(frozen=True)
class CornerCut:
    """Assigns x to i iff x_i > r; to the extra cluster if no coordinate
    exceeds r.  Well-defined for r >= 2/3 (at most one coordinate can
    exceed r)."""

    r: Fraction


@dataclass(frozen=True)
class BallCut:
    """Three chords from the interior point r, one ending on each side of
    the triangle, split the triangle into three corner regions.

    The lines x_a = r_a (a = 0, 1, 2) make six half-lines from r.  They cut
    the triangle into three corner sectors, where only x_c > r_c (holding
    e^c), alternating with three side sectors, where only x_s < r_s
    (touching side s, on which x_s = 0).  The chord to side s is the
    half-line of x_a = r_a, a = chord_lines()[s], that runs from r to side
    s.  It parts side sector s from the corner sector of the third index,
    so side sector s joins corner a.  Hence x is labelled

      * c, if x_c > r_c is its only coordinate above r;
      * chord_lines()[s], if two coordinates are above r and x_s < r_s;

    and x lies on a chord, with no label, if x = r or if exactly one
    coordinate l has x_l < r_l and x_b = r_b for b = chord_lines()[l].

    side_choice[s] picks which of the two candidate chords (pieces of the
    lines x_a = r_a, a != s) ends on side s.  diag / t record the sampled
    parametrization when the cut came from the sampler.
    """

    r: tuple[Fraction, Fraction, Fraction]
    side_choice: tuple[bool, bool, bool]
    diag: Optional[int] = None
    t: Optional[Fraction] = None

    def chord_lines(self) -> tuple[int, int, int]:
        """For each side s, the coordinate index a with the chosen chord
        on the line x_a = r_a."""
        out = []
        for s in range(3):
            cands = [i for i in range(3) if i != s]
            out.append(cands[1] if self.side_choice[s] else cands[0])
        return tuple(out)


SampledCut = Union[CornerCut, BallCut]

# Endpoints of the two diagonals the ball-cut center is drawn from.
DIAGONALS = (
    ((Fraction(2, 3), Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(2, 3), Fraction(1, 3))),
    ((Fraction(2, 3), Fraction(0), Fraction(1, 3)), (Fraction(0), Fraction(1, 3), Fraction(2, 3))),
)


def sample_cut(rng: random.Random, p_corner: Fraction = Fraction(1, 5)) -> SampledCut:
    """Draw one cut: a corner cut with probability p_corner, else a ball
    cut with a fair-coin diagonal, uniform position, and fair-coin chord
    choices."""
    p_corner = Fraction(p_corner)
    if not 0 <= p_corner <= 1:
        raise ValueError(f"p_corner must be in [0, 1], got {p_corner}")
    M = PARAM_CELLS
    if rng.randrange(p_corner.denominator) < p_corner.numerator:
        j = rng.randrange(M)
        return CornerCut(r=Fraction(2 * M + j, 3 * M))
    diag = rng.getrandbits(1)
    j = rng.randrange(1, M)  # open interval: keeps r strictly interior
    t = Fraction(j, M)
    A, B = DIAGONALS[diag]
    r = tuple((1 - t) * A[i] + t * B[i] for i in range(3))
    choice = (bool(rng.getrandbits(1)), bool(rng.getrandbits(1)), bool(rng.getrandbits(1)))
    return BallCut(r=r, side_choice=choice, diag=diag, t=t)


def evaluate(cut: SampledCut, x) -> int:
    """Label of a simplex point x (exact rationals) under a sampled cut, by
    the rule in the `BallCut` docstring (for a corner cut, r_i = r).

    A point on a chord, or above a corner threshold in two coordinates,
    raises DegenerateEvaluationError.
    """
    x = tuple(Fraction(v) for v in x)
    if len(x) != 3 or sum(x) != 1 or any(v < 0 for v in x):
        raise ValueError(f"{x} is not a point of the triangle")
    if isinstance(cut, CornerCut):
        above = [i for i in range(3) if x[i] > cut.r]
        if len(above) > 1:
            raise DegenerateEvaluationError(f"multiple coordinates exceed r = {cut.r}")
        return above[0] if above else EXTRA
    r, lines = cut.r, cut.chord_lines()
    above = [i for i in range(3) if x[i] > r[i]]
    below = [i for i in range(3) if x[i] < r[i]]
    if len(above) == 2:
        return lines[below[0]]
    if not above or (len(below) == 1 and x[lines[below[0]]] == r[lines[below[0]]]):
        raise DegenerateEvaluationError(f"{x} lies on a chord")
    return above[0]


# ---------------------------------------------------------------------------
# Vectorized grid labeling and density estimation
# ---------------------------------------------------------------------------


def _draw_params(rng: np.random.Generator, count: int, p_corner: Fraction) -> dict:
    M = PARAM_CELLS
    return {
        "is_corner": rng.integers(0, p_corner.denominator, count) < p_corner.numerator,
        "jr": rng.integers(0, M, count),
        "diag": rng.integers(0, 2, count),
        "jt": rng.integers(1, M, count),
        "choice": rng.integers(0, 2, (count, 3)),
    }


def _ball_r_numerators(params: dict, mask: np.ndarray) -> np.ndarray:
    """Center coordinates of the masked ball cuts as numerators over 3M."""
    M = PARAM_CELLS
    j = params["jt"][mask].astype(np.int64)
    diag = params["diag"][mask]
    rn = np.empty((3, j.size), np.int64)
    rn[0] = 2 * (M - j)
    rn[1] = np.where(diag == 0, M + j, j)
    rn[2] = np.where(diag == 0, j, M + j)
    return rn


def _batch_labels(params: dict, points: list[Point], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels of every grid point under every parametrized cut.

    Returns (labels, degenerate): labels has shape (count, len(points)) with
    values in {0, 1, 2, EXTRA}, each point's column contiguous; rows flagged
    degenerate carry no meaning and must be redrawn.

    This is the `BallCut` rule on the grid: x_i > r_i iff p_i > floor(n r_i),
    and one table per draw maps the three comparisons to a label.  A ball
    cut is degenerate iff a grid point lies on a chord.  The chord on
    x_a = r_a to side s ends at the side point with x_s = 0, a grid point
    whenever the line holds any, so that happens iff some n r_a, a a chord
    line, is an integer.
    """
    _check_n(n)
    M = PARAM_CELLS
    corner = params["is_corner"]
    count = corner.size
    # n r_i as numerators over 3M (r_i = r for a corner cut)
    nr = np.empty((3, count), np.int64)
    nr[:] = n * (2 * M + params["jr"].astype(np.int64))
    nr[:, ~corner] = n * _ball_r_numerators(params, ~corner)
    floor_nr, rem = np.divmod(nr, 3 * M)
    lines = [np.where(params["choice"][:, s] == 0, *(a for a in range(3) if a != s)) for s in range(3)]
    rows = np.arange(count)
    degenerate = ~corner & np.logical_or.reduce([rem[lines[s], rows] == 0 for s in range(3)])
    # table[row, code] with bit i of code set iff x_i > r_i; two bits set
    # (codes 6, 5, 3 have side 0, 1, 2 below) occur only for ball cuts
    table = np.empty((count, 8), np.int8)
    table[:] = (EXTRA, 0, 1, -1, 2, -1, -1, -1)
    table[:, 6], table[:, 5], table[:, 3] = lines
    table, base = table.ravel(), 8 * rows
    labels = np.empty((len(points), count), np.int8)
    for j, p in enumerate(points):
        code = (floor_nr[0] < p[0]) | ((floor_nr[1] < p[1]) << 1) | ((floor_nr[2] < p[2]) << 2)
        labels[j] = table[base + code]
    return labels.T, degenerate


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
    p_corner: Fraction
    seed: int
    pair_stats: list[PairStat]
    tau_hat: float
    worst_pair: tuple[Point, Point]
    ci3sigma: float  # 3 sigma of the worst pair, on the tau scale
    max_sigma_tau: float
    corner_fraction: float
    resampled: int


def estimate_density(
    n: int,
    samples: int,
    p_corner: Fraction = Fraction(1, 5),
    seed: int = 0,
) -> DensityEstimate:
    """Monte-Carlo estimate of the maximum separation density on the grid.

    Only adjacent grid pairs are scored: any grid pair is joined by an
    L1-geodesic grid path and separation probability is subadditive along
    it, so adjacent pairs attain the maximum density on the grid.  Draws
    are labelled `_batch_size(n)` at a time.
    """
    _check_n(n)
    if samples < 1000:
        raise ValueError(f"need samples >= 1000, got {samples}")
    p_corner = Fraction(p_corner)
    if not 0 <= p_corner <= 1:
        raise ValueError(f"p_corner must be in [0, 1], got {p_corner}")
    points = enumerate_points(3, n)
    pindex = point_index(3, n)
    edges = enumerate_edges(3, n)
    rng = np.random.default_rng(seed)
    batch = _batch_size(n)

    sep = np.zeros(len(edges), np.int64)
    corner_count = 0
    resampled = 0
    done = 0
    while done < samples:
        want = min(batch, samples - done)
        params = _draw_params(rng, want, p_corner)
        labels, degenerate = _batch_labels(params, points, n)
        while degenerate.any():
            redo = np.flatnonzero(degenerate)
            resampled += redo.size
            fresh = _draw_params(rng, redo.size, p_corner)
            sub_labels, sub_deg = _batch_labels(fresh, points, n)
            labels[redo] = sub_labels
            for key in params:
                params[key][redo] = fresh[key]
            degenerate[:] = False
            degenerate[redo] = sub_deg
        corner_count += int(params["is_corner"].sum())
        for e_idx, (u, v) in enumerate(edges):
            sep[e_idx] += int(np.count_nonzero(labels[:, pindex[u]] != labels[:, pindex[v]]))
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
        p_corner=p_corner,
        seed=seed,
        pair_stats=stats,
        tau_hat=worst.p_hat * n,
        worst_pair=worst.edge,
        ci3sigma=3 * worst.sigma_tau,
        max_sigma_tau=max(s.sigma_tau for s in stats),
        corner_fraction=corner_count / samples,
        resampled=resampled,
    )
