"""Sampler and evaluator for the two-part distribution on non-opposite
triangle cuts (corner cuts with a uniform threshold, ball cuts built from
three chords through a random point of two fixed diagonals), plus a
Monte-Carlo estimator of the maximum separation density on the grid.

All geometry is exact: cut parameters are rationals drawn from a fixed
2^20-cell discretization of the parameter intervals, and point location
uses integer orientation tests.  A cut whose chords collide with a grid
point is detected exactly and redrawn, mirroring the almost-sure
non-degeneracy of continuous sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, sqrt
from typing import Optional, Union

import numpy as np

from .core import Point, enumerate_edges, enumerate_points

# Cells in the discretized parameter intervals; MAX_N shrinks as this grows.
PARAM_CELLS = 1 << 20

# The vectorized orientation tests scale the triangle by S = 3 * PARAM_CELLS * n.
# Each is twice the signed area of a triangle inside it, so its magnitude is at
# most S^2 (and comes within a factor 1 - 1/(3 * PARAM_CELLS) of it), which int64
# holds exactly up to n = 965.
MAX_N = isqrt(np.iinfo(np.int64).max) // (3 * PARAM_CELLS)

EXTRA = 3  # label of the unassigned middle cluster of a corner cut

# Cap on one batch's int8 label matrix (draws x grid points); `_batch_labels`
# holds three matrices of that shape at once.
LABEL_BYTES = 1 << 25


def _check_n(n: int) -> None:
    if not 2 <= n <= MAX_N:
        raise ValueError(f"need 2 <= n <= {MAX_N} (the int64 bound of the labelling), got {n}")


def _batch_size(n: int) -> int:
    """Draws per labelling batch on the n-grid: 200,000 for n <= 16, fewer
    above so that the label matrix stays within LABEL_BYTES."""
    return min(200_000, LABEL_BYTES // comb(n + 2, 2))


class DegenerateEvaluationError(RuntimeError):
    """Zero or multiple corners qualified: the point lies on a chord (or
    the geometry is broken)."""


@dataclass(frozen=True)
class CornerCut:
    """Assigns x to i iff x_i > r; to the extra cluster if no coordinate
    exceeds r.  Well-defined for r >= 2/3 (at most one coordinate can
    exceed r)."""

    r: Fraction


@dataclass(frozen=True)
class BallCut:
    """Three chords through the interior point r, one ending on each side
    of the triangle, split the triangle into three corner regions.

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

    def chord_endpoints(self) -> list[tuple[Fraction, Fraction, Fraction]]:
        """Endpoint q_s of the chosen chord on side s (the other endpoint
        of every chord is r)."""
        qs = []
        for s, a in enumerate(self.chord_lines()):
            q = [Fraction(0)] * 3
            (o,) = (i for i in range(3) if i not in (s, a))
            q[a] = self.r[a]
            q[o] = 1 - self.r[a]
            qs.append(tuple(q))
        return qs


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


def _orient(a, b, c) -> Fraction:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _on_segment(a, b, c) -> bool:
    """Whether collinear point c lies within the bounding box of [a, b]."""
    return min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])


def segments_intersect(p1, p2, p3, p4) -> bool:
    """Whether [p1, p2] and [p3, p4] share at least one point (exact)."""
    o1, o2 = _orient(p1, p2, p3), _orient(p1, p2, p4)
    o3, o4 = _orient(p3, p4, p1), _orient(p3, p4, p2)
    s1, s2, s3, s4 = _sign(o1), _sign(o2), _sign(o3), _sign(o4)
    if s1 * s2 < 0 and s3 * s4 < 0:
        return True
    if s1 == 0 and _on_segment(p1, p2, p3):
        return True
    if s2 == 0 and _on_segment(p1, p2, p4):
        return True
    if s3 == 0 and _on_segment(p3, p4, p1):
        return True
    if s4 == 0 and _on_segment(p3, p4, p2):
        return True
    return False


_CORNERS_2D = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))


def _proj(x) -> tuple[Fraction, Fraction]:
    return (Fraction(x[0]), Fraction(x[1]))


def evaluate(cut: SampledCut, x) -> int:
    """Label of a simplex point x (exact rationals) under a sampled cut.

    For ball cuts the label is the unique corner i such that the segment
    from x to e^i crosses none of the three chords; zero or multiple
    qualifying corners raise DegenerateEvaluationError.
    """
    x = tuple(Fraction(v) for v in x)
    if len(x) != 3 or sum(x) != 1 or any(v < 0 for v in x):
        raise ValueError(f"{x} is not a point of the triangle")
    if isinstance(cut, CornerCut):
        quals = [i for i in range(3) if x[i] > cut.r]
        if len(quals) > 1:
            raise DegenerateEvaluationError(f"multiple coordinates exceed r = {cut.r}")
        return quals[0] if quals else EXTRA
    r2 = _proj(cut.r)
    chords = [(r2, _proj(q)) for q in cut.chord_endpoints()]
    x2 = _proj(x)
    quals = [
        c
        for c in range(3)
        if not any(segments_intersect(x2, _CORNERS_2D[c], a, b) for a, b in chords)
    ]
    if len(quals) != 1:
        raise DegenerateEvaluationError(f"{len(quals)} corners qualify at {x}")
    return quals[0]


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
    values in {0, 1, 2, EXTRA}; rows flagged degenerate carry no meaning
    and must be redrawn.  All arithmetic is exact in int64 for n <= MAX_N.
    """
    _check_n(n)
    M = PARAM_CELLS
    count = params["is_corner"].shape[0]
    labels = np.full((count, len(points)), EXTRA, np.int8)
    degenerate = np.zeros(count, bool)

    corner = params["is_corner"]
    if corner.any():
        jr = params["jr"][corner].astype(np.int64)
        thresh = n * (2 * M + jr)  # x_i > r  <=>  3M * px_i > n (2M + j)
        for p_idx, p in enumerate(points):
            for i in range(3):
                labels[np.flatnonzero(corner)[3 * M * p[i] > thresh], p_idx] = i

    ball = ~corner
    if ball.any():
        idx = np.flatnonzero(ball)
        rn = _ball_r_numerators(params, ball)
        choice = params["choice"][ball]
        # chord endpoints q_s, numerators over 3M
        qn = np.zeros((3, 3, idx.size), np.int64)  # [side][coord]
        for s in range(3):
            cands = [i for i in range(3) if i != s]
            a = np.where(choice[:, s] == 0, cands[0], cands[1])
            for ai in cands:
                sel = a == ai
                (o,) = (i for i in range(3) if i not in (s, ai))
                qn[s][ai][sel] = rn[ai][sel]
                qn[s][o][sel] = 3 * M - rn[ai][sel]
        # 2D coordinates scaled by the common denominator 3*M*n
        Rx, Ry = rn[0] * n, rn[1] * n
        Qx = [qn[s][0] * n for s in range(3)]
        Qy = [qn[s][1] * n for s in range(3)]
        Cx = [Qx[s] - Rx for s in range(3)]
        Cy = [Qy[s] - Ry for s in range(3)]
        scale = 3 * M  # grid coordinate p_i/n -> 3*M*p_i over 3*M*n
        ex = [scale * n, 0, 0]
        ey = [0, scale * n, 0]
        # orientation of each fixed corner against each chord
        s_corner_chord = [
            [
                np.sign(Cx[s] * (ey[c] - Ry) - Cy[s] * (ex[c] - Rx))
                for s in range(3)
            ]
            for c in range(3)
        ]
        ball_labels = np.full((idx.size, len(points)), -1, np.int8)
        qual_count = np.zeros((idx.size, len(points)), np.int8)
        for p_idx, p in enumerate(points):
            gx, gy = scale * p[0], scale * p[1]
            s_g_chord = [np.sign(Cx[s] * (gy - Ry) - Cy[s] * (gx - Rx)) for s in range(3)]
            for c in range(3):
                A, B = ex[c] - gx, ey[c] - gy
                s_r = np.sign(A * (Ry - gy) - B * (Rx - gx))
                crossed = np.zeros(idx.size, bool)
                for s in range(3):
                    s_q = np.sign(A * (Qy[s] - gy) - B * (Qx[s] - gx))
                    crossed |= (s_r * s_q <= 0) & (s_g_chord[s] * s_corner_chord[c][s] <= 0)
                qual = ~crossed
                qual_count[:, p_idx] += qual
                ball_labels[qual, p_idx] = c
        bad = (qual_count != 1).any(axis=1)
        degenerate[idx] = bad
        labels[idx] = ball_labels
    return labels, degenerate


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
    pindex = {p: i for i, p in enumerate(points)}
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
