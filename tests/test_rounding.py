"""The density estimator, against the exact statement of the rounding
distribution kept here as its oracle."""

import hashlib
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwgap import cli, rounding
from mwgap.acceptance import DENSITY_SAMPLES
from mwgap.core import EXTRA, MAX_POINTS, enumerate_edges, enumerate_points, support
from mwgap.rounding import (
    KEY_BLOCK,
    LABEL_BYTES,
    PARAM_CELLS,
    P_CORNER,
    _batch_size,
    _class_keys,
    _class_labels,
    _draw_params,
    _edge_chunk,
    _separations,
    estimate_density,
)


# The largest triangle grid the grid gate (`core.MAX_POINTS`) admits.
MAX_GRID_N = 1022


def F(a, b=1):
    return Fraction(a, b)


def point_index(k, n):
    """Reference: each point of Delta_{k,n} to its position in `enumerate_points(k, n)`."""
    return {x: i for i, x in enumerate(enumerate_points(k, n))}


# ---------------------------------------------------------------------------
# Exact statement of the distribution (the rule is in the `rounding`
# module docstring): cuts with rational parameters, labelled point by point.
# ---------------------------------------------------------------------------


class DegenerateEvaluationError(RuntimeError):
    """The point lies on a chord of a ball cut, or exceeds a corner cut's
    threshold in two coordinates."""


@dataclass(frozen=True)
class CornerCut:
    """Assigns x to i iff x_i > r; to the extra cluster if no coordinate
    exceeds r."""

    r: Fraction


@dataclass(frozen=True)
class BallCut:
    """Three chords from the interior point r; side_choice[s] picks which
    of the two candidate chords (pieces of the lines x_a = r_a, a != s)
    ends on side s."""

    r: tuple[Fraction, Fraction, Fraction]
    side_choice: tuple[bool, bool, bool]

    def chord_lines(self) -> tuple[int, int, int]:
        """For each side s, the coordinate index a with the chosen chord
        on the line x_a = r_a."""
        out = []
        for s in range(3):
            cands = [i for i in range(3) if i != s]
            out.append(cands[1] if self.side_choice[s] else cands[0])
        return tuple(out)


# Endpoints of the two diagonals the ball-cut center is drawn from.
DIAGONALS = (
    ((F(2, 3), F(1, 3), F(0)), (F(0), F(2, 3), F(1, 3))),
    ((F(2, 3), F(0), F(1, 3)), (F(0), F(1, 3), F(2, 3))),
)


def evaluate(cut, x) -> int:
    """Label of a simplex point x (exact rationals) under a cut, by the
    coordinate rule (for a corner cut, r_i = r).

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


def _ball_at(diag, t, side_choice=(False, False, False)):
    A, B = DIAGONALS[diag]
    r = tuple((1 - t) * A[i] + t * B[i] for i in range(3))
    return BallCut(r=r, side_choice=side_choice)


def batch_labels(params, points, n):
    """(labels, degenerate) of every parametrized cut at every point, as the
    estimator labels them: through each cut's class key, from the one-shot
    reference `class_keys_oracle`, not the kernel under test.  Rows flagged
    degenerate carry no meaning."""
    key, degenerate = class_keys_oracle(params, n)
    return _class_labels(key, points, n), degenerate


def _params_to_cut(params, i):
    """Reference cut object for row i of a parameter batch."""
    M = PARAM_CELLS
    if params["is_corner"][i]:
        return CornerCut(r=Fraction(2 * M + int(params["jr"][i]), 3 * M))
    choice = tuple(bool(v) for v in params["choice"][i])
    return _ball_at(int(params["diag"][i]), Fraction(int(params["jt"][i]), M), choice)


def _aligned_params():
    """Centres and thresholds at t, jr / M = q/8, where chords and
    thresholds pass through grid points; every chord choice."""
    M = PARAM_CELLS
    rows = [(False, 0, d, M * q // 8, c) for d in (0, 1) for q in range(1, 8) for c in range(8)]
    rows += [(True, M * q // 8, 0, 1, 0) for q in range(8)]
    params = {
        key: np.array([row[k] for row in rows])
        for k, key in enumerate(("is_corner", "jr", "diag", "jt"))
    }
    params["choice"] = np.array([[(row[4] >> b) & 1 for b in range(3)] for row in rows])
    return params


# ---------------------------------------------------------------------------
# Literal oracle: the label of x is the unique corner whose segment to x
# crosses no chord, found with exact orientation tests in the plane of the
# first two coordinates.
# ---------------------------------------------------------------------------


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _sign(v):
    return (v > 0) - (v < 0)


def _on_segment(a, b, c):
    """Whether collinear point c lies within the bounding box of [a, b]."""
    return min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])


def segments_intersect(p1, p2, p3, p4):
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


_CORNERS_2D = ((F(1), F(0)), (F(0), F(1)), (F(0), F(0)))


def _proj(x):
    return (F(x[0]), F(x[1]))


def chord_endpoints(cut):
    """Endpoint q_s of the chosen chord on side s (the other endpoint of
    every chord is r)."""
    qs = []
    for s, a in enumerate(cut.chord_lines()):
        q = [F(0)] * 3
        (o,) = (i for i in range(3) if i not in (s, a))
        q[a] = cut.r[a]
        q[o] = 1 - cut.r[a]
        qs.append(tuple(q))
    return qs


def oracle_label(cut, x):
    """Label of x by the literal definitions; raises like `evaluate`."""
    x = tuple(F(v) for v in x)
    if isinstance(cut, CornerCut):
        quals = [i for i in range(3) if x[i] > cut.r]
        if len(quals) > 1:
            raise DegenerateEvaluationError(f"multiple coordinates exceed r = {cut.r}")
        return quals[0] if quals else EXTRA
    chords = [(_proj(cut.r), _proj(q)) for q in chord_endpoints(cut)]
    x2 = _proj(x)
    quals = [
        c
        for c in range(3)
        if not any(segments_intersect(x2, _CORNERS_2D[c], a, b) for a, b in chords)
    ]
    if len(quals) != 1:
        raise DegenerateEvaluationError(f"{len(quals)} corners qualify at {x}")
    return quals[0]


def _outcome(label, cut, x):
    """label(cut, x), or the exception class it raised."""
    try:
        return label(cut, x)
    except DegenerateEvaluationError:
        return DegenerateEvaluationError


def test_corner_cut_thresholds():
    cut = CornerCut(r=F(7, 10))
    assert evaluate(cut, (F(9, 10), F(1, 20), F(1, 20))) == 0
    assert evaluate(cut, (F(1, 20), F(9, 10), F(1, 20))) == 1
    assert evaluate(cut, (F(1, 3), F(1, 3), F(1, 3))) == EXTRA
    # exactly at the threshold is not strictly inside the corner
    assert evaluate(cut, (F(7, 10), F(3, 10), F(0))) == EXTRA


def test_ball_cut_corners_keep_their_labels():
    for diag in (0, 1):
        for choice in ((False,) * 3, (True,) * 3, (True, False, True)):
            cut = _ball_at(diag, F(1, 2), choice)
            for i in range(3):
                corner = tuple(F(1) if j == i else F(0) for j in range(3))
                assert evaluate(cut, corner) == i


def test_ball_cut_point_near_corner():
    cut = _ball_at(0, F(1, 2))
    assert evaluate(cut, (F(9, 10), F(1, 20), F(1, 20))) == 0


def test_ball_cut_regions_partition_points():
    params = _draw_params(np.random.default_rng(2), 30)
    n = 7
    pts = enumerate_points(3, n)
    evaluated = 0
    for i in range(30):
        cut = _params_to_cut(params, i)
        labels = {}
        try:
            for p in pts:
                labels[p] = evaluate(cut, tuple(F(a, n) for a in p))
        except DegenerateEvaluationError:
            continue
        evaluated += 1
        # non-opposite: a label is either in the support or the extra one
        for p, c in labels.items():
            assert c == EXTRA or c in support(p)
        # each simplex corner keeps its own label
        for i in range(3):
            corner = tuple(n if j == i else 0 for j in range(3))
            assert labels[corner] == i
    assert evaluated >= 20


def test_segments_intersect_basics():
    a, b = (F(0), F(0)), (F(1), F(1))
    c, d = (F(0), F(1)), (F(1), F(0))
    assert segments_intersect(a, b, c, d)
    assert not segments_intersect(a, (F(1, 3), F(1, 3)), c, d)
    # shared endpoint counts as intersecting
    assert segments_intersect(a, b, b, (F(2), F(0)))
    # collinear but disjoint
    assert not segments_intersect(a, (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)), b)


def test_sample_cut_reproducible_and_mixture():
    count = 20_000
    params = _draw_params(np.random.default_rng(5), count)
    again = _draw_params(np.random.default_rng(5), count)
    assert params.keys() == again.keys()
    assert all(np.array_equal(params[key], again[key]) for key in params)
    sigma = (0.2 * 0.8 / count) ** 0.5
    assert P_CORNER == F(1, 5)
    assert abs(params["is_corner"].mean() - 0.2) < 4 * sigma


def test_sampled_parameter_ranges():
    M, count = PARAM_CELLS, 20_000
    params = _draw_params(np.random.default_rng(6), count)
    assert params["jr"].min() >= 0 and params["jr"].max() < M
    assert params["jt"].min() >= 1 and params["jt"].max() < M  # strictly interior centre
    assert set(np.unique(params["diag"])) == {0, 1}
    assert params["choice"].shape == (count, 3) and set(np.unique(params["choice"])) == {0, 1}
    for i in range(200):
        cut = _params_to_cut(params, i)
        if isinstance(cut, CornerCut):
            assert F(2, 3) <= cut.r < 1
        else:
            assert all(0 < ri < 1 for ri in cut.r)
            assert sum(cut.r) == 1


def test_batch_labels_match_reference_evaluator():
    n = 5
    pts = enumerate_points(3, n)
    rng = np.random.default_rng(42)
    params = _draw_params(rng, 300)
    labels, degenerate = batch_labels(params, pts, n)
    for i in range(300):
        if degenerate[i]:
            continue
        cut = _params_to_cut(params, i)
        for j, p in enumerate(pts):
            ref = evaluate(cut, tuple(Fraction(a, n) for a in p))
            assert labels[i, j] == ref


def _assert_keys_decode_to_the_exact_cut(params, n):
    # the key's base-n digits are floor(n r_i) of the Fraction cut; its base-3
    # digit is a ball cut's chord lines, and 0 exactly for a corner cut; a cut
    # is degenerate iff n r_a is an integer on one of its chord lines
    key, degenerate = _class_keys(params, n)
    for i in range(len(key)):
        cut = _params_to_cut(params, i)
        floors, chords = divmod(int(key[i]), 27)
        assert (floors // (n * n), floors // n % n, floors % n) == tuple(
            floor(n * ri) for ri in ((cut.r,) * 3 if isinstance(cut, CornerCut) else cut.r)
        )
        if isinstance(cut, CornerCut):
            assert chords == 0 and not degenerate[i]
        else:
            lines = cut.chord_lines()
            assert chords == (lines[0] * 3 + lines[1]) * 3 + lines[2]
            assert degenerate[i] == any((n * cut.r[a]).denominator == 1 for a in lines)
    return degenerate


def class_keys_oracle(params, n):
    """`rounding._class_keys` on the whole batch at once, as one vectorised
    pass with (3, draws) temporaries: the reference for the blocked kernel."""
    M = PARAM_CELLS
    corner = params["is_corner"]
    j = np.asarray(params["jt"], np.int64)
    first = 2 * (M - j)
    second = j + M * (1 - np.asarray(params["diag"], np.int64))
    ball = np.stack([first, second, 3 * M - first - second])
    nr = n * np.where(corner, 2 * M + np.asarray(params["jr"], np.int64), ball)
    floor_nr = nr // (3 * M)
    rem = nr - 3 * M * floor_nr
    choice = params["choice"]
    lines = [lo + (hi - lo) * choice[:, s] for s, (lo, hi) in enumerate(((1, 2), (0, 2), (0, 1)))]
    degenerate = ~corner & np.take_along_axis(rem == 0, np.stack(lines), 0).any(0)
    key = (floor_nr[0] * n + floor_nr[1]) * n + floor_nr[2]
    chords = (lines[0] * 3 + lines[1]) * 3 + lines[2]
    return key * 27 + np.where(corner, 0, chords), degenerate


def _assert_keys_match_oracle(params, n):
    key, degenerate = _class_keys(params, n)
    want_key, want_degenerate = class_keys_oracle(params, n)
    assert key.dtype == np.int64 and degenerate.dtype == bool
    assert np.array_equal(key, want_key) and np.array_equal(degenerate, want_degenerate)
    return degenerate


def test_class_keys_in_blocks_match_one_shot_oracle():
    for seed, count in enumerate((1, KEY_BLOCK - 1, KEY_BLOCK, KEY_BLOCK + 1, 200_000)):
        params = _draw_params(np.random.default_rng(100 + seed), count)
        for n in (2, 6, 12, 17, MAX_GRID_N):
            _assert_keys_match_oracle(params, n)


def test_class_keys_flag_a_degenerate_run_across_a_block_edge():
    # the forcing of test_estimate_density_redraws_like_the_oracle (a centre
    # at t = 1/2 on diagonal 0, chord lines 1, 0, 0) on the last row of the
    # first block and the first row of the second
    params = _draw_params(np.random.default_rng(11), 2 * KEY_BLOCK + 3)
    rows = slice(KEY_BLOCK - 1, KEY_BLOCK + 1)
    params["is_corner"][rows] = False
    params["diag"][rows] = 0
    params["jt"][rows] = PARAM_CELLS // 2
    params["choice"][rows] = 0
    for n in (2, 3, 6, 12):
        assert _assert_keys_match_oracle(params, n)[rows].all()


def breakpoint_params(n, rng):
    """A batch whose rows put n r_a on an integer wherever that is a cell: ball
    centres jt = j at j = 3Mc/n, 3Mc/n - M and M - 3Mc/(2n) (n r_2, n r_1 and
    n r_0 on diagonal 0 are c) with 1 <= j < M, on both diagonals with all 8
    chord choices, then corner thresholds jr = 3Mc/n - 2M in [0, M).  Returns
    (params, cells), cells the number of ball centres."""
    M = PARAM_CELLS
    cells = sorted(
        {
            int(j)
            for c in range(2 * n + 1)
            for j in (F(3 * M * c, n), F(3 * M * c, n) - M, M - F(3 * M * c, 2 * n))
            if j.denominator == 1 and 1 <= j < M
        }
    )
    thresholds = [
        int(jr) for c in range(n + 1) if (jr := F(3 * M * c, n) - 2 * M).denominator == 1 and 0 <= jr < M
    ]
    rows = [(False, 0, d, j, c) for d in (0, 1) for j in cells for c in range(8)]
    rows += [(True, jr, 0, 1, 0) for jr in thresholds]
    params = _draw_params(rng, len(rows))  # the estimator's dtypes
    for i, (corner, jr, d, j, c) in enumerate(rows):
        params["is_corner"][i], params["jr"][i], params["diag"][i], params["jt"][i] = corner, jr, d, j
        params["choice"][i] = [(c >> b) & 1 for b in range(3)]
    return params, len(cells)


def test_class_keys_match_the_oracle_on_every_breakpoint_cell():
    for n in (2, 3, 6, 7, 12, 45, 300, MAX_GRID_N):
        rng = np.random.default_rng(n)
        params, cells = breakpoint_params(n, rng)
        assert (cells == 0) == (n == 7)  # 3Mc/7 is whole only for 7 | c, then out of range
        degenerate = _assert_keys_match_oracle(params, n)
        # every breakpoint cell lies on a chord line under some chord choice
        ball = degenerate[: 2 * 8 * cells].reshape(2 * cells, 8)
        assert ball.any(axis=1).all()
        assert not degenerate[2 * 8 * cells :].any()  # a corner cut is never degenerate
        if n <= 12:
            _assert_keys_decode_to_the_exact_cut(params, n)
        # the same rows as a run straddling the first KEY_BLOCK edge of a drawn batch
        rows = len(degenerate)
        batch = _draw_params(rng, KEY_BLOCK + rows)
        at = slice(KEY_BLOCK - rows // 2, KEY_BLOCK - rows // 2 + rows)
        for key in batch:
            batch[key][at] = params[key]
        assert np.array_equal(_assert_keys_match_oracle(batch, n)[at], degenerate)


def test_class_key_decodes_to_the_exact_cut():
    for seed, n in enumerate((2, 3, 6, 12, 17, MAX_GRID_N)):
        params = _draw_params(np.random.default_rng(seed), 500)
        assert params["is_corner"].any() and not params["is_corner"].all()
        _assert_keys_decode_to_the_exact_cut(params, n)
    # aligned centres put floors and chord lines on exact integers
    seen_degenerate = 0
    for n in (2, 3, 4, 6):
        seen_degenerate += int(_assert_keys_decode_to_the_exact_cut(_aligned_params(), n).sum())
    assert seen_degenerate > 0


def estimate_digest(est):
    """sha256 of the separations (int64) and of `resampled` and `corner_fraction`."""
    h = hashlib.sha256(np.array([s.separations for s in est.pair_stats], np.int64).tobytes())
    h.update(f"{est.resampled} {est.corner_fraction!r}".encode())
    return h.hexdigest()


def test_estimates_are_pinned():
    # criterion 9's call and `mwgap round --n 12 --samples 200000 --seed 1`:
    # the separations, redraws and corner share the recorded estimates rest on
    pinned = (
        ((6, DENSITY_SAMPLES, 9), "b3109f33423a01107511edfa7c35d0a5889b96dd12d9b63ee1d2eafa69c4bac3", 1.204554),
        ((12, 200_000, 1), "a58cfe9add9c600e5a35e7d4ebe094403b1083112e37cc18d3371789e4a31aa0", 1.21698),
    )
    for args, digest, tau_hat in pinned:
        est = estimate_density(*args)
        assert estimate_digest(est) == digest
        assert est.tau_hat == pytest.approx(tau_hat, abs=1e-12)


def test_estimate_density_deterministic():
    a = estimate_density(3, 20000, 123)
    b = estimate_density(3, 20000, 123)
    assert a.tau_hat == b.tau_hat
    assert a.worst_pair == b.worst_pair
    c = estimate_density(3, 20000, 124)
    assert a.tau_hat != c.tau_hat


def test_estimate_density_statistics_shape():
    est = estimate_density(3, 50000, 7)
    assert est.samples == 50000
    assert 0 < est.tau_hat < 2
    assert est.ci3sigma > 0
    assert abs(est.corner_fraction - 0.2) < 0.02
    for stat in est.pair_stats:
        assert 0 <= stat.separations <= est.samples
        assert 0.0 <= stat.p_hat <= 1.0


def test_estimate_density_rejects_bad_parameters():
    with pytest.raises(ValueError):
        estimate_density(1, 100000, 1)


def test_param_cells_is_power_of_two():
    assert PARAM_CELLS & (PARAM_CELLS - 1) == 0


def test_grid_gate_bounds_the_label_row():
    n = MAX_GRID_N
    assert comb(n + 2, 2) <= MAX_POINTS < comb(n + 3, 2)
    # so one draw's label row, comb(n + 2, 2) int8 labels, fits at every admitted n
    assert MAX_POINTS <= LABEL_BYTES
    # the labelling's integers stay below 3 M n, and a class key below 27 n^3
    assert 3 * PARAM_CELLS * n < 2**63 and 27 * n**3 < 2**63


def test_batch_labels_exact_at_max_n():
    # the largest admitted n, with centres at the ends of both diagonals
    # (t = 1/M or 1 - 1/M), against corner and near-corner grid points
    n = MAX_GRID_N
    pts = sorted({(n, 0, 0), (0, n, 0), (0, 0, n), (n - 1, 1, 0), (1, 0, n - 1), (0, n - 1, 1), (1, n - 1, 0)})
    M = PARAM_CELLS
    combos = [(d, j, c) for d in (0, 1) for j in (1, M - 1) for c in range(8)]
    params = {
        "is_corner": np.zeros(len(combos), bool),
        "jr": np.zeros(len(combos), np.int64),
        "diag": np.array([d for d, _, _ in combos]),
        "jt": np.array([j for _, j, _ in combos]),
        "choice": np.array([[(c >> b) & 1 for b in range(3)] for _, _, c in combos]),
    }
    labels, degenerate = batch_labels(params, pts, n)
    assert not degenerate.any()
    for i in range(len(combos)):
        cut = _params_to_cut(params, i)
        for j, p in enumerate(pts):
            x = tuple(Fraction(a, n) for a in p)
            assert labels[i, j] == evaluate(cut, x) == oracle_label(cut, x)


def test_estimate_density_rejects_n_past_memory_bound(monkeypatch):
    def no_allocation(*args):
        raise AssertionError("allocated before rejecting n")

    # the grid gate refuses n before edges, their endpoint arrays or draws are built
    for name in ("enumerate_edges", "edge_index", "_draw_params"):
        monkeypatch.setattr(rounding, name, no_allocation)
    n = MAX_GRID_N + 1
    with pytest.raises(ValueError, match="MAX_POINTS"):
        estimate_density(n, 1000, 1)
    assert cli.main(["round", "--n", str(n), "--samples", "1000", "--seed", "1"]) == 2


def test_batch_size_caps_label_bytes():
    # criterion 9 and the 200k-draw jobs at n <= 16 keep one 200,000-draw batch
    for n in (6, 12, 16):
        assert _batch_size(n) == 200_000
    assert _batch_size(17) < 200_000
    # at the largest admitted n the int8 label matrix of one batch stays within the budget
    points = (MAX_GRID_N + 1) * (MAX_GRID_N + 2) // 2
    assert _batch_size(MAX_GRID_N) >= 1
    assert _batch_size(MAX_GRID_N) * points <= LABEL_BYTES


# ---------------------------------------------------------------------------
# The coordinate rule against the literal oracle
# ---------------------------------------------------------------------------

# (a, s): the half-line of x_a = r_a from r towards side s
_HALF_LINES = tuple((a, s) for a in range(3) for s in range(3) if s != a)

_unit = st.fractions(min_value=0, max_value=1, max_denominator=12)


def _on_half_line(r, a, s, u):
    """The point a fraction u of the way from r along half-line (a, s) to side s."""
    (o,) = (i for i in range(3) if i not in (a, s))
    x = list(r)
    x[s] -= u * r[s]
    x[o] += u * r[s]
    return tuple(x)


@st.composite
def _simplex_point(draw, lo=0):
    v = draw(st.tuples(*[st.integers(lo, 12)] * 3).filter(any))
    return tuple(F(a, sum(v)) for a in v)


@st.composite
def _cut_and_point(draw):
    """A corner or ball cut and a point: random, or where the rule switches
    (a corner threshold; the centre; one of the six half-lines)."""
    x = draw(_simplex_point())
    if draw(st.booleans()):
        r = F(2, 3) + draw(_unit) / 3
        if draw(st.booleans()):
            i, u = draw(st.integers(0, 2)), draw(_unit)
            rest = iter(((1 - r) * u, (1 - r) * (1 - u)))
            x = tuple(r if j == i else next(rest) for j in range(3))
        return CornerCut(r), x
    choice = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    cut = BallCut(r=draw(_simplex_point(lo=1)), side_choice=choice)
    where = draw(st.sampled_from(("random", "centre", "half-line")))
    if where == "centre":
        x = cut.r
    elif where == "half-line":
        x = _on_half_line(cut.r, *draw(st.sampled_from(_HALF_LINES)), draw(_unit))
    return cut, x


@given(_cut_and_point())
def test_evaluate_matches_chord_crossing_oracle(case):
    cut, x = case
    assert _outcome(evaluate, cut, x) == _outcome(oracle_label, cut, x)


def test_chords_are_the_degenerate_half_lines():
    cut = BallCut(r=(F(1, 4), F(1, 3), F(5, 12)), side_choice=(True, False, True))
    chords = {(a, s) for s, a in enumerate(cut.chord_lines())}
    for a, s in _HALF_LINES:
        for u in (F(1, 2), F(1)):
            x = _on_half_line(cut.r, a, s, u)
            got = _outcome(evaluate, cut, x)
            assert (got is DegenerateEvaluationError) == ((a, s) in chords)
            assert got == _outcome(oracle_label, cut, x)
    assert _outcome(evaluate, cut, cut.r) is DegenerateEvaluationError


def test_batch_labels_match_oracle_on_aligned_centres():
    params = _aligned_params()
    seen_degenerate = 0
    for n in (2, 3, 4, 6):
        pts = enumerate_points(3, n)
        labels, degenerate = batch_labels(params, pts, n)
        for i in range(len(degenerate)):
            cut = _params_to_cut(params, i)
            want = [_outcome(oracle_label, cut, tuple(F(a, n) for a in p)) for p in pts]
            assert degenerate[i] == (DegenerateEvaluationError in want)
            if not degenerate[i]:
                assert list(labels[i]) == want
        seen_degenerate += int(degenerate.sum())
        assert not degenerate.all()
    assert seen_degenerate > 0


# ---------------------------------------------------------------------------
# Per-class scoring against the per-draw loop
# ---------------------------------------------------------------------------


def oracle_density(n, samples, seed):
    """Reference: label every draw at every point and count each edge's
    separations draw by draw, with the same draws and redraws as
    `estimate_density`.  Returns (separations, corner_fraction, resampled).
    It draws through `rounding._draw_params`, so a test can substitute it."""
    points = enumerate_points(3, n)
    pindex = point_index(3, n)
    edges = enumerate_edges(3, n)
    rng = np.random.default_rng(seed)
    sep = np.zeros(len(edges), np.int64)
    corner_count = resampled = done = 0
    while done < samples:
        want = min(_batch_size(n), samples - done)
        params = rounding._draw_params(rng, want)
        labels, degenerate = batch_labels(params, points, n)
        while degenerate.any():
            redo = np.flatnonzero(degenerate)
            resampled += redo.size
            fresh = rounding._draw_params(rng, redo.size)
            sub_labels, sub_deg = batch_labels(fresh, points, n)
            labels[redo] = sub_labels
            for key in params:
                params[key][redo] = fresh[key]
            degenerate[:] = False
            degenerate[redo] = sub_deg
        corner_count += int(params["is_corner"].sum())
        for e_idx, (u, v) in enumerate(edges):
            sep[e_idx] += int(np.count_nonzero(labels[:, pindex[u]] != labels[:, pindex[v]]))
        done += want
    return sep, corner_count / samples, resampled


def _assert_matches_oracle(n, samples, seed):
    want_sep, corner_fraction, resampled = oracle_density(n, samples, seed)
    est = estimate_density(n, samples, seed)
    assert [s.separations for s in est.pair_stats] == want_sep.tolist()
    assert tuple(s.edge for s in est.pair_stats) == enumerate_edges(3, n)
    assert (est.resampled, est.corner_fraction) == (resampled, corner_fraction)
    worst = int(np.argmax(want_sep))  # the first edge of largest count
    assert est.worst_pair == enumerate_edges(3, n)[worst]
    assert est.tau_hat == want_sep[worst] / samples * n


def test_estimate_density_matches_per_draw_oracle():
    for n, seed in ((2, 3), (3, 1), (6, 2), (12, 2)):
        _assert_matches_oracle(n, 20_000, seed)
    # two batches: a full one and a short one
    assert _batch_size(17) < 200_000
    _assert_matches_oracle(17, _batch_size(17) + 5000, 1)


def test_estimate_density_redraws_like_the_oracle(monkeypatch):
    # the first batch and its first redraw carry forced degenerate ball cuts
    # (centre at t = 1/2 on diagonal 0 and chord lines 1, 0, 0, where n r_0 = n/3
    # and n r_1 = n/2 are integers), so the redraw loop runs at least twice
    def forcing_draws(calls):
        def draw(rng, count):
            params = _draw_params(rng, count)
            calls.append(count)
            if len(calls) <= 2:
                rows = slice(0, min(count, 7))
                params["is_corner"][rows] = False
                params["diag"][rows] = 0
                params["jt"][rows] = PARAM_CELLS // 2
                params["choice"][rows] = 0
            return params

        return draw

    for n in (2, 3, 6, 12):
        oracle_calls, calls = [], []
        monkeypatch.setattr(rounding, "_draw_params", forcing_draws(oracle_calls))
        want = oracle_density(n, 5000, 4)
        monkeypatch.setattr(rounding, "_draw_params", forcing_draws(calls))
        est = estimate_density(n, 5000, 4)
        assert [s.separations for s in est.pair_stats] == want[0].tolist()
        assert (est.corner_fraction, est.resampled) == want[1:]
        assert calls == oracle_calls and len(calls) >= 3 and est.resampled >= 14


def draw_params_int64(rng, count):
    """Reference: `_draw_params` as it was before its coin flips were
    narrowed, every integer array kept as drawn, in int64."""
    M = PARAM_CELLS
    return {
        "is_corner": rng.integers(0, P_CORNER.denominator, count) < P_CORNER.numerator,
        "jr": rng.integers(0, M, count),
        "diag": rng.integers(0, 2, count),
        "jt": rng.integers(1, M, count),
        "choice": rng.integers(0, 2, (count, 3)),
    }


def test_int8_coin_flips_keep_the_int64_draws_and_estimates(monkeypatch):
    params = _draw_params(np.random.default_rng(7), 3 * KEY_BLOCK)
    wide = draw_params_int64(np.random.default_rng(7), 3 * KEY_BLOCK)
    assert params["diag"].dtype == params["choice"].dtype == np.int8
    assert wide["diag"].dtype == wide["choice"].dtype == np.int64
    assert all(np.array_equal(params[key], wide[key]) for key in wide)
    for n in (2, 6, 12, 1022):
        key, degenerate = _class_keys(params, n)
        want_key, want_degenerate = _class_keys(wide, n)
        assert np.array_equal(key, want_key) and np.array_equal(degenerate, want_degenerate)
    for n, seed in ((12, 1), (6, 3), (6, 9)):
        est = estimate_density(n, 200_000, seed)
        with monkeypatch.context() as m:
            m.setattr(rounding, "_draw_params", draw_params_int64)
            want = estimate_density(n, 200_000, seed)
        assert [s.separations for s in est.pair_stats] == [s.separations for s in want.pair_stats]
        assert (est.resampled, est.corner_fraction) == (want.resampled, want.corner_fraction)


def test_separations_in_edge_chunks_match_one_chunk(monkeypatch):
    n = 6
    points = enumerate_points(3, n)
    index = point_index(3, n)
    eu = np.array([index[x] for x, _ in enumerate_edges(3, n)])
    ev = np.array([index[y] for _, y in enumerate_edges(3, n)])
    params = _draw_params(np.random.default_rng(9), 40)
    labels, _ = batch_labels(params, points, n)
    counts = np.arange(1, 41)
    want = [int(counts[labels[:, u] != labels[:, v]].sum()) for u, v in zip(eu, ev)]
    for cap in (8 * 40 * 7, 8 * 40, 1):  # 7 edges, one edge, and below one edge per chunk
        monkeypatch.setattr(rounding, "LABEL_BYTES", cap)
        assert _edge_chunk(40) == max(1, cap // (8 * 40))
        assert _separations(labels, counts, eu, ev).tolist() == want


def test_batch_arrays_fit_label_bytes():
    # per batch: the largest draw array, choice, holds 3 int64 per draw, and
    # the key kernel's temporaries 3 int64 per draw of one KEY_BLOCK; the
    # labels hold one int8 per class and point, and an edge chunk's compare,
    # widened to int64, 8 bytes per class and edge; classes never outnumber draws
    assert 24 * KEY_BLOCK <= LABEL_BYTES
    for n in (2, 12, 16, 17, 45, 1000, MAX_GRID_N):
        draws = _batch_size(n)
        assert 24 * draws <= LABEL_BYTES
        for classes in (1, draws):
            assert classes * comb(n + 2, 2) <= LABEL_BYTES
            assert 8 * classes * _edge_chunk(classes) <= LABEL_BYTES
    n = MAX_GRID_N
    assert _batch_size(n) == LABEL_BYTES // comb(n + 2, 2) and _edge_chunk(1) == LABEL_BYTES // 8


def test_class_keys_allocate_their_outputs_and_block_temporaries_only():
    # on 200,000 draws the kernel's outputs, int64 keys and bool flags, take
    # 9 B per draw; its temporaries are KEY_BLOCK-sized: about ten int64 arrays
    # of one block (the product t, three floors, the ball and corner keys and
    # their operands) live at once, and the rare rows' arrays are far smaller.
    # 16 blocks of int64 leave room for allocator noise, but not for one
    # batch-sized int64 array (200,000 draws, over 24 blocks).
    draws = 200_000
    params = _draw_params(np.random.default_rng(3), draws)
    for n in (6, 512, MAX_GRID_N):  # 512 = 2^9 has the most rows with M/2 | n jt
        _class_keys(params, n)
        tracemalloc.start()
        try:
            _class_keys(params, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * draws + 16 * KEY_BLOCK * 8


def test_estimate_density_traced_peak_is_the_draw_arrays():
    # one 200,000-draw batch at n = 12: its draw arrays (is_corner, diag and
    # choice 1 byte each, jr and jt 8) take 21 B per draw, 4.0 MiB, and live
    # until the keys are computed.  The peak is the choice draw itself: until
    # its int8 cast, its int64 array adds 24 B per draw, 8.0 MiB in all.  The
    # keys and degenerate flags add 9 B per draw, 1.72 MiB, and the key
    # kernel's temporaries, about ten KEY_BLOCK int64 at 64 KiB each, about
    # 0.6 MiB.  12 MiB leaves room for allocator noise, but not for coin
    # flips kept in int64: 49 B of draw arrays per draw, a 12.6 MiB peak.
    estimate_density(12, 200_000, 5)  # warm the grid caches
    tracemalloc.start()
    try:
        estimate_density(12, 200_000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
