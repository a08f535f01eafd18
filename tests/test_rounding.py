"""Randomized simplex-partition sampler and the density estimator."""

import random
from fractions import Fraction

import numpy as np
import pytest

from mwgap import cli, rounding
from mwgap.core import enumerate_points, support
from mwgap.rounding import (
    BallCut,
    CornerCut,
    DIAGONALS,
    DegenerateEvaluationError,
    EXTRA,
    LABEL_BYTES,
    MAX_N,
    PARAM_CELLS,
    _batch_labels,
    _batch_size,
    _draw_params,
    estimate_density,
    evaluate,
    sample_cut,
    segments_intersect,
)


def F(a, b=1):
    return Fraction(a, b)


def _params_to_cut(params, i):
    """Reference cut object for row i of a parameter batch."""
    M = PARAM_CELLS
    if params["is_corner"][i]:
        return CornerCut(r=Fraction(2 * M + int(params["jr"][i]), 3 * M))
    diag = int(params["diag"][i])
    t = Fraction(int(params["jt"][i]), M)
    A, B = DIAGONALS[diag]
    r = tuple((1 - t) * A[j] + t * B[j] for j in range(3))
    choice = tuple(bool(v) for v in params["choice"][i])
    return BallCut(r=r, side_choice=choice, diag=diag, t=t)


def _ball_at(diag, t, side_choice=(False, False, False)):
    A, B = DIAGONALS[diag]
    r = tuple((1 - t) * A[i] + t * B[i] for i in range(3))
    return BallCut(r=r, side_choice=side_choice, diag=diag, t=t)


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
    rng = random.Random(2)
    n = 7
    pts = enumerate_points(3, n)
    evaluated = 0
    for _ in range(30):
        cut = sample_cut(rng)
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
    rng1, rng2 = random.Random(5), random.Random(5)
    kinds = []
    for _ in range(400):
        c1, c2 = sample_cut(rng1), sample_cut(rng2)
        assert c1 == c2
        kinds.append(isinstance(c1, CornerCut))
    frac = sum(kinds) / len(kinds)
    assert 0.1 < frac < 0.35  # p_corner = 1/5


def test_sampled_parameter_ranges():
    rng = random.Random(6)
    for _ in range(500):
        cut = sample_cut(rng)
        if isinstance(cut, CornerCut):
            assert F(2, 3) <= cut.r < 1
        else:
            assert 0 < cut.t < 1
            assert cut.diag in (0, 1)
            assert all(0 < ri < 1 for ri in cut.r)
            assert sum(cut.r) == 1


def test_sample_cut_rejects_bad_mixture():
    with pytest.raises(ValueError):
        sample_cut(random.Random(0), Fraction(7, 5))


def test_batch_labels_match_reference_evaluator():
    n = 5
    pts = enumerate_points(3, n)
    rng = np.random.default_rng(42)
    params = _draw_params(rng, 300, Fraction(1, 5))
    labels, degenerate = _batch_labels(params, pts, n)
    for i in range(300):
        if degenerate[i]:
            continue
        cut = _params_to_cut(params, i)
        for j, p in enumerate(pts):
            ref = evaluate(cut, tuple(Fraction(a, n) for a in p))
            assert labels[i, j] == ref


def test_estimate_density_deterministic():
    a = estimate_density(3, 20000, Fraction(1, 5), 123)
    b = estimate_density(3, 20000, Fraction(1, 5), 123)
    assert a.tau_hat == b.tau_hat
    assert a.worst_pair == b.worst_pair
    c = estimate_density(3, 20000, Fraction(1, 5), 124)
    assert a.tau_hat != c.tau_hat


def test_estimate_density_statistics_shape():
    est = estimate_density(3, 50000, Fraction(1, 5), 7)
    assert est.samples == 50000
    assert 0 < est.tau_hat < 2
    assert est.ci3sigma > 0
    assert abs(est.corner_fraction - 0.2) < 0.02
    for stat in est.pair_stats:
        assert 0 <= stat.separations <= est.samples
        assert 0.0 <= stat.p_hat <= 1.0


def test_estimate_density_rejects_bad_parameters():
    with pytest.raises(ValueError):
        estimate_density(1, 100000, Fraction(1, 5), 1)
    with pytest.raises(ValueError):
        estimate_density(3, 100000, Fraction(7, 5), 1)


def test_param_cells_is_power_of_two():
    assert PARAM_CELLS & (PARAM_CELLS - 1) == 0


def test_max_n_is_the_int64_bound():
    # the largest orientation is (3 M n)^2 (1 - 1/(3M)): it fits at n = MAX_N, not one above
    peak = lambda n: (3 * PARAM_CELLS * n) ** 2 * (1 - F(1, 3 * PARAM_CELLS))
    assert MAX_N == 965
    assert peak(MAX_N) < 2**63 <= peak(MAX_N + 1)


def test_batch_labels_exact_at_max_n():
    # the largest orientation pairs a corner grid point with the chord end of
    # the center at diag 1, t = 1/M; all centers here sit at t = 1/M or 1 - 1/M
    n = MAX_N
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
    labels, degenerate = _batch_labels(params, pts, n)
    assert not degenerate.any()
    for i in range(len(combos)):
        cut = _params_to_cut(params, i)
        for j, p in enumerate(pts):
            assert labels[i, j] == evaluate(cut, tuple(Fraction(a, n) for a in p))


def test_estimate_density_rejects_n_past_int64_bound(monkeypatch):
    def no_allocation(*args):
        raise AssertionError("allocated before rejecting n")

    monkeypatch.setattr(rounding, "enumerate_points", no_allocation)
    with pytest.raises(ValueError, match="int64"):
        estimate_density(MAX_N + 1, 1000, Fraction(1, 5), 1)
    with pytest.raises(ValueError, match="int64"):
        _batch_labels(_draw_params(np.random.default_rng(0), 1, Fraction(1, 5)), [], MAX_N + 1)
    assert cli.main(["round", "--n", str(MAX_N + 1), "--samples", "1000", "--seed", "1"]) == 2


def test_batch_size_caps_label_bytes():
    # criterion 9 and the 200k-draw jobs at n <= 16 keep one 200,000-draw batch
    for n in (6, 12, 16):
        assert _batch_size(n) == 200_000
    assert _batch_size(17) < 200_000
    # at MAX_N the int8 label matrix of one batch stays within the budget
    points = (MAX_N + 1) * (MAX_N + 2) // 2
    assert _batch_size(MAX_N) >= 1
    assert _batch_size(MAX_N) * points <= LABEL_BYTES
