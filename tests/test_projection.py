"""Restriction of k-way cuts to triangle faces and the D(P) machinery."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwgap.core import (
    Cut,
    KWAY,
    embed,
    enumerate_points,
    random_kway_cut,
    support,
    terminal,
)
from mwgap.projection import (
    check_cost_lemmas,
    check_projection_bounds,
    d_profile,
    restrict_injection,
    restrict_triple,
)


def oracle_fraction_nonopposite(P):
    """Reference: the per-face loop over sorted triples, labels read from the dict."""
    triples = list(itertools.combinations(range(P.k), 3))
    good = 0
    for t in triples:
        bad = any(
            P.labels[embed(x, t, P.k)] == t[r] and x[r] == 0
            for x in enumerate_points(3, P.n)
            for r in range(3)
        )
        good += not bad
    return Fraction(good, len(triples))


def oracle_d_profile(P):
    """Reference: each terminal-pair line embedded point by point, labels read from the dict."""
    per_pair = {
        (i, j): frozenset(P.labels[embed((t, P.n - t), (i, j), P.k)] for t in range(P.n + 1))
        for i, j in itertools.combinations(range(P.k), 2)
    }
    return per_pair, Fraction(sum(map(len, per_pair.values())), len(per_pair))


def _identity_cut(k, n):
    labels = {}
    for p in enumerate_points(k, n):
        labels[p] = max(range(k), key=lambda i: (p[i], -i))
    for i in range(k):
        labels[terminal(i, k, n)] = i
    return Cut(k, n, labels, KWAY)


def test_restrict_triple_relabels_into_range():
    P = _identity_cut(5, 3)
    res = restrict_triple(P, 0, 2, 4)
    res.fixed.validate()
    assert res.fixed.k == 3
    for x, c in res.fixed.labels.items():
        assert c in support(x) | {3}


def test_restrict_triple_marks_opposite_side_labels_as_bad():
    # a side point of the face labeled with the opposite triple corner is bad
    P = _identity_cut(5, 3)
    labels = dict(P.labels)
    labels[(0, 0, 1, 0, 2)] = 0  # face point (0, 1, 2): corner 0 is opposite
    P = Cut(5, 3, labels, KWAY)
    res = restrict_triple(P, 0, 2, 4)
    assert res.raw[(0, 1, 2)] == 0
    assert (0, 1, 2) in res.bad_points
    assert res.fixed.labels[(0, 1, 2)] == 3
    # a label outside the triple is the extra cluster, not a bad point
    labels[(1, 0, 1, 0, 1)] = 3
    res = restrict_triple(Cut(5, 3, labels, KWAY), 0, 2, 4)
    assert res.fixed.labels[(1, 1, 1)] == 3
    assert (1, 1, 1) not in res.bad_points


def test_d_profile_identity_cut():
    P = _identity_cut(4, 3)
    prof = d_profile(P)
    # boundary-line points between i and j only use labels i and j
    for pair, labs in prof.per_pair.items():
        assert labs == frozenset(pair)
    assert prof.mean == 2


def test_d_profile_mean_is_average():
    rng = random.Random(3)
    P = random_kway_cut(5, 3, rng)
    prof = d_profile(P)
    pairs = list(itertools.combinations(range(5), 2))
    assert prof.mean == Fraction(sum(len(prof.per_pair[p]) for p in pairs), len(pairs))


@pytest.mark.parametrize("k, n", [(5, 3), (8, 6), (12, 3)])
def test_d_profile_matches_line_oracle(k, n):
    rng = random.Random(k * 100 + n)
    cuts = [random_kway_cut(k, n, rng) for _ in range(10)]
    for _ in range(10):
        # mostly the identity cut, so the line label sets differ in size
        labels = dict(_identity_cut(k, n).labels)
        for x in rng.sample(sorted(labels), 3 * n):
            if max(x) < n:
                labels[x] = rng.randrange(k)
        cuts.append(Cut(k, n, labels, KWAY))
    sizes = set()
    for P in cuts:
        per_pair, mean = oracle_d_profile(P)
        prof = d_profile(P)
        assert prof.per_pair == per_pair and prof.mean == mean
        sizes |= {len(s) for s in per_pair.values()}
    assert len(sizes) > 1


def test_projection_bounds_hold_on_random_cuts():
    for k, n in ((5, 3), (6, 3)):
        rng = random.Random(100 * k + n)
        for _ in range(100):
            rep = check_projection_bounds(random_kway_cut(k, n, rng))
            assert rep.ok
            assert 0 <= rep.fraction_nonopposite <= 1
            assert rep.refined_bound >= 0 and rep.coarse_bound >= 0


def test_projection_identity_cut_all_triples_nonopposite():
    rep = check_projection_bounds(_identity_cut(6, 3))
    assert rep.fraction_nonopposite == 1


def test_restrict_injection_always_nonopposite():
    rng = random.Random(7)
    pts = enumerate_points(3, 3)
    for _ in range(50):
        P = random_kway_cut(10, 3, rng)
        f = rng.sample(range(10), 3)
        Q = restrict_injection(P, f, 3)
        Q.validate()
        for x in pts:
            assert Q.labels[x] in support(x) | {3}


def test_injection_bad_points_definition():
    rng = random.Random(9)
    P = random_kway_cut(10, 3, rng)
    f = [2, 5, 8]
    bad = restrict_triple(P, *f).bad_points
    for x in enumerate_points(3, 3):
        big = tuple(
            sum(x[j] for j in range(3) if f[j] == i) for i in range(10)
        )
        lab = P.labels[big]
        outside = lab in set(f) - {f[j] for j in support(x)}
        assert (x in bad) == outside


@st.composite
def _cut_and_injection(draw):
    k = draw(st.integers(3, 10))
    labels = {}
    for x in enumerate_points(k, 3):
        labels[x] = x.index(3) if max(x) == 3 else draw(st.integers(0, k - 1))
    f = draw(st.permutations(range(k)))[:3]
    return Cut(k, 3, labels, KWAY), f


@given(_cut_and_injection())
def test_restriction_is_nonopposite_with_defined_bad_points(case):
    P, f = case
    res = restrict_triple(P, *f)
    assert restrict_injection(P, f, 3).labels == res.fixed.labels
    for x in enumerate_points(3, 3):
        big = tuple(x[f.index(i)] if i in f else 0 for i in range(P.k))
        lab = P.labels[big]
        bad = lab in set(f) - {f[j] for j in support(x)}
        assert (x in res.bad_points) == bad
        assert res.raw[x] == (f.index(lab) if lab in f else 3)
        assert res.fixed.labels[x] == (3 if bad else res.raw[x])
        assert res.fixed.labels[x] in support(x) | {3}


def test_cost_lemmas_on_random_cuts():
    rng = random.Random(13)
    for _ in range(50):
        P = random_kway_cut(5, 3, rng)
        rep = check_cost_lemmas(P, 3)
        assert rep.ok
        assert rep.cost_tilde >= 1


def test_cost_lemma_tightness_direction():
    # the identity cut has D(P) = 2, so the w_hat bound degenerates to >= 1
    rep = check_cost_lemmas(_identity_cut(5, 3), 3)
    assert rep.ok
    assert rep.d_mean == 2
    assert rep.cost_hat >= 1


@st.composite
def _kway_cut_with_plants(draw):
    """A k-way cut (k <= 10, n in {3, 6}) and whether a bad face was planted.

    Random cuts have almost every face bad and the identity cut none, so
    most draws start from the identity cut and relabel a few face points;
    the last relabelling, if any, gives a side point of a sorted face the
    opposite corner's label, so the cut has at least one bad face.
    """
    k = draw(st.integers(3, 10))
    n = draw(st.sampled_from((3, 6)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 9)) == 0:
        return random_kway_cut(k, n, rng), False
    labels = dict(_identity_cut(k, n).labels)
    flips = draw(st.integers(0, 6))
    for _ in range(flips - 1):
        x = rng.choice([x for x in enumerate_points(3, n) if max(x) < n])
        labels[embed(x, sorted(rng.sample(range(k), 3)), k)] = rng.randrange(k)
    if flips:
        face = sorted(rng.sample(range(k), 3))
        x = rng.choice([x for x in enumerate_points(3, n) if min(x) == 0 and max(x) < n])
        labels[embed(x, face, k)] = face[x.index(0)]
    return Cut(k, n, labels, KWAY), flips > 0


@given(_kway_cut_with_plants())
def test_projection_fraction_matches_per_face_oracle(case):
    P, planted = case
    rep = check_projection_bounds(P)
    assert rep.fraction_nonopposite == oracle_fraction_nonopposite(P)
    triples = list(itertools.combinations(range(P.k), 3))
    good = sum(not restrict_triple(P, *t).bad_points for t in triples)
    assert rep.fraction_nonopposite == Fraction(good, len(triples))
    if planted:
        assert rep.fraction_nonopposite < 1


def test_projection_bounds_build_no_cut(monkeypatch):
    P = random_kway_cut(8, 3, random.Random(2))
    calls = []
    original = Cut.validate
    monkeypatch.setattr(Cut, "validate", lambda self: calls.append(self) or original(self))
    check_projection_bounds(P)
    assert calls == []
    restrict_triple(P, 0, 1, 2)
    assert len(calls) == 1
