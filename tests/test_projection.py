"""Restriction of k-way cuts to triangle faces and the D(P) machinery."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwgap import projection
from mwgap.core import (
    Cut,
    KWAY,
    WeightFunction,
    enumerate_points,
    face_gather,
    random_kway_cut,
    random_nonopposite_cut,
    sorted_face_gather,
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


def embed(x, f, k):
    """Reference embedding: the k-grid point with x[j] at coordinate f[j] and zeros elsewhere."""
    big = [0] * k
    for j, i in enumerate(f):
        big[i] = x[j]
    return tuple(big)


def point_index(k, n):
    """Reference: each point of Delta_{k,n} to its position in `enumerate_points(k, n)`."""
    return {x: i for i, x in enumerate(enumerate_points(k, n))}


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


def test_face_gather_matches_embed_oracle():
    rng = random.Random("face_gather")
    for k, n, m in itertools.product((3, 5, 8, 12), (1, 2, 3, 6), (2, 3)):
        index = point_index(k, n)
        small = enumerate_points(m, n)
        sampled = [rng.sample(range(k), m) for _ in range(20)]
        for faces, gather in (
            (list(itertools.combinations(range(k), m)), sorted_face_gather(k, n, m)),
            (sampled, face_gather(k, n, sampled)),
        ):
            want = [[index[embed(x, f, k)] for x in small] for f in faces]
            assert gather.tolist() == want
            assert not gather.flags.writeable


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
    index = point_index(3, 3)
    assert res.raw[index[(0, 1, 2)]] == 0
    assert res.bad[index[(0, 1, 2)]]
    assert res.fixed.labels[(0, 1, 2)] == 3
    assert not res.raw.flags.writeable and not res.bad.flags.writeable
    # a label outside the triple is the extra cluster, not a bad point
    labels[(1, 0, 1, 0, 1)] = 3
    res = restrict_triple(Cut(5, 3, labels, KWAY), 0, 2, 4)
    assert res.fixed.labels[(1, 1, 1)] == 3
    assert not res.bad[index[(1, 1, 1)]]


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
        assert prof.mean == mean and "per_pair" not in vars(prof)
        assert prof.per_pair == per_pair and "per_pair" in vars(prof)  # built on first read, then kept
        with pytest.raises(TypeError):
            prof.per_pair[0, 1] = frozenset()
        sizes |= {len(s) for s in per_pair.values()}
    assert len(sizes) > 1


def test_d_profile_counts_past_a_bitmask():
    # 70 labels: more than a 64-bit label set could hold
    P = random_kway_cut(70, 1, random.Random(70))
    per_pair, mean = oracle_d_profile(P)
    prof = d_profile(P)
    assert prof.mean == mean and max(P.label_array) > 63
    assert prof.per_pair == per_pair


def test_the_checks_never_build_the_per_pair_view(monkeypatch):
    profiles = []

    def recording(P):
        profiles.append(d_profile(P))
        return profiles[-1]

    monkeypatch.setattr(projection, "d_profile", recording)
    for k, n in ((8, 6), (12, 3)):
        P = random_kway_cut(k, n, random.Random(k))
        assert check_cost_lemmas(P, n).ok and check_projection_bounds(P).ok
    assert len(profiles) == 4 and not any("per_pair" in vars(prof) for prof in profiles)


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
    bad = restrict_triple(P, *f).bad
    index = point_index(3, 3)
    for x in enumerate_points(3, 3):
        big = tuple(
            sum(x[j] for j in range(3) if f[j] == i) for i in range(10)
        )
        lab = P.labels[big]
        outside = lab in set(f) - {f[j] for j in support(x)}
        assert bad[index[x]] == outside


@st.composite
def _cut_and_injection(draw):
    """A random cut on n in {1, 2, 3, 6} and three of its indices in any
    order: a k-way cut (3 <= k <= 10), or a non-opposite cut of the
    triangle, whose extra label 3 lies outside every face."""
    n = draw(st.sampled_from((1, 2, 3, 6)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        P = random_nonopposite_cut(n, rng)
    else:
        P = random_kway_cut(draw(st.integers(3, 10)), n, rng)
    return P, draw(st.permutations(range(P.k)))[:3]


@given(_cut_and_injection())
def test_restriction_is_nonopposite_with_defined_bad_points(case):
    P, f = case
    res = restrict_triple(P, *f)
    assert restrict_injection(P, f, 3).labels == res.fixed.labels
    index = point_index(3, P.n)
    for x in enumerate_points(3, P.n):
        big = tuple(x[f.index(i)] if i in f else 0 for i in range(P.k))
        lab = P.labels[big]
        bad = lab in set(f) - {f[j] for j in support(x)}
        assert res.bad[index[x]] == bad
        assert res.raw[index[x]] == (f.index(lab) if lab in f else 3)
        assert res.fixed.labels[x] == (3 if bad else res.raw[index[x]])
        assert res.fixed.labels[x] in support(x) | {3}


def test_cost_lemmas_on_random_cuts():
    rng = random.Random(13)
    for _ in range(50):
        P = random_kway_cut(5, 3, rng)
        rep = check_cost_lemmas(P, 3)
        assert rep.ok
        assert rep.cost_tilde >= 1


def test_cost_lemmas_report_every_violation():
    # zero weights cost 0, below all three bounds once D(P) < k
    P = _identity_cut(5, 3)
    rep = check_cost_lemmas(P, 3, (WeightFunction(5, 3, {}),) * 3)
    assert rep.d_mean == 2
    assert rep.violations == [
        "cost(P, w_hat) = 0 < 1",
        "cost(P, w_prime) = 0 < 1",
        "cost(P, w_tilde) = 0 < 1",
    ]
    assert not rep.ok


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
    good = sum(not restrict_triple(P, *t).bad.any() for t in triples)
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
