"""Cut restriction to faces, and line-label statistics.

The operators here connect k-way cuts of the big simplex grid to
non-opposite cuts of the triangle.  Every lookup of a small-grid point in
the big grid goes through `core.embed` and `core.point_index`:
`_face_labels` is the one restriction kernel, which reads P's labels on a
list of faces and marks the bad points.  `restrict_triple` builds the raw
labels and the fixed cut from one face's row, restriction along an
injection is its fixed cut, and `check_projection_bounds` runs the kernel
on all sorted faces at once.  `d_profile` reads the lines between
terminal pairs through the same embedding index to get the label sets
D_{i,j} and their mean, and the checks below verify the probability and
cost bounds built on them by exact enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional, Sequence

import numpy as np

from .core import (
    KWAY,
    NONOPPOSITE,
    Cut,
    Point,
    WeightFunction,
    cost,
    embed,
    enumerate_points,
    point_index,
)


def _face_index(k: int, n: int, faces: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(gather, opposite) for a list of ordered faces of [k], all of one size m.

    For face f and x_j the j-th point of the m-grid, gather[f, j] is the
    position of embed(x_j, faces[f], k) in `point_index(k, n)`, and
    opposite[f, j, r] is faces[f][r] where x_j[r] = 0 (a corner opposite
    x_j), else -1.
    """
    index = point_index(k, n)
    small = enumerate_points(len(faces[0]), n)
    gather = np.array([[index[embed(x, f, k)] for x in small] for f in faces], dtype=np.intp)
    opposite = np.where(np.array(small) == 0, np.array(faces)[:, None, :], -1)
    gather.setflags(write=False)
    opposite.setflags(write=False)
    return gather, opposite


@lru_cache(maxsize=16)
def _sorted_face_index(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`_face_index` of the C(k, 3) sorted faces, in `combinations` order."""
    return _face_index(k, n, list(combinations(range(k), 3)))


@lru_cache(maxsize=16)
def _line_gather(k: int, n: int) -> np.ndarray:
    """`_face_index` gather of the C(k, 2) terminal-pair lines, in `combinations` order."""
    return _face_index(k, n, list(combinations(range(k), 2)))[0]


def _face_labels(P: Cut, gather: np.ndarray, opposite: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The restriction kernel: P's labels on faces, and the bad-point mask.

    Row f, column j: the label of embed(x_j, faces[f], k), and whether that
    label is a corner of the face opposite x_j (`_face_index`).
    """
    labels = P.label_array[gather]
    return labels, (labels[:, :, None] == opposite).any(axis=2)


@dataclass
class RestrictionResult:
    raw: dict[Point, int]  # labels in {0,1,2,3} before the fix-up
    fixed: Cut  # valid non-opposite cut of the triangle grid
    bad_points: frozenset[Point]  # side points whose raw label was opposite


def restrict_triple(P: Cut, i1: int, i2: int, i3: int) -> RestrictionResult:
    """Cut induced by P on the face spanned by terminals i1, i2, i3.

    Triangle point x is looked up at embed(x, (i1, i2, i3), k), in any
    order of the indices; labels outside the triple become the extra
    cluster.  Points whose induced label is a corner outside supp(x) are
    "bad" and forced to the extra cluster.
    """
    triple = (i1, i2, i3)
    if len(set(triple)) != 3 or not all(0 <= i < P.k for i in triple):
        raise ValueError(f"indices must be distinct and in range, got {triple}")
    labels, bad_mask = _face_labels(P, *_face_index(P.k, P.n, [triple]))
    raw: dict[Point, int] = {}
    fixed_labels: dict[Point, int] = {}
    bad = []
    for x, lab, is_bad in zip(enumerate_points(3, P.n), labels[0].tolist(), bad_mask[0].tolist()):
        r = triple.index(lab) if lab in triple else 3
        raw[x] = r
        if is_bad:
            bad.append(x)
            r = 3
        fixed_labels[x] = r
    fixed = Cut(3, P.n, fixed_labels, NONOPPOSITE)
    return RestrictionResult(raw=raw, fixed=fixed, bad_points=frozenset(bad))


def restrict_injection(P: Cut, f: Sequence[int], k: int) -> Cut:
    """Non-opposite cut of the triangle grid induced by P along injection f.

    f maps the k = 3 small indices into P's indices; this is the fixed cut
    of `restrict_triple(P, *f)`.
    """
    if k != 3:
        raise ValueError("the triangle grid is the only supported target")
    if len(f) != k:
        raise ValueError(f"f must be an injection of {k} indices, got {f}")
    return restrict_triple(P, *f).fixed


@dataclass
class DProfile:
    per_pair: dict[tuple[int, int], frozenset[int]]
    mean: Fraction  # average label-set size over pairs, always >= 2


def d_profile(P: Cut) -> DProfile:
    """Label sets used on the lines between terminal pairs, and their mean size."""
    if P.family != KWAY:
        raise ValueError("d_profile expects a k-way cut")
    lines = P.label_array[_line_gather(P.k, P.n)].tolist()
    per_pair = dict(zip(combinations(range(P.k), 2), map(frozenset, lines)))
    total = sum(len(s) for s in per_pair.values())
    return DProfile(per_pair=per_pair, mean=Fraction(total, comb(P.k, 2)))


@dataclass
class ProjectionReport:
    fraction_nonopposite: Fraction
    refined_bound: Fraction  # 1 - 3(D(P) - 2)/(k - 2), clamped at 0
    coarse_bound: Fraction  # 1 - 3(n - 1)/(k - 2), clamped at 0
    ok: bool


def check_projection_bounds(P: Cut) -> ProjectionReport:
    """Exact fraction of faces with non-opposite restriction vs both bounds."""
    if P.k < 3:
        raise ValueError("need k >= 3")
    _, bad = _face_labels(P, *_sorted_face_index(P.k, P.n))
    frac = Fraction(int(np.count_nonzero(~bad.any(axis=1))), len(bad))
    D = d_profile(P).mean
    refined = max(Fraction(0), 1 - Fraction(3) * (D - 2) / (P.k - 2))
    coarse = max(Fraction(0), 1 - Fraction(3 * (P.n - 1), P.k - 2))
    return ProjectionReport(
        fraction_nonopposite=frac,
        refined_bound=refined,
        coarse_bound=coarse,
        ok=frac >= refined and frac >= coarse,
    )


@dataclass
class CostLemmaReport:
    d_mean: Fraction
    cost_hat: Fraction
    cost_prime: Fraction
    cost_tilde: Fraction
    bound_hat: Fraction  # 1 - (D(P) - 2)/(k - 2)
    bound_prime: Fraction  # D(P) - 1
    bound_tilde: Fraction  # exactly 1
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_cost_lemmas(
    P: Cut,
    n: int,
    weights: Optional[tuple[WeightFunction, WeightFunction, WeightFunction]] = None,
) -> CostLemmaReport:
    """Exact costs of P against w_hat, w_prime, w_tilde vs the three bounds.

    Prebuilt (w_hat, w_prime, w_tilde) can be passed to amortize
    construction over a corpus of cuts on the same grid.
    """
    from .weights import build_w_hat, build_w_prime, build_w_tilde

    if n != P.n:
        raise ValueError(f"cut is on n = {P.n}, expected {n}")
    if weights is None:
        weights = (build_w_hat(P.k, n), build_w_prime(P.k, n), build_w_tilde(P.k, n))
    what, wprime, wtilde = weights
    D = d_profile(P).mean
    ch, cp, ct = cost(P, what), cost(P, wprime), cost(P, wtilde)
    bh = 1 - (D - 2) / Fraction(P.k - 2)
    bp = D - 1
    bt = Fraction(1)
    violations = []
    if ch < bh:
        violations.append(f"cost(P, w_hat) = {ch} < {bh}")
    if cp < bp:
        violations.append(f"cost(P, w_prime) = {cp} < {bp}")
    if ct < bt:
        violations.append(f"cost(P, w_tilde) = {ct} < {bt}")
    return CostLemmaReport(D, ch, cp, ct, bh, bp, bt, violations)
