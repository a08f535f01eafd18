"""Cut restriction to faces, and line-label statistics.

The operators here connect k-way cuts of the big simplex grid to
non-opposite cuts of the triangle.  Every lookup of a small-grid point in
the big grid is a row of `core.face_gather`, the one embedding, cached for
the sorted faces by `core.sorted_face_gather`.  `_face_labels` is the one
restriction kernel: it returns the cut P induces on a list of 3-faces, as
raw labels and bad flags, arrays in point order.  `restrict_triple` reads
it on one face and builds the fixed cut from the arrays, restriction along
an injection is that fixed cut, and `check_projection_bounds` runs it on
all sorted 3-faces at once.
`d_profile` reads the terminal-pair lines through the sorted 2-face gather
and counts the labels on each in one numpy pass, for the exact mean D(P);
the label sets D_{i,j} are a view built only when read.  The checks below
verify the probability and cost bounds built on D(P) by exact enumeration.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Optional

import numpy as np

from .core import (
    EXTRA,
    KWAY,
    NONOPPOSITE,
    Cut,
    WeightFunction,
    cost,
    face_gather,
    point_sides,
    sorted_face_gather,
    terminal_ranks,
)
from .weights import build_w_hat, build_w_prime, build_w_tilde


def _face_labels(P: Cut, gather: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The restriction kernel: (raw, bad), the cut P induces on 3-faces.

    gather is a `face_gather` of 3-faces.  Row f, column j: raw is the
    position r of x_j's label among the corners of faces[f], or EXTRA when
    the label lies outside the face, and bad is whether r is a corner
    opposite x_j (bit r of `core.point_sides(3, n)`).  The corners' labels
    are read at the face's terminal columns, as a valid cut labels terminal
    i with i.
    """
    labels = P.label_array[gather]
    corners = labels[:, terminal_ranks(3, P.n)]
    raw = EXTRA
    for r in range(3):
        raw = np.where(labels == corners[:, r, None], r, raw)
    return raw, (point_sides(3, P.n) >> raw & 1).astype(bool)


@dataclass
class RestrictionResult:
    raw: np.ndarray  # read-only, in point order: labels in {0,1,2,3} before the fix-up
    fixed: Cut  # valid non-opposite cut of the triangle grid
    bad: np.ndarray  # read-only bools, in point order: side points whose raw label was opposite


def restrict_triple(P: Cut, i1: int, i2: int, i3: int) -> RestrictionResult:
    """Cut induced by P on the face spanned by terminals i1, i2, i3.

    Triangle point x is looked up with x[r] at coordinate (i1, i2, i3)[r],
    in any order of the indices; labels outside the triple become the extra
    cluster.  Points whose induced label is a corner outside supp(x) are
    "bad" and forced to the extra cluster.
    """
    triple = (i1, i2, i3)
    if len(set(triple)) != 3 or not all(0 <= i < P.k for i in triple):
        raise ValueError(f"indices must be distinct and in range, got {triple}")
    (raw,), (bad,) = _face_labels(P, face_gather(P.k, P.n, [triple]))
    for a in (raw, bad):
        a.setflags(write=False)
    return RestrictionResult(raw, Cut.from_array(3, P.n, np.where(bad, EXTRA, raw), NONOPPOSITE), bad)


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


@dataclass(eq=False)
class DProfile:
    k: int
    lines: np.ndarray  # read-only; row p: the sorted labels on terminal-pair line p, in `combinations` order
    mean: Fraction  # average label-set size over pairs, always >= 2

    @cached_property
    def per_pair(self) -> Mapping[tuple[int, int], frozenset[int]]:
        """The label set D_{i,j} of each terminal pair i < j, as a read-only
        dict, built on first read."""
        return MappingProxyType(dict(zip(combinations(range(self.k), 2), map(frozenset, self.lines.tolist()))))


def d_profile(P: Cut) -> DProfile:
    """Label sets used on the lines between terminal pairs, and their mean
    size, counted in one pass: a sorted line has one label more than it has
    steps between distinct neighbours."""
    if P.family != KWAY:
        raise ValueError("d_profile expects a k-way cut")
    lines = np.sort(P.label_array[sorted_face_gather(P.k, P.n, 2)], axis=1)
    lines.setflags(write=False)
    total = len(lines) + np.count_nonzero(lines[:, 1:] != lines[:, :-1])
    return DProfile(P.k, lines, Fraction(int(total), len(lines)))


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
    _, bad = _face_labels(P, sorted_face_gather(P.k, P.n, 3))
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
