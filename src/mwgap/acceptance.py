"""The claims ledger: one runnable check per headline claim.

`CRITERIA` maps each id to its name and check function.  `run_ledger` is
the one runner, shared by the CLI `ledger` subcommand and the acceptance
tests: it builds each `CriterionResult`, times the check and prints its
line and details.  A check records failures with `CriterionResult.check`
and may add info lines.  Sizes and seeds are pinned below, so every run
draws the same corpus.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt

import numpy as np

from .core import (
    EXTRA,
    WeightFunction,
    cost,
    edge_index,
    enumerate_points,
    lpc,
    point_sides,
    random_kway_cut,
    random_nonopposite_cut,
)
from .dual import (
    NONOPPOSITE,
    THREEWAY,
    brute_force_min_cut,
    certify,
    check_potentials,
    classify_cut,
    normalize_cut,
    uncut_edges,
)
from .lpsearch import search
from .projection import check_cost_lemmas, check_projection_bounds, restrict_triple
from .rounding import P_CORNER, estimate_density
from .weights import (
    build_fk,
    build_w3,
    build_w_hat,
    build_w_prime,
    build_w_tilde,
    lpc_w3_closed,
    lpc_w_tilde_closed,
)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool = True
    details: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def check(self, ok: bool, msg: str) -> None:
        """Fail the result and record msg unless ok."""
        if not ok:
            self.passed = False
            self.details.append(msg)

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.cid}: {self.name} ({self.seconds:.1f}s)"


NS = list(range(3, 31, 3))
ORACLE_SEED, ORACLE_TRIALS = 20260826, 20
# criteria 5-8 each draw TRIALS random cuts; criteria 5-9 derive their seeds from their id
TRIALS = 1000
PROJECTION_GRIDS = ((5, 3), (6, 3), (8, 3))
RATIO_N = 30
RATIO_KS = range(4, 9)
INJECTION_K, INJECTION_N = 12, 3
DENSITY_SAMPLES = 1_000_000
SEARCH_N = 12


def criterion_1(res: CriterionResult) -> None:
    """Exact canonical LP values of all five weight families."""
    for n in NS:
        res.check(lpc(build_w3(n)) == lpc_w3_closed(n), f"lpc(w3({n})) != 5/6 + 1/(2n)")
    res.check(lpc(build_fk()) == Fraction(7, 8), "lpc(fk) != 7/8")
    for k in range(3, 9):
        for n in (3, 6):
            res.check(lpc(build_w_prime(k, n)) == 1, f"lpc(w_prime({k},{n})) != 1")
            res.check(lpc(build_w_tilde(k, n)) == lpc_w_tilde_closed(k, n), f"lpc(w_tilde({k},{n})) mismatch")


def criterion_2(res: CriterionResult) -> None:
    """Non-opposite lower bound 1 certified for w3 at every n."""
    for n in NS:
        cert = certify(n, build_w3(n), NONOPPOSITE, Fraction(1))
        res.check(cert.passed, f"n={n}: certificate overall {cert.overall} < 1")
        res.check(
            all(v >= Fraction(1, 3) for v in cert.pairwise.values()),
            f"n={n}: some outer distance < 1/3: {cert.pairwise}",
        )
        res.check(cert.ball >= 1, f"n={n}: ball bound {cert.ball} < 1")


def criterion_3(res: CriterionResult) -> None:
    """Potential function checks at every n."""
    for n in NS:
        rep = check_potentials(n, build_w3(n))
        res.check(rep.ok, f"n={n}: potential check violated: {rep.violation}")


def criterion_4(res: CriterionResult) -> None:
    """Brute-force oracle agreement at tiny scale."""
    mn, _ = brute_force_min_cut(2, build_fk(), NONOPPOSITE)
    res.check(mn == 1, f"brute fk nonopposite = {mn} != 1")
    w3 = build_w3(3)
    mn, _ = brute_force_min_cut(3, w3, NONOPPOSITE)
    res.check(mn >= 1, f"brute w3(3) nonopposite = {mn} < 1")
    mn, _ = brute_force_min_cut(3, w3, THREEWAY)
    res.check(mn >= Fraction(2, 3), f"brute w3(3) threeway = {mn} < 2/3")
    rng = random.Random(ORACLE_SEED)
    u, v = edge_index(3, 3)
    for t in range(ORACLE_TRIALS):
        # each edge in turn: kept with probability 0.8, then a weight in {0, 1/8, ..., 2}
        nums = np.array([rng.randrange(0, 17) if rng.random() < 0.8 else 0 for _ in range(u.size)])
        w = WeightFunction.from_numerators(3, 3, 8, u, v, nums)
        for family in (NONOPPOSITE, THREEWAY):
            bf, _ = brute_force_min_cut(3, w, family)
            cert = certify(3, w, family, Fraction(0))
            res.check(bf >= cert.overall, f"trial {t} {family}: brute {bf} < certificate {cert.overall}")


def criterion_5(res: CriterionResult) -> None:
    """Normalization yields ball/3-corner form without raising cost."""
    for n in (3, 6):
        w = build_w3(n)
        rng = random.Random(5 + n)
        for t in range(TRIALS):
            P = random_nonopposite_cut(n, rng)
            Q = normalize_cut(P, w)
            shape = classify_cut(Q)
            res.check(shape in ("ball", "3corner"), f"n={n} trial {t}: shape {shape}")
            res.check(cost(Q, w) <= cost(P, w), f"n={n} trial {t}: cost increased")
            res.check(uncut_edges(P) <= uncut_edges(Q), f"n={n} trial {t}: previously uncut edge was cut")
            if not res.passed:
                return


def criterion_6(res: CriterionResult) -> None:
    """Projection propositions by exact enumeration over random cuts."""
    for k, n in PROJECTION_GRIDS:
        rng = random.Random(6000 + k)
        for t in range(TRIALS):
            rep = check_projection_bounds(random_kway_cut(k, n, rng))
            res.check(
                rep.ok,
                f"(k={k},n={n}) trial {t}: fraction {rep.fraction_nonopposite} "
                f"below bound {max(rep.refined_bound, rep.coarse_bound)}",
            )
            if not res.passed:
                return


def fk_ratio(k: int) -> Fraction:
    """Freund-Karloff's integrality ratio 8/(7 + 1/(k-1))."""
    return Fraction(8) / (7 + Fraction(1, k - 1))


def paper_ratio(k: int) -> Fraction:
    """The paper's integrality ratio 6/(5 + 1/(k-1)), approached as n grows."""
    return Fraction(6) / (5 + Fraction(1, k - 1))


def criterion_7(res: CriterionResult) -> None:
    """Cost lemmas in exact arithmetic, plus the paper's bounds on the gap ratio.

    The cost lemmas give cost(P, w_tilde) >= 1 for every k-way cut P; the
    loop spot-checks them on seeded random cuts, and `check_ratios` bounds
    the integrality ratio that this lower bound gives.
    """
    for k, n in PROJECTION_GRIDS:
        weights = (build_w_hat(k, n), build_w_prime(k, n), build_w_tilde(k, n))
        rng = random.Random(7000 + k)
        for t in range(TRIALS):
            rep = check_cost_lemmas(random_kway_cut(k, n, rng), n, weights)
            res.check(rep.ok, f"(k={k},n={n}) trial {t}: {rep.violations}")
            if not res.passed:
                return
    check_ratios(res)


def check_ratios(res: CriterionResult) -> None:
    """The cost lemmas' lower bound 1 over lpc(w_tilde) is the integrality
    ratio of w_tilde.  At n = 30 and every k in 4..8 (the k whose closed
    form criterion 1 checks against the built w_tilde), the ratio must beat
    Freund-Karloff's 8/(7 + 1/(k-1)) and stay strictly below the paper's
    6/(5 + 1/(k-1)).  At k = 8 it must equal the hand-derived 70/61.
    """
    for k in RATIO_KS:
        ratio = 1 / lpc_w_tilde_closed(k, RATIO_N)
        lo, hi = fk_ratio(k), paper_ratio(k)
        res.check(lo < ratio, f"k={k}, n={RATIO_N}: ratio {ratio} not above FK bound {lo}")
        res.check(ratio < hi, f"k={k}, n={RATIO_N}: ratio {ratio} not below paper bound {hi}")
    # by hand: lpc = (6/7) * (5/6 + 1/60) + 1/7 = 61/70
    ratio = 1 / lpc_w_tilde_closed(8, RATIO_N)
    res.check(ratio == Fraction(70, 61), f"ratio at k=8, n={RATIO_N} is {ratio}, not 70/61")
    res.details.append(
        f"ratio at k=8, n={RATIO_N} = {ratio} = {float(ratio):.5f}; "
        f"FK {fk_ratio(8)} < ratio < paper {paper_ratio(8)}, deficit {paper_ratio(8) - ratio}"
    )


def criterion_8(res: CriterionResult) -> None:
    """Injection restriction stays non-opposite; bad frequency within bound."""
    K, n = INJECTION_K, INJECTION_N
    rng = random.Random(8)
    sides = point_sides(3, n)
    bad_counts = np.zeros(len(sides), np.intp)
    for t in range(TRIALS):
        P = random_kway_cut(K, n, rng)
        restriction = restrict_triple(P, *rng.sample(range(K), 3))
        lab = restriction.fixed.label_array
        res.check(
            ((lab == EXTRA) | (sides >> lab & 1 == 0)).all(),  # label c is in supp(x) when bit c is clear
            f"trial {t}: restriction not non-opposite",
        )
        bad_counts += restriction.bad
    bound = 3 / (K - 3)
    sigma = sqrt(bound * (1 - bound) / TRIALS)
    for p, c in zip(enumerate_points(3, n), bad_counts.tolist()):
        freq = c / TRIALS
        res.check(freq <= bound + 3 * sigma, f"point {p}: bad frequency {freq:.4f} > {bound:.4f} + 3 sigma")


def criterion_9(res: CriterionResult) -> None:
    """Monte-Carlo maximum density at n = 6 stays within 6/5."""
    est = estimate_density(6, DENSITY_SAMPLES, 9)
    res.check(
        est.tau_hat <= 1.2 + 3 * est.max_sigma_tau,
        f"tau_hat {est.tau_hat:.5f} > 1.2 + {3 * est.max_sigma_tau:.5f}",
    )
    p = float(P_CORNER)
    sigma_mix = sqrt(p * (1 - p) / DENSITY_SAMPLES)
    res.check(
        abs(est.corner_fraction - p) <= 3 * sigma_mix,
        f"corner fraction {est.corner_fraction:.5f} off {P_CORNER} by more than 3 sigma",
    )
    res.details.append(f"tau_hat = {est.tau_hat:.5f} at pair {est.worst_pair}, resampled {est.resampled}")


def criterion_10(res: CriterionResult) -> None:
    """The potential-LP search certifies weights whose exact lpc lies in
    [5/6, lpc(w3(n)) + 1e-6]."""
    st = search(SEARCH_N)
    lo = Fraction(5, 6)
    hi = lpc_w3_closed(SEARCH_N) + Fraction(1, 10**6)
    res.check(st.certified, "search result not certified by the exact recheck")
    res.check(
        lo <= st.lpc_exact <= hi,
        f"lpc_exact {float(st.lpc_exact):.9f} outside [{float(lo):.9f}, {float(hi):.9f}]",
    )
    res.details.append(f"LP solves {st.iterations}, lpc_exact {float(st.lpc_exact):.9f}")


CRITERIA = {
    1: ("canonical LP values, exact", criterion_1),
    2: ("non-opposite lower bound certified", criterion_2),
    3: ("potential checks", criterion_3),
    4: ("oracle agreement at tiny scale", criterion_4),
    5: ("normalization property", criterion_5),
    6: ("projection propositions", criterion_6),
    7: ("cost lemmas, exact", criterion_7),
    8: ("injection restriction", criterion_8),
    9: ("rounding density", criterion_9),
    10: ("LP search window", criterion_10),
}


def run_ledger(ids=None) -> list[CriterionResult]:
    """Run the given criteria (all when ids is None) once each, in id
    order, printing each result's line and details as it finishes."""
    ids = set(CRITERIA if ids is None else ids)
    unknown = sorted(ids - set(CRITERIA))
    if unknown:
        valid = f"{min(CRITERIA)}-{max(CRITERIA)}"
        raise ValueError(f"unknown criterion id(s) {', '.join(map(str, unknown))}; valid ids are {valid}")
    results = []
    for cid in sorted(ids):
        name, criterion = CRITERIA[cid]
        res = CriterionResult(cid, name)
        t0 = time.perf_counter()
        criterion(res)
        res.seconds = time.perf_counter() - t0
        print(res.line())
        for d in res.details:
            print(f"    {d}")
        results.append(res)
    return results
