"""The claims ledger: one runnable check per headline claim.

Each criterion function returns a CriterionResult; `run_ledger` executes a
selection and is shared by the CLI `ledger` subcommand and the acceptance
test module.  Randomized checks take explicit seeds so runs reproduce.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt

from .core import (
    Cut,
    cost,
    enumerate_points,
    lpc,
    random_kway_cut,
    random_nonopposite_cut,
    support,
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
from .rounding import estimate_density
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
    passed: bool
    details: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.cid}: {self.name} ({self.seconds:.1f}s)"


def _check(details: list[str], ok: bool, msg: str) -> bool:
    if not ok:
        details.append(msg)
    return bool(ok)


NS = list(range(3, 31, 3))


def criterion_1() -> CriterionResult:
    """Exact canonical LP values of all five weight families."""
    details: list[str] = []
    ok = True
    for n in NS:
        ok &= _check(details, lpc(build_w3(n)) == lpc_w3_closed(n), f"lpc(w3({n})) != 5/6 + 1/(2n)")
    ok &= _check(details, lpc(build_fk()) == Fraction(7, 8), "lpc(fk) != 7/8")
    for k in range(3, 9):
        for n in (3, 6):
            ok &= _check(details, lpc(build_w_prime(k, n)) == 1, f"lpc(w_prime({k},{n})) != 1")
            ok &= _check(
                details,
                lpc(build_w_tilde(k, n)) == lpc_w_tilde_closed(k, n),
                f"lpc(w_tilde({k},{n})) mismatch",
            )
    return CriterionResult(1, "canonical LP values, exact", ok, details)


def criterion_2() -> CriterionResult:
    """Non-opposite lower bound 1 certified for w3 at every n."""
    details: list[str] = []
    ok = True
    for n in NS:
        cert = certify(n, build_w3(n), NONOPPOSITE, Fraction(1))
        ok &= _check(details, cert.passed, f"n={n}: certificate overall {cert.overall} < 1")
        ok &= _check(
            details,
            all(v >= Fraction(1, 3) for v in cert.pairwise.values()),
            f"n={n}: some outer distance < 1/3: {cert.pairwise}",
        )
        ok &= _check(details, cert.ball >= 1, f"n={n}: ball bound {cert.ball} < 1")
    return CriterionResult(2, "non-opposite lower bound certified", ok, details)


def criterion_3() -> CriterionResult:
    """Potential function checks at every n."""
    details: list[str] = []
    ok = True
    for n in NS:
        rep = check_potentials(n, build_w3(n))
        ok &= _check(details, rep.ok, f"n={n}: potential check violated: {rep.violation}")
    return CriterionResult(3, "potential checks", ok, details)


def criterion_4(seed: int = 20260826, trials: int = 20) -> CriterionResult:
    """Brute-force oracle agreement at tiny scale."""
    details: list[str] = []
    ok = True
    fk = build_fk()
    mn, _ = brute_force_min_cut(2, fk, NONOPPOSITE)
    ok &= _check(details, mn == 1, f"brute fk nonopposite = {mn} != 1")
    w3 = build_w3(3)
    mn, _ = brute_force_min_cut(3, w3, NONOPPOSITE)
    ok &= _check(details, mn >= 1, f"brute w3(3) nonopposite = {mn} < 1")
    mn, _ = brute_force_min_cut(3, w3, THREEWAY)
    ok &= _check(details, mn >= Fraction(2, 3), f"brute w3(3) threeway = {mn} < 2/3")
    rng = random.Random(seed)
    from .core import WeightFunction, enumerate_edges

    for t in range(trials):
        weights = {
            e: Fraction(rng.randrange(0, 17), 8) for e in enumerate_edges(3, 3) if rng.random() < 0.8
        }
        w = WeightFunction(3, 3, {e: v for e, v in weights.items() if v != 0})
        for family in (NONOPPOSITE, THREEWAY):
            bf, _ = brute_force_min_cut(3, w, family)
            cert = certify(3, w, family, Fraction(0))
            ok &= _check(
                details,
                bf >= cert.overall,
                f"trial {t} {family}: brute {bf} < certificate {cert.overall}",
            )
    return CriterionResult(4, "oracle agreement at tiny scale", ok, details)


def criterion_5(seed: int = 5, trials: int = 1000) -> CriterionResult:
    """Normalization yields ball/3-corner form without raising cost."""
    details: list[str] = []
    ok = True
    for n in (3, 6):
        w = build_w3(n)
        rng = random.Random(seed + n)
        for t in range(trials):
            P = random_nonopposite_cut(n, rng)
            Q = normalize_cut(P, w)
            shape = classify_cut(Q)
            ok &= _check(details, shape in ("ball", "3corner"), f"n={n} trial {t}: shape {shape}")
            ok &= _check(
                details, cost(Q, w) <= cost(P, w), f"n={n} trial {t}: cost increased"
            )
            ok &= _check(
                details,
                uncut_edges(P) <= uncut_edges(Q),
                f"n={n} trial {t}: previously uncut edge was cut",
            )
            if not ok:
                return CriterionResult(5, "normalization property", ok, details)
    return CriterionResult(5, "normalization property", ok, details)


PROJECTION_GRIDS = ((5, 3), (6, 3), (8, 3))


def criterion_6(seed: int = 6, trials: int = 1000) -> CriterionResult:
    """Projection propositions by exact enumeration over random cuts."""
    details: list[str] = []
    ok = True
    for k, n in PROJECTION_GRIDS:
        rng = random.Random(seed * 1000 + k)
        for t in range(trials):
            P = random_kway_cut(k, n, rng)
            rep = check_projection_bounds(P)
            ok &= _check(
                details,
                rep.ok,
                f"(k={k},n={n}) trial {t}: fraction {rep.fraction_nonopposite} "
                f"below bound {max(rep.refined_bound, rep.coarse_bound)}",
            )
            if not ok:
                return CriterionResult(6, "projection propositions", ok, details)
    return CriterionResult(6, "projection propositions", ok, details)


def fk_ratio(k: int) -> Fraction:
    """Freund-Karloff's integrality ratio 8/(7 + 1/(k-1))."""
    return Fraction(8) / (7 + Fraction(1, k - 1))


def paper_ratio(k: int) -> Fraction:
    """The paper's integrality ratio 6/(5 + 1/(k-1)), approached as n grows."""
    return Fraction(6) / (5 + Fraction(1, k - 1))


RATIO_N = 30
RATIO_KS = range(4, 9)


def criterion_7(seed: int = 7, trials: int = 1000) -> CriterionResult:
    """Cost lemmas in exact arithmetic, plus the paper's bounds on the gap ratio.

    The cost lemmas give cost(P, w_tilde) >= 1 for every k-way cut P; the
    loop spot-checks them on seeded random cuts.  That lower bound 1 over
    lpc(w_tilde) is the integrality ratio of w_tilde.  At n = 30 and every
    k in 4..8 (the k whose closed form criterion 1 checks against the built
    w_tilde), the ratio must beat Freund-Karloff's 8/(7 + 1/(k-1)) and stay
    strictly below the paper's 6/(5 + 1/(k-1)).  At k = 8 it must equal the
    hand-derived 70/61.
    """
    details: list[str] = []
    ok = True
    for k, n in PROJECTION_GRIDS:
        weights = (build_w_hat(k, n), build_w_prime(k, n), build_w_tilde(k, n))
        rng = random.Random(seed * 1000 + k)
        for t in range(trials):
            P = random_kway_cut(k, n, rng)
            rep = check_cost_lemmas(P, n, weights)
            ok &= _check(details, rep.ok, f"(k={k},n={n}) trial {t}: {rep.violations}")
            if not ok:
                return CriterionResult(7, "cost lemmas, exact", ok, details)
    # integrality ratio: the cost lemmas' k-way lower bound 1 over lpc(w_tilde)
    for k in RATIO_KS:
        ratio = 1 / lpc_w_tilde_closed(k, RATIO_N)
        lo, hi = fk_ratio(k), paper_ratio(k)
        ok &= _check(details, lo < ratio, f"k={k}, n={RATIO_N}: ratio {ratio} not above FK bound {lo}")
        ok &= _check(details, ratio < hi, f"k={k}, n={RATIO_N}: ratio {ratio} not below paper bound {hi}")
    # by hand: lpc = (6/7) * (5/6 + 1/60) + 1/7 = 61/70
    ratio = 1 / lpc_w_tilde_closed(8, RATIO_N)
    ok &= _check(details, ratio == Fraction(70, 61), f"ratio at k=8, n={RATIO_N} is {ratio}, not 70/61")
    details.append(
        f"ratio at k=8, n={RATIO_N} = {ratio} = {float(ratio):.5f}; "
        f"FK {fk_ratio(8)} < ratio < paper {paper_ratio(8)}, deficit {paper_ratio(8) - ratio}"
    )
    return CriterionResult(7, "cost lemmas, exact", ok, details)


def criterion_8(seed: int = 8, trials: int = 1000, K: int = 12, k: int = 3, n: int = 3) -> CriterionResult:
    """Injection restriction stays non-opposite; bad frequency within bound."""
    details: list[str] = []
    ok = True
    rng = random.Random(seed)
    points = enumerate_points(k, n)
    bad_counts = {p: 0 for p in points}
    for t in range(trials):
        P = random_kway_cut(K, n, rng)
        f = rng.sample(range(K), k)
        res = restrict_triple(P, *f)
        Q = res.fixed
        ok &= _check(
            details,
            all(Q.labels[x] == k or Q.labels[x] in support(x) for x in points),
            f"trial {t}: restriction not non-opposite",
        )
        for p in res.bad_points:
            bad_counts[p] += 1
    bound = k / (K - k)
    sigma = sqrt(bound * (1 - bound) / trials)
    for p, c in bad_counts.items():
        freq = c / trials
        ok &= _check(
            details,
            freq <= bound + 3 * sigma,
            f"point {p}: bad frequency {freq:.4f} > {bound:.4f} + 3 sigma",
        )
    return CriterionResult(8, "injection restriction", ok, details)


def criterion_9(seed: int = 9, samples: int = 1_000_000) -> CriterionResult:
    """Monte-Carlo maximum density at n = 6 stays within 6/5."""
    details: list[str] = []
    est = estimate_density(6, samples, Fraction(1, 5), seed)
    ok = _check(
        details,
        est.tau_hat <= 1.2 + 3 * est.max_sigma_tau,
        f"tau_hat {est.tau_hat:.5f} > 1.2 + {3 * est.max_sigma_tau:.5f}",
    )
    sigma_mix = sqrt(0.2 * 0.8 / samples)
    ok &= _check(
        details,
        abs(est.corner_fraction - 0.2) <= 3 * sigma_mix,
        f"corner fraction {est.corner_fraction:.5f} off 1/5 by more than 3 sigma",
    )
    details.append(f"tau_hat = {est.tau_hat:.5f} at pair {est.worst_pair}, resampled {est.resampled}")
    return CriterionResult(9, "rounding density", ok, details)


def criterion_10(n: int = 12) -> CriterionResult:
    """The potential-LP search certifies weights whose exact lpc lies in
    [5/6, lpc(w3(n)) + 1e-6]."""
    details: list[str] = []
    st = search(n)
    lo = Fraction(5, 6)
    hi = lpc_w3_closed(n) + Fraction(1, 10**6)
    ok = _check(details, st.certified, "search result not certified by the exact recheck")
    ok &= _check(
        details,
        lo <= st.lpc_exact <= hi,
        f"lpc_exact {float(st.lpc_exact):.9f} outside [{float(lo):.9f}, {float(hi):.9f}]",
    )
    details.append(f"LP solves {st.iterations}, lpc_exact {float(st.lpc_exact):.9f}")
    return CriterionResult(10, "LP search window", ok, details)


ALL_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run_ledger(ids=None, verbose: bool = True) -> list[CriterionResult]:
    results = []
    for cid in sorted(ids or ALL_CRITERIA):
        t0 = time.time()
        res = ALL_CRITERIA[cid]()
        res.seconds = time.time() - t0
        results.append(res)
        if verbose:
            print(res.line())
            for d in res.details:
                print(f"    {d}")
    return results
