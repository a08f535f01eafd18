"""The four benchmark workloads: inputs from a seed, jobs, exact checks.

A workload's setup function takes the run seed and returns its job list:
(name, callable) pairs whose inputs (random cuts, shared weight
functions) are generated during setup.  A job returns a digest of its
exact results and raises CheckFailed when a check fails.  Where the
results are exact and independent of solver and RNG order (triangle
certificates, k-way cost lemmas), `expected.json` holds the digest
recorded for each job, and a mismatch is a failed job.

mwgap must be importable before this module is imported.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from functools import partial

from mwgap import core, dual, lpsearch, projection, rounding, weights


class CheckFailed(AssertionError):
    """An exact check on a job's result did not hold."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def digest(parts) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# triangle: dual shortest-path certificates and normalization on w3(n)
# ---------------------------------------------------------------------------

TRIANGLE_NS = range(3, 46, 3)
NORMALIZE_NS = (6, 9)
NORMALIZE_CUTS = 50
CERTIFY_TARGETS = ((dual.NONOPPOSITE, Fraction(1)), (dual.THREEWAY, Fraction(2, 3)))


def certify_job(n: int) -> str:
    w = weights.build_w3(n)
    parts = []
    for family, target in CERTIFY_TARGETS:
        cert = dual.certify(n, w, family, target)
        check(cert.passed, f"w3({n}) {family}: bound {cert.overall} < {target}")
        parts += [family, *(f"{i},{j}={rat(v)}" for (i, j), v in sorted(cert.pairwise.items()))]
        parts += [rat(cert.ball), rat(cert.corner), rat(cert.two_corner), rat(cert.overall)]
    report = dual.check_potentials(n, w)
    check(report.ok, f"w3({n}) potentials: {report.violation}")
    return digest(parts)


def normalize_job(P: core.Cut, w: core.WeightFunction) -> str:
    Q = dual.normalize_cut(P, w)
    check(dual.classify_cut(Q) in ("ball", "3corner"), f"n={P.n}: normalized cut is not ball/3-corner")
    check(core.cost(Q, w) <= core.cost(P, w), f"n={P.n}: normalization increased the cost")
    check(dual.uncut_edges(P) <= dual.uncut_edges(Q), f"n={P.n}: a previously uncut edge was cut")
    return digest(str(c) for _, c in sorted(Q.labels.items()))


def triangle_setup(seed: int, tiny: bool) -> list:
    rng = random.Random(f"triangle:{seed}")
    ns = TRIANGLE_NS[:3] if tiny else TRIANGLE_NS
    jobs = [(f"certify n={n}", partial(certify_job, n)) for n in ns]
    for n in NORMALIZE_NS:
        w = weights.build_w3(n)
        for i in range(3 if tiny else NORMALIZE_CUTS):
            P = core.random_nonopposite_cut(n, rng)
            jobs.append((f"normalize n={n} #{i}", partial(normalize_job, P, w)))
    return jobs


# ---------------------------------------------------------------------------
# lpsearch: cutting-plane search for minimum-lpc weights (HiGHS master LP)
# ---------------------------------------------------------------------------

LPSEARCH_NS = range(3, 9)


def search_job(n: int) -> str:
    st = lpsearch.search(n)
    check(st.certified, f"search({n}) not certified after {st.iterations} iterations")
    lo = Fraction(5, 6)
    hi = weights.lpc_w3_closed(n) + Fraction(1, 10**6)
    check(lo <= st.lpc_exact <= hi, f"search({n}): lpc_exact {float(st.lpc_exact):.9f} outside window")
    return digest([rat(st.lpc_exact), str(st.iterations)])


def lpsearch_setup(seed: int, tiny: bool) -> list:
    # search() is deterministic, so the seed only fixes the job order.
    ns = list(LPSEARCH_NS[:2] if tiny else LPSEARCH_NS)
    random.Random(f"lpsearch:{seed}").shuffle(ns)
    return [(f"search n={n}", partial(search_job, n)) for n in ns]


# ---------------------------------------------------------------------------
# kway: cost lemmas and face restriction of k-way cuts
# ---------------------------------------------------------------------------

KWAY_GRIDS = ((8, 6), (12, 3))
# Cuts are drawn from a pinned pool per grid so every job has a recorded
# digest; the run seed picks which pool members run.
KWAY_POOL = 256
KWAY_CUTS = 50


def kway_job(P: core.Cut, f: list[int], ws: tuple) -> str:
    lemmas = projection.check_cost_lemmas(P, P.n, ws)
    check(lemmas.ok, f"k={P.k} n={P.n}: {lemmas.violations}")
    bounds = projection.check_projection_bounds(P)
    check(bounds.ok, f"k={P.k} n={P.n}: non-opposite fraction {bounds.fraction_nonopposite} below bound")
    Q = projection.restrict_injection(P, f, 3)
    check(
        all(c == 3 or c in core.support(x) for x, c in Q.labels.items()),
        f"k={P.k} n={P.n}: injection restriction along {f} is not non-opposite",
    )
    values = (lemmas.cost_hat, lemmas.cost_prime, lemmas.cost_tilde, lemmas.d_mean, bounds.fraction_nonopposite)
    return digest(rat(v) for v in values)


def kway_grid_jobs(k: int, n: int, ids) -> list:
    ws = (weights.build_w_hat(k, n), weights.build_w_prime(k, n), weights.build_w_tilde(k, n))
    check(core.lpc(ws[2]) == weights.lpc_w_tilde_closed(k, n), f"lpc(w_tilde({k},{n})) != closed form")
    jobs = []
    for i in ids:
        rng = random.Random(f"kway:{k}:{n}:{i}")
        P = core.random_kway_cut(k, n, rng)
        f = rng.sample(range(k), 3)
        jobs.append((f"cut k={k} n={n} #{i}", partial(kway_job, P, f, ws)))
    return jobs


def kway_setup(seed: int, tiny: bool) -> list:
    rng = random.Random(f"kway:{seed}")
    jobs = []
    for k, n in KWAY_GRIDS:
        jobs += kway_grid_jobs(k, n, rng.sample(range(KWAY_POOL), 3 if tiny else KWAY_CUTS))
    return jobs


# ---------------------------------------------------------------------------
# rounding: vectorised Monte-Carlo separation density
# ---------------------------------------------------------------------------

# (n, samples) per job.  At n = 6 the 400k draws of criterion 9 run as two
# jobs of one 200k batch each, so that more jobs, each between two
# reference probes, share the pass.
ROUNDING_JOBS = ((6, 200_000), (6, 200_000), (12, 200_000))


def density_job(n: int, samples: int, seed: int) -> str:
    # Only exact conditions gate.  tau_hat against 6/5 is statistics and is
    # reported by the trace (rounding.tau_z); degenerate draws are redrawn
    # inside estimate_density and show only as its resample count.
    est = rounding.estimate_density(n, samples, seed=seed)
    check(est.samples == samples, f"n={n}: {est.samples} samples, asked {samples}")
    check(len(est.pair_stats) == 3 * n * (n + 1) // 2, f"n={n}: {len(est.pair_stats)} edges scored")
    check(
        all(0 <= s.separations <= samples for s in est.pair_stats),
        f"n={n}: an edge separated more often than sampled",
    )
    return digest([*(str(s.separations) for s in est.pair_stats), str(est.resampled)])


def rounding_setup(seed: int, tiny: bool) -> list:
    rng = random.Random(f"rounding:{seed}")
    return [
        (f"density n={n} #{i}", partial(density_job, n, 2000 if tiny else samples, rng.randrange(2**32)))
        for i, (n, samples) in enumerate(ROUNDING_JOBS)
    ]


# The reference computation (bench/reference.py) of the kind of work that
# dominates each workload's jobs; job times are scaled by it.
REFERENCE = {
    "triangle": "fraction",
    "lpsearch": "highs",
    "kway": "fraction",
    "rounding": "numpy",
}

WORKLOADS = {
    "triangle": triangle_setup,
    "lpsearch": lpsearch_setup,
    "kway": kway_setup,
    "rounding": rounding_setup,
}


def recorded_jobs() -> list:
    """Every job whose digest `expected.json` records."""
    jobs = [(f"certify n={n}", partial(certify_job, n)) for n in TRIANGLE_NS]
    for k, n in KWAY_GRIDS:
        jobs += kway_grid_jobs(k, n, range(KWAY_POOL))
    return jobs
