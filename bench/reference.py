"""Reference computations that put measured times on a steady scale.

On a shared host the speed of a process drifts by up to 2x over minutes
(other tenants on the same cores), so plain seconds of identical work
spread more than a regression bound allows.  A fixed computation of the
same kind as the measured work, timed just before and just after it, on
the same CPU, drifts with it: the work's time divided by the reference's
time keeps what the program did and drops the host's state.
`Clock.scale` returns that ratio times the reference's nominal time, so a
time reads in reference seconds, close to plain seconds on an idle host.

  fraction  exact Fraction sums stored in a dict (interpreted Python)
  numpy     elementwise arithmetic and counting on 200,000 floats
  highs     a fixed 60 x 150 covering LP through scipy's HiGHS
  import    `import numpy, scipy.optimize` in a fresh interpreter
Jobs use the reference of their workload's kind (workloads.REFERENCE);
set-up uses `import` for the child interpreter's `import mwgap` and the
workload's reference for generating inputs.  None of them touches mwgap,
so a change to mwgap never moves them.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from statistics import median
from time import perf_counter

import numpy as np
from scipy.optimize import linprog

_FLOATS = np.random.default_rng(0).random(200_000)


def _covering_lp() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(1)
    rows, cols = 60, 150
    A = rng.random((rows, cols)) < 0.1
    A[np.arange(rows), np.arange(rows)] = True  # every row coverable
    return np.ones(cols), -A.astype(float), -np.ones(rows)


_LP = _covering_lp()


def fraction_reference() -> float:
    t0 = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 200):
        acc += Fraction(i % 13, 2 * (i % 45) + 2)
        table[i % 97] = acc
    return perf_counter() - t0


def numpy_reference() -> float:
    t0 = perf_counter()
    for _ in range(3):
        sign = np.sign(_FLOATS * 3.0 - _FLOATS * _FLOATS + 0.25)
        np.count_nonzero((sign <= 0) | (_FLOATS > 0.5))
    return perf_counter() - t0


def highs_reference() -> float:
    c, A, b = _LP
    t0 = perf_counter()
    res = linprog(c=c, A_ub=A, b_ub=b, bounds=[(0, None)] * c.size, method="highs")
    elapsed = perf_counter() - t0
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return elapsed


IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy, scipy.optimize; print(time.perf_counter() - t)"


def import_reference() -> float:
    """Seconds for the import, interpreter start-up excluded."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


# name: (computation returning its own seconds, runs per probe (median),
#        nominal seconds: about its time on an idle 2-vCPU x86-64 host)
REFERENCES = {
    "fraction": (fraction_reference, 3, 0.5e-3),
    "numpy": (numpy_reference, 3, 4e-3),
    "highs": (highs_reference, 3, 4.5e-3),
    "import": (import_reference, 1, 0.6),
}


class Clock:
    """Scales timed spans to reference seconds.

    mark() probes the reference before a span; scale(t) probes it after
    the span and returns t * nominal / (mean of the two probes).  The probe
    after one span is the one before the next, so in a run of jobs each job
    sits between two probes."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.run, self.reps, self.nominal_s = REFERENCES[name]
        self.before = 0.0

    def probe(self) -> float:
        return median(self.run() for _ in range(self.reps))

    def mark(self) -> None:
        self.before = self.probe()

    def scale(self, t: float) -> float:
        after = self.probe()
        factor = 2 * self.nominal_s / (self.before + after)
        self.before = after
        return t * factor
