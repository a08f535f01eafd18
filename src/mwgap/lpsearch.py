"""Minimum-lpc weights certified against non-opposite cuts, by one compact LP.

A weight function on E_{3,n} makes every ball and 3-corner dual path
system cost at least one exactly when it admits potentials satisfying
`dual.potential_system(n)`, so minimizing sum(w)/n over that system gives
the least lpc among certified weights.

The LP is solved on the S3 symmetry orbits of its columns,
`dual.symmetry_orbits(n)`: one variable per orbit, which restricts it to
weights and potentials that do not change when the three terminals are
permuted.  Every Lipschitz and ball row keeps its form there, and the
corner row pi_0(O_1) + pi_0(O_2) + pi_1(O_2) >= 1 reads 3 pi_0(O_1) >= 1:
the reduced LP is the symmetric form of the six margin rows
pi_i(O_j) >= 1/3, the shape of the paper's own potentials.  Its optimum
equals the full system's at every n tested (`tests/test_lpsearch.py`
keeps the full LP as an oracle), with about a sixth of the variables and
rows.

The LP runs once, in floating point, through HiGHS by
`scipy.optimize.milp` with no integrality constraint: the same solve as
`linprog` with `method="highs"`, bit for bit on the orbit LPs tested
(n = 3...15), without `linprog`'s input cleaning and per-call option
checks, which took most of a solve's time.  The orbit rows are built
once per n and cached read-only.  Every final claim is re-established by
an exact rational recheck of the expanded weights after rescaling, so
neither numeric drift nor the reduction can corrupt a certificate.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import MappingProxyType

import numpy as np

from .core import WeightFunction, edge_index, enumerate_edges
from .dual import NONOPPOSITE, Certificate, certify, potential_system, symmetry_orbits

# Nothing here calls `dijkstra`: the recheck's `certify` runs the id-level
# kernel.  The re-export only serves bench/selftest.py, which checks that
# the tracer rebinds it in this module.
from .dual import dijkstra  # noqa: F401


@dataclass
class SearchState:
    n: int
    iterations: int  # LP solves
    certified: bool
    weights: WeightFunction  # final weights, exactly rescaled to lower bound 1
    lpc_exact: Fraction  # exact lpc of the rescaled weights
    certificate: Certificate


def solve_lp(constraints: Sequence[Mapping[int, float]], rhs: Sequence[float], n: int, m: int) -> np.ndarray:
    """Minimize (x_0 + ... + x_{m-1})/n subject to x_j >= 0 for j < m and
    each sparse row's weighted sum being at least its right-hand side.

    A row maps column ids to coefficients; columns m and above are free
    and cost nothing.  Returns x_0 ... x_{m-1}.  Deterministic for fixed
    inputs.  HiGHS solves it through `scipy.optimize.milp` with every
    column continuous, which skips `linprog`'s input cleaning and option
    checks; the rows are negated into A x <= -rhs, as `linprog` took
    them, so HiGHS sees the same LP.  SciPy is imported here, on the
    first solve, so that `import mwgap` does not load it.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    if not constraints:
        return np.zeros(m)
    indptr = np.cumsum([0, *map(len, constraints)])
    indices = [j for row in constraints for j in row]
    data = [-q for row in constraints for q in row.values()]
    columns = max(m, max(indices) + 1)
    A = csr_array((data, indices, indptr), shape=(len(constraints), columns))
    lower = np.zeros(columns)
    lower[m:] = -np.inf
    res = milp(
        c=np.concatenate([np.full(m, 1.0 / n), np.zeros(columns - m)]),
        constraints=LinearConstraint(A, -np.inf, -np.asarray(rhs, dtype=float)),
        bounds=Bounds(lower, np.inf),
    )
    if not res.success:
        raise RuntimeError(f"potential LP failed: {res.message}")
    return np.maximum(res.x[:m], 0.0)


@lru_cache(maxsize=64)
def _orbit_rows(n: int) -> tuple[tuple[Mapping[int, float], ...], tuple[int, ...], int]:
    """`potential_system(n)` on S3-invariant points: `(rows, rhs, m)` for
    `solve_lp`, m the number of edge orbits.

    Column o < m is the orbit total y_o = |o| w_o of an edge orbit, so a
    weight term's coefficient is divided by |o| and sum(y)/n = sum(w)/n;
    every other column is one potential orbit.  Each row's terms on one
    orbit are merged, zero terms dropped, and repeated rows kept once.
    Built once per n and cached, so the rows are read-only mappings and
    rhs a tuple.
    """
    col, coef, rhs = potential_system(n)
    orbits = symmetry_orbits(n)
    m = int(orbits.orbit[: len(enumerate_edges(3, n))].max()) + 1
    c = orbits.orbit[col]
    order = np.argsort(c, axis=1, kind="stable")
    c = np.take_along_axis(c, order, axis=1)
    k = np.take_along_axis(coef, order, axis=1).astype(np.int64)
    for t in (2, 1):  # the terms are sorted by orbit, so a repeat follows its first
        same = c[:, t] == c[:, t - 1]
        k[same, t - 1] += k[same, t]
        k[same, t] = 0
    # a row keeps a nonzero term: its weight, or the sum of its ball or corner terms
    unique = np.unique(np.column_stack((np.where(k != 0, c, -1), k, rhs)), axis=0)
    scale = np.where(np.arange(len(orbits.size)) < m, 1 / orbits.size, 1.0).tolist()
    rows = tuple(
        MappingProxyType({j: q * scale[j] for j, q in zip(cs, ks) if q})
        for cs, ks in zip(unique[:, :3].tolist(), unique[:, 3:6].tolist())
    )
    return rows, tuple(unique[:, 6].tolist()), m


def _to_weight_function(n: int, x: np.ndarray) -> WeightFunction:
    """The floats x >= 0, one per edge slot, as exact numerators over one denominator."""
    ratios = [q.as_integer_ratio() for q in x.tolist()]
    D = lcm(*(d for _, d in ratios))
    return WeightFunction.from_numerators(3, n, D, *edge_index(3, n), [p * (D // d) for p, d in ratios])


def search(n: int) -> SearchState:
    """Least-lpc weights whose non-opposite cuts provably cost at least one.

    Solves the potential LP once on its symmetry orbits, expands the
    orbit totals to one float weight per edge (each orbit's edges share
    it exactly), converts them to exact rationals, and rescales them by
    their exact `certify` bound; the result is certified only if the
    rescaled weights pass `certify` at 1.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    rows, rhs, m = _orbit_rows(n)
    y = solve_lp(rows, rhs, n, m)
    orbits = symmetry_orbits(n)
    orbit = orbits.orbit[: len(enumerate_edges(3, n))]
    w = _to_weight_function(n, y[orbit] / orbits.size[orbit])
    cert = certify(n, w, NONOPPOSITE, Fraction(1))
    bound = cert.overall
    if bound > 0:
        scaled = w.scaled(1 / bound)
        final_cert = certify(n, scaled, NONOPPOSITE, Fraction(1))
        lpc_exact = w.total() / n / bound
        certified = final_cert.passed
    else:
        scaled = w
        final_cert = cert
        lpc_exact = Fraction(0)
        certified = False
    return SearchState(
        n=n,
        iterations=1,
        certified=certified,
        weights=scaled,
        lpc_exact=lpc_exact,
        certificate=final_cert,
    )
