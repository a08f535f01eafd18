"""Minimum-lpc weights certified against non-opposite cuts, by one compact LP.

A weight function on E_{3,n} makes every ball and 3-corner dual path
system cost at least one exactly when it admits potentials satisfying
`dual.potential_rows`, so minimizing sum(w)/n over those rows gives the
least lpc among certified weights.  The LP runs once, in floating point;
every final claim is re-established by an exact rational recheck after
rescaling, so numeric drift cannot corrupt a certificate.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Edge, WeightFunction, enumerate_edges
from .dual import NONOPPOSITE, Certificate, certify, potential_rows

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


def solve_lp(
    constraints: Sequence[dict[Hashable, float]], rhs: Sequence[float], n: int, edges: list[Edge]
) -> np.ndarray:
    """Minimize sum(w)/n subject to w >= 0 and each sparse row's weighted
    sum being at least its right-hand side.

    A row maps variables to coefficients: an edge of `edges` stands for
    its weight w(e), any other key for a free variable.  Returns the
    optimal weights in edge order.  Deterministic for fixed inputs.
    SciPy is imported here, on the first solve, so that `import mwgap`
    does not load it.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    m = len(edges)
    if not constraints:
        return np.zeros(m)
    col = {e: i for i, e in enumerate(edges)}
    indptr, indices, data = [0], [], []
    for row in constraints:
        for var, coef in row.items():
            indices.append(col.setdefault(var, len(col)))
            data.append(-coef)
        indptr.append(len(indices))
    A = csr_array((data, indices, indptr), shape=(len(constraints), len(col)))
    res = linprog(
        c=np.concatenate([np.full(m, 1.0 / n), np.zeros(len(col) - m)]),
        A_ub=A,
        b_ub=-np.asarray(rhs, dtype=float),
        bounds=[(0, None)] * m + [(None, None)] * (len(col) - m),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"potential LP failed: {res.message}")
    return np.maximum(res.x[:m], 0.0)


def _to_weight_function(n: int, edges: list[Edge], x: np.ndarray) -> WeightFunction:
    weights = {e: Fraction(float(v)) for e, v in zip(edges, x) if v > 0}
    return WeightFunction(3, n, weights)


def search(n: int) -> SearchState:
    """Least-lpc weights whose non-opposite cuts provably cost at least one.

    Solves the compact potential LP once, converts its weights to exact
    rationals, and rescales them by their exact `certify` bound; the
    result is certified only if the rescaled weights pass `certify` at 1.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    edges = enumerate_edges(3, n)
    rows, rhs = zip(*potential_rows(n))
    x = solve_lp(rows, rhs, n, edges)

    w = _to_weight_function(n, edges, x)
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
