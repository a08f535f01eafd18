"""Minimum-lpc weights certified against non-opposite cuts, by one compact LP.

A weight function w on E_{3,n} makes every ball and 3-corner dual path
system cost at least one exactly when there are potentials pi_i (one per
outer node O_i, on every dual node) with

  * pi_i(O_i) = 0 and pi_i(v) - pi_i(u) <= w(e) on every dual arc u -> v
    that does not leave an outer node O_j, j != i (Lipschitz rows; arcs
    into O_i only bound pi_i from below and are left out),
  * sum_i pi_i(F) >= 1 for every face F (ball rows),
  * pi_0(O_1) + pi_0(O_2) + pi_1(O_2) >= 1 (corner row).

Any such pi_i is a lower bound on the shortest-path distances from O_i
that `certify` computes, and those distances are feasible potentials, so
minimizing sum(w)/n over (w, pi) gives the least lpc among certified
weights.  The LP runs once, in floating point; every final claim is
re-established by an exact rational recheck after rescaling, so numeric
drift cannot corrupt a certificate.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array

from .core import Edge, WeightFunction, enumerate_edges
from .dual import NONOPPOSITE, OUTER, Certificate, build_dual, certify

# `lpsearch.dijkstra` is the exact kernel behind the recheck; it stays
# importable from this module, where bench/selftest.py checks that the
# tracer rebinds it.
from .dual import dijkstra  # noqa: F401


@dataclass
class SearchState:
    n: int
    iterations: int  # LP solves
    certified: bool
    weights: WeightFunction  # final weights, exactly rescaled to lower bound 1
    lpc_exact: Fraction  # exact lpc of the rescaled weights
    objective: float  # LP objective (unscaled)
    certificate: Optional[Certificate] = None


def solve_lp(
    constraints: list[dict[Hashable, float]], rhs: list[float], n: int, edges: list[Edge]
) -> np.ndarray:
    """Minimize sum(w)/n subject to w >= 0 and each sparse row's weighted
    sum being at least its right-hand side.

    A row maps variables to coefficients: an edge of `edges` stands for
    its weight w(e), any other key for a free variable.  Returns the
    optimal weights in edge order.  Deterministic for fixed inputs.
    """
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


def potential_lp(n: int) -> tuple[list[dict[Hashable, float]], list[float]]:
    """Rows and right-hand sides of the compact potential LP on E_{3,n}.

    Potential pi_i(v) is the variable (i, v); pi_i(O_i) = 0 is left out.
    """
    g = build_dual(n, WeightFunction(3, n, {}))
    rows: list[dict[Hashable, float]] = []
    rhs: list[float] = []
    for i in range(3):
        source = OUTER[i]
        for u, arcs in g.adj.items():
            if u[0] == "O" and u != source:
                continue  # paths meet the other outer nodes only at their ends
            for v, _, e in arcs:
                if v == source:
                    continue  # a path from O_i never re-enters it
                row = {e: 1.0, (i, v): -1.0}
                if u != source:
                    row[(i, u)] = 1.0
                rows.append(row)
                rhs.append(0.0)
    for f in g.faces:
        rows.append({(i, f): 1.0 for i in range(3)})
        rhs.append(1.0)
    rows.append({(0, OUTER[1]): 1.0, (0, OUTER[2]): 1.0, (1, OUTER[2]): 1.0})
    rhs.append(1.0)
    return rows, rhs


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
    rows, rhs = potential_lp(n)
    x = solve_lp(rows, rhs, n, edges)
    objective = float(x.sum() / n)

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
        objective=objective,
        certificate=final_cert,
    )
