"""Potential-LP search for minimum-total-weight certified instances."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mwgap
from mwgap import cli, lpsearch
from mwgap.core import NONOPPOSITE, canonical_edge, enumerate_edges
from mwgap.dual import PERMUTATIONS, brute_force_min_cut, certify, potential_system
from mwgap.lpsearch import _orbit_rows, _to_weight_function, search, solve_lp
from mwgap.weights import lpc_w3_closed

# Optimum of the earlier cutting-plane search (row generation to 1e-9),
# which the compact potential LP must reproduce.
CUTTING_PLANE_LPC = {
    3: Fraction(7, 8),
    4: Fraction(7, 8),
    5: Fraction(43, 50),
    6: Fraction(6, 7),
    7: Fraction(6, 7),
    8: Fraction(109, 128),
}


def test_solve_lp_unconstrained_is_zero():
    x = solve_lp([], [], 3, 18)
    assert x.shape == (18,) and np.allclose(x, 0)


def test_solve_lp_single_constraint():
    x = solve_lp([{0: 2, 1: 1}], [1], 3, 18)
    # cheapest way to push the row to 1 uses the doubled column
    assert x.shape == (18,) and abs(sum(x) - 0.5) < 1e-7


def test_solve_lp_columns_past_m_are_free():
    # x_0 - p >= 1 and p >= -2, p free and costless: x_0 = 0 is the optimum
    x = solve_lp([{0: 1, 2: -1}, {2: 1}], [1, -2], 1, 2)
    assert x.shape == (2,) and np.allclose(x, 0)


def test_to_weight_function_is_exact_on_floats():
    edges = enumerate_edges(3, 3)
    x = np.zeros(len(edges))
    x[0] = 0.375  # an exact binary float
    w = _to_weight_function(3, x)
    assert w.get(*edges[0]) == Fraction(3, 8)


def test_search_tiny_converges_and_certifies():
    st = search(3)
    assert st.certified
    assert st.iterations >= 1
    # the rescaled instance really is certified at target 1
    cert = certify(3, st.weights, NONOPPOSITE, Fraction(1))
    assert cert.passed
    assert st.lpc_exact == st.weights.total() / 3
    # never better than the rounding-scheme floor, never worse than w3
    assert Fraction(5, 6) <= st.lpc_exact <= lpc_w3_closed(3)


def test_search_n6_beats_w3():
    st = search(6)
    assert st.certified
    assert Fraction(5, 6) <= st.lpc_exact < lpc_w3_closed(6)


@pytest.mark.parametrize("n", sorted(CUTTING_PLANE_LPC))
def test_search_matches_cutting_plane_optimum(n):
    st = search(n)
    assert st.certified
    assert st.iterations == 1
    assert abs(st.lpc_exact - CUTTING_PLANE_LPC[n]) < 1e-9
    assert certify(n, st.weights, NONOPPOSITE, Fraction(1)).passed
    if n <= 4:
        assert brute_force_min_cut(n, st.weights, NONOPPOSITE)[0] >= 1


def full_lp_optimum(n):
    """The unreduced potential LP: min sum(w)/n over `potential_system(n)`,
    one variable per column and the corner row as stated."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    col, coef, rhs = potential_system(n)
    m, columns = len(enumerate_edges(3, n)), int(col.max()) + 1
    rows = np.repeat(np.arange(len(col)), 3)
    A = csr_array((-coef.ravel().astype(float), (rows, col.ravel())), shape=(len(col), columns))
    res = linprog(
        c=np.concatenate([np.full(m, 1.0 / n), np.zeros(columns - m)]),
        A_ub=A,
        b_ub=-rhs.astype(float),
        bounds=[(0, None)] * m + [(None, None)] * (columns - m),
        method="highs",
    )
    assert res.success, res.message
    return res.fun


def _permuted(sigma, x):
    """The point y with y[sigma[i]] = x[i]."""
    y = [0, 0, 0]
    for i, v in zip(sigma, x):
        y[i] = v
    return tuple(y)


@pytest.mark.parametrize("n", range(3, 16))
def test_orbit_lp_matches_the_full_lp(n):
    st = search(n)
    assert st.certified
    assert abs(st.lpc_exact - Fraction(full_lp_optimum(n))) < 1e-9
    # the weights are S3-invariant, exactly
    w = st.weights.weights
    for sigma in PERMUTATIONS:
        assert {canonical_edge(_permuted(sigma, x), _permuted(sigma, y)): q for (x, y), q in w.items()} == w
    # so they meet the margin rows: every outer pair is at least 1/3 apart
    distances = set(st.certificate.pairwise.values())
    assert len(distances) == 1 and min(distances) >= Fraction(1, 3)


def linprog_solve(rows, rhs, n, m):
    """`solve_lp`'s LP through `linprog(method="highs")`, the entry it
    replaced: the same negated CSR, cost and bounds."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    indptr = np.cumsum([0, *map(len, rows)])
    indices = [j for row in rows for j in row]
    data = [-q for row in rows for q in row.values()]
    columns = max(m, max(indices) + 1)
    res = linprog(
        c=np.concatenate([np.full(m, 1.0 / n), np.zeros(columns - m)]),
        A_ub=csr_array((data, indices, indptr), shape=(len(rows), columns)),
        b_ub=-np.asarray(rhs, dtype=float),
        bounds=[(0, None)] * m + [(None, None)] * (columns - m),
        method="highs",
    )
    assert res.success, res.message
    return np.maximum(res.x[:m], 0.0)


@pytest.mark.parametrize("n", range(3, 16))
def test_solve_lp_matches_linprog_bit_for_bit(n):
    rows, rhs, m = _orbit_rows(n)
    assert np.array_equal(solve_lp(rows, rhs, n, m), linprog_solve(rows, rhs, n, m))


def test_orbit_rows_are_cached_read_only():
    rows, rhs, m = _orbit_rows(5)
    assert _orbit_rows(5) is _orbit_rows(5)
    assert isinstance(rows, tuple) and isinstance(rhs, tuple) and len(rows) == len(rhs)
    j = next(iter(rows[0]))
    with pytest.raises(TypeError):
        rows[0][j] = 0.0
    with pytest.raises(TypeError):
        rhs[0] = 0


def test_search_n30_matches_the_lpc_table():
    st = search(30)
    assert st.certified
    assert abs(st.lpc_exact - Fraction(26, 31)) < 1e-9


def test_search_uncertified_when_lp_weights_fail(monkeypatch):
    monkeypatch.setattr(lpsearch, "solve_lp", lambda constraints, rhs, n, m: np.zeros(m))
    st = search(4)
    assert not st.certified
    assert st.lpc_exact == 0
    assert cli.main(["lpsearch", "--n", "4"]) == 1


def test_search_rejects_bad_n():
    with pytest.raises(ValueError):
        search(0)


def test_import_mwgap_leaves_scipy_unloaded():
    # a fresh interpreter: SciPy loads on the first solve_lp, not on import
    code = (
        "import sys, mwgap\n"
        "from mwgap.lpsearch import dijkstra\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mwgap.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
