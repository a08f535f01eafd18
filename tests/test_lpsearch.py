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
from mwgap.core import NONOPPOSITE, enumerate_edges
from mwgap.dual import brute_force_min_cut, certify
from mwgap.lpsearch import _to_weight_function, search, solve_lp
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
    edges = enumerate_edges(3, 3)
    x = solve_lp([], [], 3, edges)
    assert np.allclose(x, 0)


def test_solve_lp_single_constraint():
    edges = enumerate_edges(3, 3)
    con = {edges[0]: 2, edges[1]: 1}
    x = solve_lp([con], [1], 3, edges)
    # cheapest way to push the row to 1 uses the doubled edge
    assert abs(sum(x) - 0.5) < 1e-7


def test_to_weight_function_is_exact_on_floats():
    edges = enumerate_edges(3, 3)
    x = np.zeros(len(edges))
    x[0] = 0.375  # an exact binary float
    w = _to_weight_function(3, edges, x)
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


def test_search_uncertified_when_lp_weights_fail(monkeypatch):
    monkeypatch.setattr(lpsearch, "solve_lp", lambda constraints, rhs, n, edges: np.zeros(len(edges)))
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
