"""Exact-arithmetic toolkit for Multiway Cut integrality-gap instances on grid simplices."""

from .core import (
    Cut,
    WeightFunction,
    KWAY,
    NONOPPOSITE,
    cost,
    enumerate_edges,
    enumerate_points,
    lpc,
    random_kway_cut,
    random_nonopposite_cut,
    support,
    terminal,
)
from .dual import (
    Certificate,
    DualGraph,
    THREEWAY,
    brute_force_min_cut,
    build_dual,
    certify,
    check_potentials,
    classify_cut,
    normalize_cut,
)
from .projection import (
    check_cost_lemmas,
    check_projection_bounds,
    d_profile,
    restrict_injection,
    restrict_triple,
)
from .rounding import estimate_density
from .lpsearch import SearchState, search
from .weights import (
    BUILDERS,
    build_fk,
    build_w3,
    build_w_hat,
    build_w_prime,
    build_w_tilde,
    lpc_w3_closed,
    lpc_w_tilde_closed,
)

__all__ = [
    "Cut",
    "WeightFunction",
    "KWAY",
    "NONOPPOSITE",
    "THREEWAY",
    "cost",
    "enumerate_edges",
    "enumerate_points",
    "lpc",
    "random_kway_cut",
    "random_nonopposite_cut",
    "support",
    "terminal",
    "Certificate",
    "DualGraph",
    "brute_force_min_cut",
    "build_dual",
    "certify",
    "check_potentials",
    "classify_cut",
    "normalize_cut",
    "check_cost_lemmas",
    "check_projection_bounds",
    "d_profile",
    "restrict_injection",
    "restrict_triple",
    "estimate_density",
    "SearchState",
    "search",
    "BUILDERS",
    "build_fk",
    "build_w3",
    "build_w_hat",
    "build_w_prime",
    "build_w_tilde",
    "lpc_w3_closed",
    "lpc_w_tilde_closed",
]

__version__ = "0.1.0"
