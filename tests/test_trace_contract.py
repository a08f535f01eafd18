"""The benchmark tracer (bench/tracing.py) still finds the layers it wraps.

The tracer rebinds mwgap functions by name and reads their arguments, so
a rename in `src/` would otherwise show only in the slow harness
self-test.  This runs tiny jobs of the kway, triangle and lpsearch
workloads under the tracer; it reads bench/ and changes nothing there.
"""

import random
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    return tracing, workloads


def test_tracer_records_every_wrapped_layer(bench_modules):
    tracing, workloads = bench_modules
    from mwgap import core, dual, projection, weights

    originals = (core.cost, projection.cost, dual.cost, core.Cut.validate, dual.dijkstra)
    (_, kway_job), = workloads.kway_grid_jobs(5, 3, [0])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert core.cost is not originals[0] and projection.cost is core.cost
        kway_job()
        workloads.certify_job(3)
        workloads.search_job(3)
        # certify runs the id-level kernel, not the traced dijkstra
        dual.dijkstra(dual.build_dual(3, weights.build_w3(3)), dual.OUTER[0])
    finally:
        tracer.uninstall()
    sums = tracer.take()
    for name in (
        "core.cost.calls",
        "core.cost.weighted_edges",
        "core.Cut.validate.calls",
        "dual.certify.calls",
        "dual.check_potentials.calls",
        "dual.dijkstra.calls",
        "lpsearch.solve_lp.rows",
        "lpsearch.solve_lp.nnz",
    ):
        assert sums[name] > 0, name
    assert (core.cost, projection.cost, dual.cost, core.Cut.validate, dual.dijkstra) == originals


def test_tracer_records_the_kway_builders(bench_modules):
    tracing, workloads = bench_modules
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.kway_grid_jobs(5, 3, [0])
    finally:
        tracer.uninstall()
    sums = tracer.take()
    for name in (
        "weights.build_w_hat.calls",
        "weights.build_w_prime.calls",
        "weights.build_w_tilde.calls",
        "weights.w_tilde.nnz",
    ):
        assert sums[name] > 0, name


def test_tracer_records_normalization_spans(bench_modules):
    tracing, workloads = bench_modules
    from mwgap import core, weights

    P = core.random_nonopposite_cut(6, random.Random(0))
    w = weights.build_w3(6)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.normalize_job(P, w)
    finally:
        tracer.uninstall()
    sums = tracer.take()
    for name in ("dual.normalize_cut.calls", "dual.classify_cut.calls", "core.Cut.validate.calls"):
        assert sums[name] > 0, name
