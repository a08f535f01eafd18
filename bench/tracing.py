"""Per-layer spans and counters recorded from outside the mwgap package.

`Tracer.install()` replaces each layer function named in `LAYERS` by a
timing wrapper, in every loaded `mwgap` module that holds a reference to
it (so `cost` is rebound in `core`, `dual` and `projection` alike), and
`uninstall()` puts the originals back.  Each wrapped function F gets
`F.calls`, `F.s` (inclusive) and `F.self_s` (inclusive minus the time of
nested wrapped calls).  Hot-loop work is counted from the sizes of inputs
and outputs at these boundaries, never by wrapping inner helpers such as
`neighbors` or `potential`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from functools import update_wrapper
from math import comb
from time import perf_counter

# Layer boundaries, by mwgap module.  Each is called at most ~10^4 times
# per benchmark pass.
LAYERS = {
    "core": ("cost", "Cut.validate", "enumerate_edges"),
    "weights": ("build_w3", "build_w_hat", "build_w_prime", "build_w_tilde"),
    "dual": (
        "build_dual",
        "dijkstra",
        "certify",
        "check_potentials",
        "normalize_cut",
        "classify_cut",
        "uncut_edges",
    ),
    "serialize": ("instance_digest",),
    "lpsearch": ("search", "solve_lp"),
    "projection": (
        "restrict_triple",
        "restrict_injection",
        "check_projection_bounds",
        "check_cost_lemmas",
        "d_profile",
    ),
    "rounding": ("estimate_density",),
}

SPANS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _argument(fn, name: str):
    """Reader for one named argument of fn, however the caller passed it."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


def _hooks() -> dict:
    """Counters taken from each layer's inputs and outputs, keyed by span."""
    from mwgap import core, lpsearch

    cost_w = _argument(core.cost, "w")
    lp_rows = _argument(lpsearch.solve_lp, "constraints")

    def cost(rec, args, kwargs, result):
        rec.add("core.cost.weighted_edges", len(cost_w(args, kwargs).weights))

    def enumerate_edges(rec, args, kwargs, result):
        rec.add("core.enumerate_edges.edges", len(result))

    def dijkstra(rec, args, kwargs, result):
        rec.add("dual.dijkstra.settled", len(result[0]))

    def solve_lp(rec, args, kwargs, result):
        rows = lp_rows(args, kwargs)
        rec.add("lpsearch.solve_lp.rows", len(rows))
        rec.add("lpsearch.solve_lp.nnz", sum(map(len, rows)))

    def search(rec, args, kwargs, result):
        rec.add("lpsearch.search.iterations", result.iterations)

    def build_w_tilde(rec, args, kwargs, result):
        k, n = result.k, result.n
        rec.add("weights.w_tilde.nnz", len(result.weights))
        # |E_{k,n}| = C(k,2) * |Delta_{k,n-1}|: an edge is a base point plus a pair.
        rec.add("weights.w_tilde.edges", comb(k, 2) * comb(n + k - 2, k - 1))

    def estimate_density(rec, args, kwargs, result):
        drawn = result.samples + result.resampled
        points = (result.n + 1) * (result.n + 2) // 2
        rec.add("rounding.samples", result.samples)
        rec.add("rounding.resampled", result.resampled)
        rec.add("rounding.labels_bytes", drawn * points)  # one int8 label per point per draw
        tau_z = (result.tau_hat - 1.2) / result.max_sigma_tau
        corner_sigma = (0.2 * 0.8 / result.samples) ** 0.5
        rec.peak("rounding.tau_z", tau_z)
        rec.peak("rounding.corner_z", abs(result.corner_fraction - 0.2) / corner_sigma)

    return {
        "core.cost": cost,
        "core.enumerate_edges": enumerate_edges,
        "dual.dijkstra": dijkstra,
        "lpsearch.solve_lp": solve_lp,
        "lpsearch.search": search,
        "weights.build_w_tilde": build_w_tilde,
        "rounding.estimate_density": estimate_density,
    }


# Per-layer metrics: (name, unit, better).  Emitted by every traced run.
PER_LAYER = tuple(
    (f"{span}.{field}", unit, "lower")
    for span in SPANS
    for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
) + (
    ("lpsearch.solve_lp.rows", "count", "lower"),
    ("lpsearch.solve_lp.nnz", "count", "lower"),
    ("lpsearch.search.iterations", "count", "lower"),
    ("dual.dijkstra.settled", "count", "lower"),
    ("core.cost.weighted_edges", "count", "lower"),
    ("core.enumerate_edges.edges", "count", "lower"),
    ("weights.w_tilde.useful_ratio", "ratio", "higher"),
    ("rounding.resample_ratio", "ratio", "lower"),
    ("rounding.labels_bytes", "B", "lower"),
    ("rounding.tau_z", "sigma", "lower"),
    ("rounding.corner_z", "sigma", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(setup_sums: Counter, pass_sums: Counter, passes: int, peaks: dict) -> dict[str, float]:
    """Per-layer values for one set-up plus one pass.

    Covers every PER_LAYER name except the setup.* and trace.* timings,
    which the caller measures; layers a workload never calls read 0.
    """
    sums = Counter(setup_sums)
    for name, value in pass_sums.items():
        sums[name] += value / passes
    values = {name: float(sums[name]) for name, _, _ in PER_LAYER}
    values["weights.w_tilde.useful_ratio"] = _ratio(sums["weights.w_tilde.nnz"], sums["weights.w_tilde.edges"])
    values["rounding.resample_ratio"] = _ratio(sums["rounding.resampled"], sums["rounding.samples"])
    values["rounding.tau_z"] = peaks.get("rounding.tau_z", 0.0)
    values["rounding.corner_z"] = peaks.get("rounding.corner_z", 0.0)
    return values


class Tracer:
    """Span and counter recorder for the layer functions in `LAYERS`."""

    def __init__(self) -> None:
        self.sums: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        self.sums[name] += value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def take(self) -> Counter:
        """Return the sums recorded so far and start new ones."""
        sums, self.sums = self.sums, Counter()
        return sums

    def _wrap(self, name: str, fn, hook):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += dt
                sums = self.sums  # take() swaps the Counter between phases
                sums[name + ".calls"] += 1
                sums[name + ".s"] += dt
                sums[name + ".self_s"] += dt - nested
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return update_wrapper(wrapper, fn)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = _hooks()
        modules = [m for name, m in sys.modules.items() if name == "mwgap" or name.startswith("mwgap.")]
        for mod_name, names in LAYERS.items():
            module = importlib.import_module(f"mwgap.{mod_name}")
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                span = f"{mod_name}.{qual}"
                wrapper = self._wrap(span, original, hooks.get(span))
                targets = [(owner, attr)]
                if not owner_name:  # a module-level function: rebind every import of it
                    targets += [
                        (m, a) for m in modules for a, v in vars(m).items() if v is original and m is not owner
                    ]
                for obj, a in targets:
                    self._patches.append((obj, a, getattr(obj, a)))
                    setattr(obj, a, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)
