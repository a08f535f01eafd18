#!/usr/bin/env python3
"""mwgap benchmark: time to a checked certificate, end to end and per layer.

    python3 bench/run.py --workload triangle --seed 1 --seconds 20 --trace 0

Workloads (bench/workloads.py): triangle, lpsearch, kway, rounding.  One
process on one thread runs the workload's jobs in a closed loop: one job
at a time, each pass over the whole job list, passes repeated until the
next one would end after --seconds (at least one pass).  Every job's
result is checked exactly; a failed check, an exception, or a digest that
differs from the recorded one (bench/expected.json) or from the job's
earlier passes is a failed job, and the run exits 1.

--trace 0 reports the end-to-end metrics:
  wall_s       sum over jobs of the job's median time: one pass, every check passed
  setup_s      median over 5 set-ups of `import mwgap` (timed in a fresh
               interpreter) plus generating the workload's inputs
  peak_rss_mb  peak resident memory of this process

Times are in reference seconds (bench/reference.py): each job, each
child-interpreter import and each input generation is divided by the time
of a fixed computation of the same kind run just before and just after
it, and multiplied by that computation's nominal time, so that the host's
drift in speed cancels.  The process pins itself, and so its children, to
one CPU, so that a reference and the work it scales share a core.  Every
run also prints wall_s and setup_s in plain seconds.

--trace 1 runs every job untraced and traced, back to back, and reports
the per-layer metrics of bench/tracing.py for one set-up plus one pass,
with trace.overhead_s = traced wall_s - untraced wall_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines above it record the
environment and print every metric by name and unit, and fail_frac.
mwgap is imported from the `src/` directory next to `bench/`.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in child interpreters
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

from reference import Clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 5
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import mwgap; print(time.perf_counter() - t)"
)


def load_mwgap() -> None:
    """Import mwgap from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import mwgap
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import mwgap from {SRC}: {exc}")
    if Path(mwgap.__file__).resolve().parent != SRC / "mwgap":
        raise SystemExit(f"bench: mwgap was imported from {mwgap.__file__}, not from {SRC}")


def git_revision() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def time_import() -> float:
    """Seconds for `import mwgap` in a fresh interpreter, start-up excluded."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout)


def measure_setup(setup, seed: int, tiny: bool, clock: Clock) -> tuple[list, list[tuple[float, float]], list[float]]:
    """Set the workload up SETUP_REPS times.  Return the last job list, the
    (import_s, inputs_s) of each repetition in reference seconds (the
    import against the `import` reference, the inputs against `clock`),
    and the plain seconds of each repetition."""
    imports = Clock("import")
    imports.mark()
    samples, plain = [], []
    for _ in range(SETUP_REPS):
        import_s = time_import()
        clock.mark()
        t0 = perf_counter()
        jobs = setup(seed, tiny)
        inputs_s = perf_counter() - t0
        samples.append((imports.scale(import_s), clock.scale(inputs_s)))
        plain.append(import_s + inputs_s)
    return jobs, samples, plain


class Ledger:
    """Outcome of every job run: failed, or its digest is checked."""

    def __init__(self, expected: dict[str, str]) -> None:
        self.expected = expected
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, result, error) -> None:
        self.attempted += 1
        if error is None and name in self.expected and result != self.expected[name]:
            error = f"digest {result} differs from the recorded {self.expected[name]}"
        elif error is None and self.first.setdefault(name, result) != result:
            error = f"digest {result} differs from this run's first {self.first[name]}"
        if error is not None:
            self.failures.append(f"{name}: {error}")


class Phase:
    """Job timings in one mode, untraced or traced."""

    def __init__(self, clock: Clock, tracer=None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.times: dict[str, list[float]] = defaultdict(list)
        self.plain: dict[str, list[float]] = defaultdict(list)
        self.passes = 0

    def run(self, name: str, job, ledger: Ledger) -> None:
        if self.tracer is not None:
            self.tracer.install()
        try:
            t0 = perf_counter()
            try:
                result, error = job(), None
            except Exception as exc:  # a failed check or a crash fails the job, not the run
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.plain[name].append(elapsed)
        self.times[name].append(self.clock.scale(elapsed))
        ledger.record(name, result, error)

    def wall(self) -> float:
        return sum(median(t) for t in self.times.values())

    def plain_wall(self) -> float:
        return sum(median(t) for t in self.plain.values())


def run_passes(jobs: list, phases: list[Phase], seconds: float, ledger: Ledger) -> None:
    """Run passes over the jobs until the next pass would end after
    `seconds` (at least one).  With two phases each job runs in both, back
    to back, so that machine-speed drift cancels in their difference; which
    runs first alternates from job to job and pass to pass, since the second
    run of a job finds the allocator warm."""
    start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        for i, (name, job) in enumerate(jobs):
            for phase in phases[:: 1 if i % 2 else -1]:
                phase.run(name, job, ledger)
        for phase in phases:
            phase.passes += 1
        phases = phases[::-1]
        longest = max(longest, perf_counter() - t0)
        if perf_counter() - start + longest > seconds:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("triangle", "lpsearch", "kway", "rounding"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny job sizes, for the harness self-test")
    parser.add_argument("--expected", type=Path, default=BENCH / "expected.json", help="recorded digests")
    args = parser.parse_args(argv)

    load_mwgap()
    import tracing
    import workloads

    expected = json.loads(args.expected.read_text())
    cpu = min(os.sched_getaffinity(0))
    print("env", json.dumps({**environment(), "pinned_cpu": cpu}, sort_keys=True))
    os.sched_setaffinity(0, {cpu})  # so a reference shares a core with the work it scales; children inherit it
    setup = workloads.WORKLOADS[args.workload]
    clock = Clock(workloads.REFERENCE[args.workload])
    jobs, setup_samples, setup_plain = measure_setup(setup, args.seed, args.tiny, clock)
    ledger = Ledger(expected)
    untraced = Phase(clock)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            setup(args.seed, args.tiny)
        finally:
            tracer.uninstall()
        setup_sums = tracer.take()
        traced = Phase(clock, tracer)
        clock.mark()
        run_passes(jobs, [untraced, traced], args.seconds, ledger)
        values = tracing.layer_values(setup_sums, tracer.sums, traced.passes, tracer.peaks)
        values["setup.import_s"] = median(i for i, _ in setup_samples)
        values["setup.inputs_s"] = median(j for _, j in setup_samples)
        values["trace.overhead_s"] = traced.wall() - untraced.wall()
        units = [(name, unit) for name, unit, _ in tracing.PER_LAYER]
        print(f"untraced wall_s {untraced.wall():.6f} s, traced wall_s {traced.wall():.6f} s")
    else:
        clock.mark()
        run_passes(jobs, [untraced], args.seconds, ledger)
        values = {
            "wall_s": untraced.wall(),
            "setup_s": median(i + j for i, j in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END

    failed = len(ledger.failures)
    for line in ledger.failures[:20]:
        print("FAILED", line, file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} jobs/pass={len(jobs)} passes={untraced.passes} "
        f"attempted={ledger.attempted} failed={failed}"
    )
    print(f"  fail_frac {failed / ledger.attempted} ratio")
    print(
        f"  in plain seconds: wall_s {untraced.plain_wall():.6f} s ({clock.name} reference), "
        f"setup_s {median(setup_plain):.6f} s"
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    for name, m in metrics.items():
        print(f"  {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
