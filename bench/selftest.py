#!/usr/bin/env python3
"""Self-test of the benchmark harness, at tiny job sizes (about a minute).

    python3 bench/selftest.py

Checks that:
  * every workload, untraced and traced, exits 0 with a passing result
    line whose metrics are exactly those BENCHMARK.json lists, with its units;
  * the tracer rebinds a layer function in every mwgap module that
    imported it, and restores the originals;
  * a deliberately wrong recorded digest fails jobs (fail_frac > 0) and
    makes the run exit nonzero;
  * in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits nonzero without printing a result.
Exits 1 and names the failed checks if any fails.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH, ROOT, load_mwgap

RUN = [sys.executable, str(BENCH / "run.py"), "--seed", "7", "--seconds", "1", "--tiny"]


def run(workload: str, trace: int, *extra: str, cmd=RUN) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [*cmd, "--workload", workload, "--trace", str(trace), *extra], capture_output=True, text=True, timeout=300
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != units[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {set(emitted) ^ set(units[trace])}")
            print(f"ok   {label}: {len(emitted)} metrics, {result['attempted']} jobs")

    load_mwgap()
    import tracing
    from mwgap import core, dual, lpsearch, projection

    originals = (core.cost, dual.dijkstra)
    tracer = tracing.Tracer()
    tracer.install()
    rebound = dual.cost is core.cost is projection.cost and lpsearch.dijkstra is dual.dijkstra
    wrapped = core.cost is not originals[0] and dual.dijkstra is not originals[1]
    tracer.uninstall()
    restored = (core.cost, dual.cost, projection.cost, lpsearch.dijkstra) == (originals[0],) * 3 + (originals[1],)
    if rebound and wrapped and restored:
        print("ok   tracer rebinds cost and dijkstra in every importing module and restores them")
    else:
        problems.append(f"tracer: rebound {rebound}, wrapped {wrapped}, restored {restored}")

    with tempfile.TemporaryDirectory() as tmp:
        expected = json.loads((BENCH / "expected.json").read_text())
        for name in expected:
            if name == "certify n=3" or name.startswith("cut k=8 "):
                expected[name] = "0" * 16
        wrong = Path(tmp) / "wrong.json"
        wrong.write_text(json.dumps(expected))
        for workload in ("triangle", "kway"):
            code, result = run(workload, 0, "--expected", str(wrong))
            if code == 0 or result is None or result["correct"] or not result["failed"]:
                problems.append(f"{workload} with wrong digests: exit {code}, result {result}")
            else:
                frac = result["failed"] / result["attempted"]
                print(f"ok   {workload} with wrong digests: fail_frac {frac:.3f}, exit {code}")

        bare = Path(tmp) / "bare"
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        cmd = [sys.executable, str(bare / "bench" / "run.py"), "--seed", "7", "--seconds", "1"]
        code, result = run("triangle", 0, cmd=cmd)
        if code == 0 or result is not None:
            problems.append(f"bare directory: exit {code}, result {result}")
        else:
            print(f"ok   bare directory: exit {code}, no result")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
