#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/stats.py --runs 10 --trace-runs 1 --out bench/baseline.json

For each workload: --runs untraced runs with seeds --first-seed, +1, ...,
one after another.  Each end-to-end metric gets its median, quartiles
(statistics.quantiles, n=4) and spread = (q3 - q1) / median, compared
with a third of the metric's bound in BENCHMARK.json (setup_s is
reported, not compared).  Then --trace-runs traced runs give the median
of each per-layer metric, each layer's share of the traced self time,
and the two shares the roadmap's timings claim.  Prints one table line
per workload and metric; --out also writes everything as JSON.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (environment record, result line)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(cmd)} printed no result (exit {proc.returncode}):\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def traced_summary(results: list[dict]) -> dict:
    metrics = results[0]["metrics"]
    layers = {name: median(r["metrics"][name]["value"] for r in results) for name in metrics}
    self_total = sum(v for name, v in layers.items() if name.endswith(".self_s"))
    shares = {
        name[: -len(".self_s")]: v / self_total
        for name, v in layers.items()
        if name.endswith(".self_s") and v > 0
    }
    return {
        "per_layer": {name: {"value": v, "unit": metrics[name]["unit"]} for name, v in layers.items() if v},
        "self_time_shares": sorted(shares.items(), key=lambda kv: -kv[1]),
        "claims": {
            # HiGHS master LP (solve_lp, which also fills the dense matrix) within search()
            "lpsearch.solve_lp.s / lpsearch.search.s": layers["lpsearch.solve_lp.s"] / layers["lpsearch.search.s"]
            if layers["lpsearch.search.s"]
            else None,
            # core.cost within the three calls that make up a k-way job
            "core.cost.s / kway job time": layers["core.cost.s"]
            / (
                layers["projection.check_cost_lemmas.s"]
                + layers["projection.check_projection_bounds.s"]
                + layers["projection.restrict_injection.s"]
            )
            if layers["projection.check_cost_lemmas.s"]
            else None,
        },
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        results = []
        for seed in seeds:
            env, result = run(workload, seed, args.seconds, 0)
            results.append(result)
            print(f"  {workload} seed={seed} {json.dumps(result['metrics'])}", file=sys.stderr)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"seeds": seeds, "attempted": attempted, "failed": failed, "fail_frac": failed / attempted}
        entry["end_to_end"] = {}
        print(f"{workload}: fail_frac {failed / attempted} ratio ({failed} of {attempted} jobs)")
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in results])
            s.update(unit=results[0]["metrics"][name]["unit"], bound=bound)
            ok = name == "setup_s" or s["spread"] < bound / 3
            steady &= ok
            entry["end_to_end"][name] = s
            print(
                f"{workload}: {name} median {s['median']:.6g} {s['unit']} "
                f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] spread {s['spread']:.4f} "
                f"(bound {bound}){'' if ok else '  UNSTEADY'}"
            )
        if args.trace_runs:
            traced = [run(workload, seed, args.seconds, 1)[1] for seed in seeds[: args.trace_runs]]
            entry["traced"] = traced_summary(traced)
            top = entry["traced"]["self_time_shares"][:5]
            print(f"{workload}: top self-time shares " + ", ".join(f"{k} {v:.3f}" for k, v in top))
            for claim, value in entry["traced"]["claims"].items():
                if value is not None:
                    print(f"{workload}: {claim} = {value:.3f}")
        report["env"] = env
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
