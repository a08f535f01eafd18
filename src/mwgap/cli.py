"""Command-line driver.

Subcommands: build, lpc, certify, brute, project, round, lpsearch, svg,
ledger.  All output is JSON on stdout (SVG for the svg subcommand).  Exit
codes: 0 success, 1 failed assertion or certificate, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .acceptance import CRITERIA, run_ledger
from .core import lpc
from .dual import FAMILIES, brute_force_min_cut, certify
from .lpsearch import search
from .projection import check_cost_lemmas, check_projection_bounds, d_profile
from .rounding import estimate_density
from .serialize import (
    canonical_json,
    cut_to_obj,
    instance_digest,
    instance_to_obj,
    load_cut,
    load_instance,
    rat_to_str,
    str_to_rat,
)
from .svg import emit_svg
from .weights import BUILDERS


def _write(text: str, out=None) -> None:
    """text and a newline to the file at out, or to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(obj, out=None) -> None:
    """Canonical JSON to the file at out, or to stdout."""
    _write(canonical_json(obj), out)


def cmd_build(args) -> int:
    _emit(instance_to_obj(BUILDERS[args.weights](args.k, args.n)), args.out)
    return 0


def cmd_lpc(args) -> int:
    w = load_instance(args.instance)
    _emit({"digest": instance_digest(w), "lpc": rat_to_str(lpc(w))})
    return 0


def cmd_certify(args) -> int:
    w = load_instance(args.instance)
    cert = certify(w.n, w, args.family, str_to_rat(args.target))
    _emit({**cert.to_obj(), "digest": instance_digest(w)})
    return 0 if cert.passed else 1


def cmd_brute(args) -> int:
    w = load_instance(args.instance)
    value, cut = brute_force_min_cut(w.n, w, args.family)
    _emit({"min": rat_to_str(value), "cut": cut_to_obj(cut)})
    return 0


def cmd_project(args) -> int:
    P = load_cut(args.cut)
    prof = d_profile(P)
    proj = check_projection_bounds(P)
    obj = {
        "D": rat_to_str(prof.mean),
        "per_pair": {f"{i},{j}": sorted(v) for (i, j), v in sorted(prof.per_pair.items())},
        "fraction_nonopposite": rat_to_str(proj.fraction_nonopposite),
        "refined_bound": rat_to_str(proj.refined_bound),
        "coarse_bound": rat_to_str(proj.coarse_bound),
        "bounds_hold": proj.ok,
    }
    ok = proj.ok
    if args.instance:
        w = load_instance(args.instance)
        if (w.k, w.n) != (P.k, P.n):
            raise ValueError(f"instance is on (k={w.k}, n={w.n}) but the cut on (k={P.k}, n={P.n})")
        rep = check_cost_lemmas(P, P.n)
        obj["cost_lemmas"] = {
            "cost_what": rat_to_str(rep.cost_hat),
            "cost_wprime": rat_to_str(rep.cost_prime),
            "cost_wtilde": rat_to_str(rep.cost_tilde),
            "hold": rep.ok,
        }
        ok = ok and rep.ok
    _emit(obj)
    return 0 if ok else 1


def cmd_round(args) -> int:
    est = estimate_density(args.n, args.samples, args.seed)
    _emit(
        {
            "n": est.n,
            "samples": est.samples,
            "seed": est.seed,
            "tau_hat": est.tau_hat,
            "worst_pair": {"u": list(est.worst_pair[0]), "v": list(est.worst_pair[1])},
            "ci3sigma": est.ci3sigma,
            "corner_fraction": est.corner_fraction,
            "resampled": est.resampled,
        }
    )
    return 0


def cmd_lpsearch(args) -> int:
    st = search(args.n)
    obj = instance_to_obj(st.weights)
    obj["lpc_exact"] = rat_to_str(st.lpc_exact)
    obj["iterations"] = st.iterations
    obj["certified"] = st.certified
    _emit(obj, args.out)
    return 0 if st.certified else 1


def cmd_svg(args) -> int:
    w = load_instance(args.instance)
    cut = load_cut(args.cut) if args.cut else None
    _write(emit_svg(w, cut=cut, potential_index=args.potential), args.out)
    return 0


def cmd_ledger(args) -> int:
    ids = None
    if args.only is not None:
        try:
            ids = [int(t) for t in args.only.split(",")]
        except ValueError:
            valid = f"{min(CRITERIA)}-{max(CRITERIA)}"
            raise ValueError(f"--only takes comma-separated criterion ids {valid}, got {args.only!r}") from None
    results = run_ledger(ids)
    report = {
        "version": __version__,
        "criteria": [
            {"id": r.cid, "name": r.name, "pass": bool(r.passed), "seconds": round(r.seconds, 2), "details": r.details}
            for r in results
        ],
        "pass": bool(all(r.passed for r in results)),
    }
    if args.out:
        _emit(report, args.out)
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mwgap", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="emit an instance JSON for a named weight family")
    b.add_argument("--weights", required=True, choices=sorted(BUILDERS))
    b.add_argument("--k", type=int, default=3)
    b.add_argument("--n", type=int, help="grid size (default 3; fk is fixed at n = 2)")
    b.add_argument("--out")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("lpc", help="canonical LP value of an instance")
    c.add_argument("instance")
    c.set_defaults(func=cmd_lpc)

    c = sub.add_parser("certify", help="dual shortest-path lower-bound certificate")
    c.add_argument("instance")
    c.add_argument("--family", required=True, choices=sorted(FAMILIES))
    c.add_argument("--target", required=True, help="rational p/q the bound must reach")
    c.set_defaults(func=cmd_certify)

    c = sub.add_parser("brute", help="exhaustive minimum cut at tiny scale")
    c.add_argument("instance")
    c.add_argument("--family", required=True, choices=sorted(FAMILIES))
    c.set_defaults(func=cmd_brute)

    c = sub.add_parser(
        "project",
        help="D(P) profile and restriction bounds for a cut; with an instance, also the cost lemmas",
    )
    c.add_argument(
        "instance",
        nargs="?",
        help="an instance on the cut's grid (k, n); the cost lemmas are checked against "
        "the built w_hat, w_prime and w_tilde of that grid, not against the instance's weights",
    )
    c.add_argument("--cut", required=True)
    c.set_defaults(func=cmd_project)

    c = sub.add_parser("round", help="Monte-Carlo density estimate of the rounding scheme")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--samples", type=int, required=True)
    c.add_argument("--seed", type=int, required=True)
    c.set_defaults(func=cmd_round)

    c = sub.add_parser("lpsearch", help="potential-LP search for extremal weights")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--out")
    c.set_defaults(func=cmd_lpsearch)

    c = sub.add_parser("svg", help="deterministic SVG rendering of a triangle instance")
    c.add_argument("instance")
    c.add_argument("--cut")
    c.add_argument("--potential", type=int, choices=(0, 1, 2))
    c.add_argument("--out")
    c.set_defaults(func=cmd_svg)

    c = sub.add_parser("ledger", help="run the acceptance criteria and print a pass/fail table")
    c.add_argument("--only", help="comma-separated criterion ids")
    c.add_argument("--out")
    c.set_defaults(func=cmd_ledger)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
