#!/usr/bin/env python3
"""Record the exact-result digests that the benchmark gates on.

    python3 bench/record.py            # rewrites bench/expected.json

Runs every triangle certificate job and every cut of the k-way pools once.
Re-record only when a change is meant to alter those exact values, and say
so with the change: the digests are the machine check that refactors keep
the certified numbers.
"""

import json
import sys

from run import BENCH, load_mwgap


def main() -> int:
    load_mwgap()
    import workloads

    digests = {name: job() for name, job in workloads.recorded_jobs()}
    out = BENCH / "expected.json"
    out.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
