"""Run one cyclechain benchmark workload and print its metrics.

    python3 bench/run.py --workload solve-mix --seed 1 --seconds 20 --trace 0

The report goes to standard output; its last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`).  The package is
imported from `src/` beside this directory; without it the run fails with a
non-zero exit code and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="query time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import the cyclechain package: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
