"""Per-operation baseline table: the ROADMAP's L0/L1 figures, measured again.

    python3 bench/baseline.py [--seed 1] [--out bench/baseline.json]

Times `CycleSum` multiplication, `solve` and `classify` at 4, 32 and 96 terms
over the divisors of 765765 (levels 0-4), a `divisor_lattice(765765)` build
and a trivial CLI command in a fresh interpreter.  Each record is
`{name, layer, params, median_ns, runs, src_lines}`; `src_lines` counts the
lines of `src/`, so a later table shows what the code size was beside its
speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

import harness
import workloads as w
from probes import timed

RUNS = {4: 201, 32: 101, 96: 31}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(harness.SRC.rglob("*.py")))


def measure(seed: int) -> list[dict]:
    mods = harness.load_package()
    lib = w.Lib(mods)
    rng = random.Random(f"baseline:{seed}")
    mods.lattice.divisor_lattice(765765)
    rows = []

    def row(name, layer, params, times):
        rows.append({"name": name, "layer": layer, "params": params,
                     "median_ns": int(statistics.median(times)), "runs": len(times)})

    for t, runs in RUNS.items():
        params = {"terms": t, "k": 765765, "max_level": w.LEVELS - 1}
        draws = [[w.rand_cycles(rng, t, w.D765765, w.LEVELS) for _ in range(2)] for _ in range(runs)]
        row("cycles.mul", "L0", params,
            [timed(lambda a, b: a * b, lib.cyc(a), lib.cyc(b))[0] for a, b in draws])
        row("division.solve", "L1", params,
            [timed(mods.division.solve, lib.cyc(a), lib.cyc(w.ref.mul(a, x)))[0] for a, x in draws])
        row("structure.classify", "L1", params,
            [timed(mods.structure.classify, lib.cyc(a))[0] for a, _ in draws])

    builds = []
    for _ in range(5):
        mods.lattice.divisor_lattice.cache_clear()
        builds.append(timed(mods.lattice.divisor_lattice, 765765)[0])
    row("lattice.divisor_lattice", "L1", {"k": 765765, "divisors": 96}, builds)

    argv = [sys.executable, "-m", "cyclechain.cli", "eval", "C3 + C5"]
    env = dict(os.environ, PYTHONPATH=str(harness.SRC))
    row("cli.eval", "L4", {"argv": argv[1:]},
        [timed(subprocess.run, argv, env=env, check=True, capture_output=True)[0] for _ in range(7)])
    lines = src_lines()
    for r in rows:
        r["src_lines"] = lines
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description="Measure the per-operation baseline table.")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=harness.BENCH / "baseline.json")
    args = ap.parse_args()
    table = {"python": platform.python_version(), "cpus": os.cpu_count(),
             "seed": args.seed, "records": measure(args.seed)}
    args.out.write_text(json.dumps(table, indent=1) + "\n")
    for r in table["records"]:
        print(f"{r['name']:<26} {json.dumps(r['params']):<48} {r['median_ns'] / 1e3:>12.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
