"""Paired in-process timing of two source trees, query kind by query kind.

    python3 tools/paired_kinds.py enumerate-window PARENT/src src --seed 1 --passes 15

Each tree's `cyclechain` package is copied to a temporary directory under a
name of its own (`cyclechain_a`, `cyclechain_b`), so both load into one
process side by side.  The seeded query pool of `bench/workloads.py` is
built on each, from the same seed, as the benchmark builds it.  Every query
of both pools runs once under the pool's own check; then the passes
alternate the two sides query by query, the side that goes first switching
every pass, so a slow stretch of the host falls on both sides alike.

Above the table stands each side's pool footprint: the bytes, traced by
`tracemalloc` while that side's pool is built, that are still held once it
is, counted where the allocating line is in that side's package.  It is
free of host noise, so a change to how the package holds its values shows
there in process; two copies of one tree read the same bytes.

Each query counts at its fastest run, as in the benchmark.  The table shows,
per query kind, the median over its queries of that best latency and of the
best time to the first solution (enumerations only), for both sides, and
the change from side a to side b.  Nothing is written; `bench/` is only
read.  Stdlib only, and not a test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import random
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

sys.dont_write_bytecode = True  # reading bench/ leaves no __pycache__ behind

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("cycles", "chains", "lattice", "division", "structure", "poly", "oracle", "parser", "cli")
# the workloads that run in process; cli-batch spawns `python -m cyclechain.cli`
POOLS = {"solve-mix": "solve_mix", "enumerate-window": "enumerate_window",
         "oracle-check": "oracle_check"}
POOL_ROUNDS = 32


def load(src: Path, name: str, tmp: Path) -> SimpleNamespace:
    """Import a copy of `src/cyclechain` as the package `name`."""
    shutil.copytree(src / "cyclechain", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(name)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def run_once(q) -> tuple[int, int | None, object]:
    """(latency, time to the first solution or None, result) of one query."""
    t0 = perf_counter_ns()
    res = q.fn(*q.args)
    t1 = perf_counter_ns()
    first = None
    if q.solutions is not None:
        first = getattr(res, "first_ns", t1) - t0
    return t1 - t0, first, res


def footprint_bytes(snapshot: tracemalloc.Snapshot, package: Path) -> int:
    """Bytes of the snapshot's traces allocated by a line of `package`."""
    traces = snapshot.filter_traces([tracemalloc.Filter(True, f"{package}/*")])
    return sum(stat.size for stat in traces.statistics("filename"))


def median_or_none(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) / 1e6 if values else None


def fmt(ms: float | None) -> str:
    return f"{ms:10.4f}" if ms is not None else f"{'-':>10}"


def delta(a: float | None, b: float | None) -> str:
    return f"{100 * (b - a) / a:+7.1f}%" if a and b is not None else f"{'-':>8}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(POOLS))
    ap.add_argument("src_a", type=Path, help="the `src/` directory of side a (the parent)")
    ap.add_argument("src_b", type=Path, help="the `src/` directory of side b (the change)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=10, help="timed passes over both pools")
    ap.add_argument("--rounds", type=int, default=POOL_ROUNDS, help="rounds in each pool")
    args = ap.parse_args(argv)
    for src in (args.src_a, args.src_b):
        if not (src / "cyclechain" / "__init__.py").is_file():
            ap.error(f"{src} holds no cyclechain package")

    sys.path.insert(0, str(BENCH))
    workloads = importlib.import_module("workloads")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [load(src.resolve(), f"cyclechain_{side}", Path(tmp))
                 for side, src in (("a", args.src_a), ("b", args.src_b))]
        pools, footprint = [], []
        for side, mods in zip("ab", sides):
            gc.collect()  # empties the free lists, whose reuse tracemalloc does not see
            tracemalloc.start()
            rng = random.Random(f"{args.workload}:{args.seed}")
            wl = getattr(workloads, POOLS[args.workload])(workloads.Lib(mods), rng, args.rounds)
            pools.append([q for r in wl.rounds for q in r])
            held = tracemalloc.take_snapshot()
            tracemalloc.stop()
            footprint.append(footprint_bytes(held, Path(tmp) / f"cyclechain_{side}"))
        a, b = pools
        if [q.spec for q in a] != [q.spec for q in b]:
            print("error: the two trees built different pools from one seed", file=sys.stderr)
            return 1

        best = [[], []]  # [side][query] = [best latency, best time to first solution]
        failed = [0, 0]
        for s, pool in enumerate(pools):
            for q in pool:
                lat, first, res = run_once(q)
                try:
                    failed[s] += not q.check(res)
                except Exception:  # a check that raises is a failed check
                    failed[s] += 1
                best[s].append([lat, first])
        gc.collect()
        for p in range(args.passes):
            order = (0, 1) if p % 2 == 0 else (1, 0)
            for i in range(len(a)):
                for s in order:
                    lat, first, _ = run_once(pools[s][i])
                    rec = best[s][i]
                    rec[0] = min(rec[0], lat)
                    if first is not None:
                        rec[1] = min(rec[1], first)

    kinds: dict[str, list[int]] = {}
    for i, q in enumerate(a):
        kinds.setdefault(q.kind, []).append(i)
    print(f"{args.workload}, seed {args.seed}: {len(a)} queries per side, best of "
          f"{args.passes + 1} runs each; checks failed: a {failed[0]}, b {failed[1]}")
    print(f"pool footprint (bytes held by package allocations): a {footprint[0]:,} B,"
          f" b {footprint[1]:,} B, {delta(*footprint).strip()}")
    print(f"{'query kind':<24} {'n':>4} {'a_ms':>10} {'b_ms':>10} {'delta':>8}"
          f" {'a_first_ms':>10} {'b_first_ms':>10} {'delta':>8}")
    total = [sum(rec[0] for rec in side) / 1e6 for side in best]
    print(f"{'all queries (sum)':<24} {len(a):>4} {fmt(total[0])} {fmt(total[1])} {delta(*total)}")
    for kind, idx in kinds.items():
        lat = [median_or_none([best[s][i][0] for i in idx]) for s in (0, 1)]
        first = [median_or_none([best[s][i][1] for i in idx]) for s in (0, 1)]
        print(f"{kind:<24} {len(idx):>4} {fmt(lat[0])} {fmt(lat[1])} {delta(*lat)}"
              f" {fmt(first[0])} {fmt(first[1])} {delta(*first)}")
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
