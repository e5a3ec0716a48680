"""Set-up, the closed-loop timed run and the traced run of one workload.

One caller issues the next query only after the previous one returned, in
one process and one thread (`cli-batch` runs one subprocess at a time).  The
untraced run reports the end-to-end metrics; the traced run replays a fixed
number of rounds under `cProfile` with one span per query, then runs the
layer probes, and reports the per-layer metrics.
"""

from __future__ import annotations

import cProfile
import gc
import importlib
import itertools
import json
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Optional

import probes
import reference as ref
import workloads
from workloads import CliInvoker, Lib, Query, Stream

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cyclechain"
OUT = BENCH / "out"
MODULES = ("cycles", "chains", "lattice", "division", "structure", "poly", "oracle", "parser", "cli")
WORKLOADS = ("solve-mix", "enumerate-window", "oracle-check", "cli-batch")
MIN_QUERIES = 100  # query runs at least; the pools themselves hold 120 or more queries
SETUPS = 3  # set-ups per run; setup_s is their median
# rounds generated per run (the timed loop cycles through them) and rounds
# replayed by the traced run
POOL_ROUNDS = {"solve-mix": 32, "enumerate-window": 32, "oracle-check": 8, "cli-batch": 8}
TRACE_ROUNDS = {"solve-mix": 8, "enumerate-window": 8, "oracle-check": 1, "cli-batch": 2}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "first_p50_ms": "ms",
    "solutions_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{m}.{what}": unit for m in MODULES
       for what, unit in (("self_pct", "%"), ("calls", "count"), ("errors", "count"))},
    "lattice.divisor_lattice.builds": "count",
    "lattice.divisor_lattice.lookups": "count",
    "lattice.divisor_lattice.hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    **probes.UNITS,
}


def load_package() -> SimpleNamespace:
    """Import a fresh copy of every module from this checkout's `src/`.

    Dropping the modules first also drops their caches, so each set-up pays
    the import and the lattice builds again.
    """
    for name in [n for n in sys.modules if n == "cyclechain" or n.startswith("cyclechain.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("cyclechain")
    if Path(pkg.__file__).resolve().parent != PACKAGE:
        raise ImportError(f"cyclechain was imported from {pkg.__file__}, not from {PACKAGE}")
    return SimpleNamespace(**{m: importlib.import_module(f"cyclechain.{m}") for m in MODULES})


def build(name: str, seed: int, rounds: int) -> tuple[workloads.Workload, SimpleNamespace, float]:
    """Import the package, generate the workload's queries from the seed and
    warm the caches they use.  Returns the set-up time: the import, the
    construction of package objects, and the warm-up (every divisor lattice
    the queries need, and for oracle-check the small windows' tables)."""
    t0 = perf_counter_ns()
    mods = load_package()
    import_ns = perf_counter_ns() - t0
    lib = Lib(mods)
    rng = random.Random(f"{name}:{seed}")
    if name == "cli-batch":
        wl = workloads.cli_batch(lib, rng, rounds, CliInvoker(mods.cli, str(SRC)))
    else:
        make = {"solve-mix": workloads.solve_mix, "enumerate-window": workloads.enumerate_window,
                "oracle-check": workloads.oracle_check}[name]
        wl = make(lib, rng, rounds)
    t0 = perf_counter_ns()
    for k in sorted(wl.lattice_ks):
        mods.lattice.divisor_lattice(k)
    for fn, args in wl.warm:
        fn(*args)
    warm_ns = perf_counter_ns() - t0
    return wl, mods, (import_ns + lib.build_ns + warm_ns) / 1e9


@dataclass(slots=True)
class Sample:
    query: Query
    latency_ns: int
    first_ns: Optional[int]  # issue to first solution, for solution-producing queries
    solutions: int
    ok: bool


def _fingerprint(res) -> str:
    """The repr of an answer (of its solutions, for an enumeration); every
    answer type of the package has a repr that shows its whole value."""
    return repr(res.items if isinstance(res, Stream) else res)


class Tracer:
    """Spans kept in memory: one per query, plus a child span from issue to
    the first solution of an enumeration."""

    def __init__(self):
        self.spans: list[dict] = []

    def record(self, name: str, qid: int, start: int, end: int, parent: Optional[int]) -> int:
        self.spans.append({"id": len(self.spans), "name": name, "query": qid,
                           "parent": parent, "start_ns": start, "end_ns": end})
        return len(self.spans) - 1


class HostGauge:
    """How much slower than usual the host runs Python, measured in the run.

    On the shared 2-core host this benchmark was defined on, every Python
    loop, package code or not, ran 10-70% slower for minutes at a time (not
    as steal time: the thread's CPU time grew with it).  Taking each query at
    its fastest run cannot see past a slow stretch that covers the whole run.
    So after every round of the timed loop the gauge times a fixed piece of
    pure-Python work: the benchmark's own product rule (`reference.mul`,
    never package code, so no change to the package moves it) on fixed
    operands.  Its 10th-percentile time over the run, over REFERENCE_NS, is
    the run's slowdown; the timed end-to-end metrics are reported at the
    reference speed, times divided by it and rates multiplied.
    """

    # 10th percentile of one tick on that host (Python 3.11), when quiet
    REFERENCE_NS = 640_000

    def __init__(self):
        rng = random.Random(0)
        self.operands = [(workloads.rand_cycles(rng, 12, workloads.D765765, workloads.LEVELS),
                          workloads.rand_cycles(rng, 12, workloads.D765765, workloads.LEVELS))
                         for _ in range(16)]
        self.ticks: list[int] = []

    def tick(self) -> None:
        t0 = perf_counter_ns()
        for a, b in self.operands:
            ref.mul(a, b)
        self.ticks.append(perf_counter_ns() - t0)

    def p10_ns(self) -> int:
        return sorted(self.ticks)[len(self.ticks) // 10]

    def slowdown(self) -> float:
        return self.p10_ns() / self.REFERENCE_NS


class Runner:
    """Executes queries in a closed loop and checks each answer afterwards.

    The first execution of a query gets the full check; a repeat must return
    an answer equal to the verified one.
    """

    def __init__(self, cache_info=None):
        self.verified: dict[int, str] = {}
        # with `cache_info` (divisor_lattice's), count the lookups and builds
        # that the queries themselves make, leaving out set-up and checks
        self.cache_info = cache_info
        self.lattice_hits = self.lattice_builds = 0

    def execute(self, q: Query, qid: int, tracer: Optional[Tracer] = None,
                profiler: Optional[cProfile.Profile] = None) -> Sample:
        if self.cache_info:
            before = self.cache_info()
        if profiler:
            profiler.enable()
        t0 = perf_counter_ns()
        try:
            res, err = q.fn(*q.args), None
        except Exception as exc:  # a failed query is counted, not fatal
            res, err = None, exc
        t1 = perf_counter_ns()
        if profiler:
            profiler.disable()
        if self.cache_info:
            after = self.cache_info()
            self.lattice_hits += after.hits - before.hits
            self.lattice_builds += after.misses - before.misses
        ok = err is None and self._check(q, res)
        first = None
        if q.solutions is not None:
            first = (res.first_ns if isinstance(res, Stream) else t1) - t0
        if tracer:
            span = tracer.record(q.name, qid, t0, t1, None)
            if isinstance(res, Stream):
                tracer.record(q.name + ".first", qid, t0, res.first_ns, span)
        sols = q.solutions(res) if ok and q.solutions is not None else 0
        return Sample(q, t1 - t0, first, sols, ok)

    def _check(self, q: Query, res) -> bool:
        # A verified answer is kept as its repr, a string the collector does
        # not track: holding the answers themselves would grow the heap every
        # collection walks (in enumerate-window by ~170,000 objects).
        key = id(q)
        if key in self.verified:
            return _fingerprint(res) == self.verified[key]
        try:
            ok = bool(q.check(res))
        except Exception:
            ok = False
        if ok:
            self.verified[key] = _fingerprint(res)
        return ok

    def loop(self, rounds: list[list[Query]], seconds: float, min_queries: int,
             tracer: Optional[Tracer] = None, profiler: Optional[cProfile.Profile] = None,
             once: bool = False, gauge: Optional[HostGauge] = None) -> tuple[list[Sample], int]:
        """Run whole passes over the pool, or one pass when `once`.  Stopping
        only at a pass's end runs every query of the pool equally often; the
        loop stops at the pass end nearest to `seconds` of query time, once
        it has run `min_queries` queries."""
        samples: list[Sample] = []
        busy = pass_start = 0
        for r in itertools.count(1):
            for q in rounds[(r - 1) % len(rounds)]:
                s = self.execute(q, len(samples), tracer, profiler)
                samples.append(s)
                busy += s.latency_ns
            if gauge:
                gauge.tick()
            if r % len(rounds):
                continue
            if once or (busy + (busy - pass_start) / 2 >= seconds * 1e9
                        and len(samples) >= min_queries):
                break
            pass_start = busy
        return samples, busy


def best_runs(samples: list[Sample]) -> list[Sample]:
    """One sample per pool query: its fastest execution in the run, with the
    fastest time to first solution among its executions.

    The loop runs every query of the pool many times.  On a shared host a
    query's time rises when a neighbour takes the core or its caches, for
    stretches of seconds to minutes; its fastest execution is the cost of the
    code itself, and holds still between runs.  A query that failed once
    keeps `ok` false.
    """
    best: dict[int, Sample] = {}
    for s in samples:
        b = best.get(id(s.query))
        if b is None:
            best[id(s.query)] = Sample(s.query, s.latency_ns, s.first_ns, s.solutions, s.ok)
            continue
        b.latency_ns = min(b.latency_ns, s.latency_ns)
        if s.first_ns is not None:
            b.first_ns = min(b.first_ns, s.first_ns)
        b.ok = b.ok and s.ok
    return list(best.values())


def end_to_end(samples: list[Sample], setup_s: float, peak_rss_mb: float,
               slowdown: float = 1.0) -> dict:
    """The end-to-end metrics over the pool's queries, each at its fastest
    execution (`best_runs`): throughput is the pool's query count over the
    sum of their times.  Query times are divided by the host's `slowdown`
    (`HostGauge`); set-up time and memory are reported as measured."""
    best = best_runs(samples)
    lat = [s.latency_ns / 1e6 / slowdown for s in best]
    sol = [s for s in best if s.first_ns is not None and s.ok]
    sol_time = sum(s.latency_ns for s in sol) / 1e9 / slowdown
    values = {
        "setup_s": setup_s,
        "ops_per_s": sum(s.ok for s in best) / (sum(s.latency_ns for s in best) / 1e9 / slowdown),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0],
        "first_p50_ms": statistics.median(s.first_ns / 1e6 / slowdown for s in sol) if sol else 0.0,
        "solutions_per_s": sum(s.solutions for s in sol) / sol_time if sol_time else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def module_profile(profiler: cProfile.Profile) -> dict[str, dict]:
    """Self time and call counts per package module.

    Time spent in a builtin is charged to the module of the function that
    called it, so `cycles` owns the frozenset work done for `OddSet`.
    """
    profiler.create_stats()
    stats = profiler.stats
    files = {str(PACKAGE / f"{m}.py"): m for m in MODULES}

    def owner(key) -> Optional[str]:
        return files.get(key[0])

    out = {m: {"self_s": 0.0, "calls": 0} for m in MODULES}
    total = 0.0
    for key, (_cc, nc, tt, _ct, callers) in stats.items():
        total += tt
        m = owner(key)
        if m:
            out[m]["self_s"] += tt
            out[m]["calls"] += nc
        elif key[0] == "~":
            for caller, (_c, _n, ctt, _ctt) in callers.items():
                cm = owner(caller)
                if cm:
                    out[cm]["self_s"] += ctt
    for m in out.values():
        m["self_pct"] = 100.0 * m["self_s"] / total if total else 0.0
    return out


def run(name: str, seed: int, seconds: float, trace: bool, pool_rounds: Optional[int] = None,
        trace_rounds: Optional[int] = None, min_queries: int = MIN_QUERIES,
        setups: int = SETUPS) -> dict:
    """One benchmark run; returns the result object and a report for people."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rounds = pool_rounds or POOL_ROUNDS[name]
    if trace:
        rounds = min(rounds, trace_rounds or TRACE_ROUNDS[name])
        setups = 1
    setup_times = []
    wl = mods = None
    for _ in range(setups):
        del wl, mods
        gc.collect()  # each set-up starts from the same heap
        wl, mods, setup_s = build(name, seed, rounds)
        setup_times.append(setup_s)
    if not trace:
        gc.collect()  # the timed loop starts from a heap without set-up garbage
        runner, gauge = Runner(), HostGauge()
        samples, _ = runner.loop(wl.rounds, seconds, min_queries, gauge=gauge)
        peak = wl.cli.peak_kb / 1024 if wl.cli else peak_rss_mb()
        setup_s = statistics.median(setup_times)
        metrics = end_to_end(samples, setup_s, peak, gauge.slowdown())
        report = _report(name, samples, metrics, end_to_end(samples, setup_s, peak), gauge)
    else:
        runner = Runner(mods.lattice.divisor_lattice.cache_info)
        metrics, samples, report = _traced(wl, mods, runner, seed)
    failed = sum(not s.ok for s in samples)
    return {"result": {"correct": failed == 0, "attempted": len(samples), "failed": failed,
                       "metrics": metrics},
            "report": report}


def _traced(wl, mods, runner: Runner, seed: int):
    if wl.cli:
        wl.cli.in_process = True
    plain, plain_busy = runner.loop(wl.rounds, 0, 0, once=True)
    tracer = Tracer()
    profiler = cProfile.Profile()
    samples, busy = runner.loop(wl.rounds, 0, 0, tracer=tracer, profiler=profiler, once=True)
    modules = module_profile(profiler)
    for s in samples:
        row = modules[s.query.module]
        row["query_s"] = row.get("query_s", 0.0) + s.latency_ns / 1e9
    lookups = runner.lattice_hits + runner.lattice_builds
    values: dict[str, float] = {
        "lattice.divisor_lattice.builds": runner.lattice_builds,
        "lattice.divisor_lattice.lookups": lookups,
        "lattice.divisor_lattice.hit_ratio": runner.lattice_hits / lookups if lookups else 0.0,
        "trace.overhead_ratio": (len(plain) / plain_busy) / (len(samples) / busy),
    }
    for m in MODULES:
        values[f"{m}.self_pct"] = modules[m]["self_pct"]
        values[f"{m}.calls"] = modules[m]["calls"]
        values[f"{m}.errors"] = sum(not s.ok for s in samples if s.query.module == m)
    values.update(probes.run_probes(Lib(mods), random.Random(f"probes:{seed}"), str(SRC)))
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": wl.name, "seed": seed, "spans": tracer.spans,
                                "modules": modules, "metrics": metrics}))
    # query_% is the share of traced query time spent in queries that enter
    # the package through the module; self_% is where that time is spent
    total = sum(s.latency_ns for s in samples) / 1e9
    lines = [f"{wl.name}: traced {len(samples)} queries; spans in {path}",
             f"{'module':<10} {'self_ms':>10} {'self_%':>7} {'calls':>10} {'query_%':>8}"]
    for m in MODULES:
        row = modules[m]
        query_pct = 100.0 * row.get("query_s", 0.0) / total
        lines.append(f"{m:<10} {row['self_s'] * 1e3:>10.1f} {row['self_pct']:>7.1f} "
                     f"{row['calls']:>10} {query_pct:>8.1f}")
    lines += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()
              if not k.endswith((".self_pct", ".calls", ".errors"))]
    return metrics, samples, lines


def _report(name: str, samples: list[Sample], metrics: dict, raw: dict,
            gauge: HostGauge) -> list[str]:
    n = len(samples)
    failed = sum(not s.ok for s in samples)
    best = best_runs(samples)
    n_sol = sum(1 for s in best if s.first_ns is not None)
    counts = {"op_p50_ms": len(best), "op_p90_ms": len(best), "ops_per_s": len(best),
              "first_p50_ms": n_sol, "solutions_per_s": n_sol}
    lines = [f"{name}: {n} queries ({len(best)} distinct, each timed at its fastest of "
             f"{n / len(best):.1f} runs on average), {failed} failed, error_rate = {failed / n:.4f}"]
    lines.append(f"host slowdown = {gauge.slowdown():.4f} (gauge p10 {gauge.p10_ns() / 1e6:.4f} ms "
                 f"over {len(gauge.ticks)} ticks, reference {gauge.REFERENCE_NS / 1e6:.4f} ms)")
    for k, v in metrics.items():
        extra = f"  (n={counts[k]})" if k in counts else ""
        if raw[k]["value"] != v["value"]:
            extra += f"  [as timed: {raw[k]['value']:.6g}]"
        lines.append(f"{k} = {v['value']:.6g} {v['unit']}{extra}")
    lines.append("query kind p50_ms below are as timed")
    kinds: dict[str, list[Sample]] = {}
    for s in best:
        kinds.setdefault(s.query.kind, []).append(s)
    lines.append(f"{'query kind':<28} {'n':>5} {'failed':>6} {'p50_ms':>10}")
    for kind, group in kinds.items():
        p50 = statistics.median(s.latency_ns / 1e6 for s in group)
        lines.append(f"{kind:<28} {len(group):>5} {sum(not s.ok for s in group):>6} {p50:>10.3f}")
    return lines
