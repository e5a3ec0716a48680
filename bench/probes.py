"""Layer probes: per-call timings of each module's public functions.

They run at the end of every traced run, on inputs drawn from the run's seed,
so every workload reports the same per-layer names.  Sizes follow the
ROADMAP baseline: cycle sums over the divisors of 765765 at levels 0-4.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter_ns

import workloads as w
from workloads import Stream

UNITS = {
    "cycles.mul.p50_us.t4": "us",
    "cycles.mul.p50_us.t32": "us",
    "cycles.mul.p50_us.t96": "us",
    "cycles.pow.p50_us": "us",
    "division.solve.p50_us": "us",
    "chains.divide_full.p50_us": "us",
    "poly.is_reachable.p50_us": "us",
    "structure.classify.p50_us": "us",
    "structure.ideal_intersect.p50_us": "us",
    "structure.ideal_intersect.principal_ratio": "ratio",
    "lattice.divisor_lattice.build_ms": "ms",
    "division.enumerate.first_p50_ms": "ms",
    "division.enumerate.solutions": "count",
    "chains.restricted.first_p50_ms": "ms",
    "chains.restricted.solutions": "count",
    "oracle.exhaustive_divide.ms.w12": "ms",
    "oracle.exhaustive_divide.ms.w14": "ms",
    "oracle.exhaustive_divide.ms.w16": "ms",
    "oracle.candidates_per_s": "1/s",
    "oracle.product.vertices_per_s": "1/s",
    "parser.parse.p50_us": "us",
    "cli.import_ms": "ms",
    "cli.spawn_ms": "ms",
}
MID = 32  # terms of the cycle sums behind the single-size probes


def timed(fn, *args, **kwargs) -> tuple[int, object]:
    t0 = perf_counter_ns()
    res = fn(*args, **kwargs)
    return perf_counter_ns() - t0, res


def median_us(fn, calls) -> float:
    return statistics.median(timed(fn, *args)[0] for args in calls) / 1e3


def run_probes(lib: w.Lib, rng, src: str) -> dict[str, float]:
    m = lib.m
    out: dict[str, float] = {}

    def cyc(t):
        return lib.cyc(w.rand_cycles(rng, t, w.D765765, w.LEVELS))

    for t, n in ((4, 201), (32, 101), (96, 31)):
        out[f"cycles.mul.p50_us.t{t}"] = median_us(lambda a, b: a * b, [(cyc(t), cyc(t)) for _ in range(n)])
    out["cycles.pow.p50_us"] = median_us(pow, [(cyc(MID), rng.randint(2, 256)) for _ in range(15)])

    planted = []
    for _ in range(31):
        a, x = (w.rand_cycles(rng, MID, w.D765765, w.LEVELS) for _ in range(2))
        planted.append((lib.cyc(a), lib.cyc(w.ref.mul(a, x))))
    out["division.solve.p50_us"] = median_us(m.division.solve, planted)

    mixed = []
    for _ in range(21):
        ea, ex = ((w.rand_cycles(rng, MID, w.D765765, w.LEVELS),
                   w.rand_chains(rng, rng.randint(1, 8), w.CHAIN_HEIGHT)) for _ in range(2))
        mixed.append((lib.elem(ea), lib.elem(w.ref.elem_mul(ea, ex))))
    out["chains.divide_full.p50_us"] = median_us(m.chains.divide_full, mixed)

    polys = []
    for _ in range(21):
        coeffs, s = w._reachable_poly(rng, w.POLY_TERMS[MID])
        m.lattice.divisor_lattice(w.ref.modulus(*coeffs, s ^ coeffs[3]))
        polys.append((lib.poly(coeffs), lib.cyc(s)))
    out["poly.is_reachable.p50_us"] = median_us(m.poly.is_reachable, polys)

    out["structure.classify.p50_us"] = median_us(m.structure.classify, [(cyc(MID),) for _ in range(31)])
    pairs = []
    for i in range(21):
        u = lib.cyc(rng.sample(w.D765765, MID)) if i % 2 == 0 else cyc(MID)
        pairs.append((u, cyc(MID)))
    runs = [timed(m.structure.ideal_intersect, *p) for p in pairs]
    out["structure.ideal_intersect.p50_us"] = statistics.median(t for t, _ in runs) / 1e3
    out["structure.ideal_intersect.principal_ratio"] = (
        sum(r.kind == "principal" for _, r in runs) / len(runs))

    enum = [q for qs in w.enumerate_window(lib, rng, 2).rounds for q in qs]
    for prefix, name in (("cycles.", "division.enumerate"), ("mixed.", "chains.restricted")):
        firsts, sols = [], 0
        for q in enum:
            if q.kind.startswith(prefix):
                t0 = perf_counter_ns()
                res: Stream = q.fn(*q.args)
                firsts.append(res.first_ns - t0)
                sols += len(res.items)
        out[f"{name}.first_p50_ms"] = statistics.median(firsts) / 1e6
        out[f"{name}.solutions"] = sols

    oracle = w.oracle_check(lib, rng, 1).rounds[0]
    candidates, scan_ns = 0, 0
    for label in ("w12", "w14", "w16"):
        times = []
        for q in oracle:
            if q.kind == f"exhaustive.{label}":
                times.append(timed(q.fn, *q.args)[0])
                candidates += q.args[2].size()
        scan_ns += sum(times)
        out[f"oracle.exhaustive_divide.ms.{label}"] = statistics.median(times) / 1e6
    out["oracle.candidates_per_s"] = candidates / (scan_ns / 1e9)
    vertices, product_ns = 0, 0
    for q in oracle:
        if q.kind.startswith("product.v1"):  # the ~10**5-vertex products
            _, a, b = q.args
            dt, _ = timed(q.fn, *q.args)
            vertices += _vertices(a) * _vertices(b)
            product_ns += dt
    out["oracle.product.vertices_per_s"] = vertices / (product_ns / 1e9)

    texts = [w.text(w.rand_cycles(rng, MID, w.CLI_DIVS, w.LEVELS), w.rand_chains(rng, 4, 64))
             for _ in range(41)]
    out["parser.parse.p50_us"] = median_us(m.parser.parse, [(s,) for s in texts])

    out["cli.spawn_ms"], out["cli.import_ms"] = _interpreter_probes(src)

    builds = []
    for _ in range(3):
        m.lattice.divisor_lattice.cache_clear()
        builds.append(timed(m.lattice.divisor_lattice, 765765)[0])
    out["lattice.divisor_lattice.build_ms"] = statistics.median(builds) / 1e6
    return out


def _vertices(x) -> int:
    return sum(x.cycles.lengths()) + sum(x.chains.lengths)


def _interpreter_probes(src: str, samples: int = 5) -> tuple[float, float]:
    """Wall time of a bare interpreter start, and the time a fresh
    interpreter spends importing `cyclechain.cli` (measured inside it)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    spawn, imports = [], []
    code = "import time; t = time.perf_counter(); import cyclechain.cli; print(time.perf_counter() - t)"
    for _ in range(samples):
        dt, _ = timed(subprocess.run, [sys.executable, "-c", "pass"], check=True)
        spawn.append(dt / 1e6)
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        imports.append(float(proc.stdout) * 1e3)
    return statistics.median(spawn), statistics.median(imports)
