"""Tests of the benchmark harness itself (not of the package's speed)."""

from __future__ import annotations

import cProfile
import json
import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import probes  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def keep_package_modules():
    """The harness re-imports cyclechain; restore the modules imported before
    the test, so that tests running later keep one copy of every class."""
    saved = {k: v for k, v in sys.modules.items() if k == "cyclechain" or k.startswith("cyclechain.")}
    yield
    for k in [k for k in sys.modules if k == "cyclechain" or k.startswith("cyclechain.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def _plain(res):
    """A comparable rendering of a query result from any copy of the package."""
    if isinstance(res, workloads.Stream):
        return repr(res.items)
    return repr(res)


def _one_pass(name: str, seed: int):
    wl, _, _ = harness.build(name, seed, 1)
    if wl.cli:
        wl.cli.in_process = True
    specs = [q.spec for q in wl.rounds[0]]
    outputs = [_plain(q.fn(*q.args)) for q in wl.rounds[0]]
    profiler = cProfile.Profile()
    harness.Runner().loop(wl.rounds, 0, 0, profiler=profiler, once=True)
    calls = {m: row["calls"] for m, row in harness.module_profile(profiler).items()}
    return specs, outputs, calls


@pytest.mark.parametrize("name", ["solve-mix", "enumerate-window", "cli-batch"])
def test_same_seed_same_queries_outputs_and_calls(name):
    first = _one_pass(name, 7)
    second = _one_pass(name, 7)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]
    assert _one_pass(name, 8)[0] != first[0]


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(name):
    out = harness.run(name, 3, seconds=0, trace=False, pool_rounds=1, min_queries=1, setups=1)
    res = out["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == harness.END_TO_END
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in res["metrics"].values())
    assert any(line.startswith(f"{name}: ") and "error_rate = 0.0000" in line for line in out["report"])


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(name, monkeypatch, tmp_path):
    # the probes are shared by all workloads and tested once below
    monkeypatch.setattr(probes, "run_probes", lambda lib, rng, src: {k: 1.0 for k in probes.UNITS})
    monkeypatch.setattr(harness, "OUT", tmp_path)
    out = harness.run(name, 3, seconds=0, trace=True, trace_rounds=1)
    res = out["result"]
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == harness.PER_LAYER
    trace = json.loads(next(tmp_path.glob(f"trace-{name}-seed3.json")).read_text())
    roots = [s for s in trace["spans"] if s["parent"] is None]
    assert len(roots) == res["attempted"]
    assert all(s["start_ns"] <= s["end_ns"] for s in trace["spans"])
    assert sum(res["metrics"][f"{m}.calls"]["value"] for m in harness.MODULES) > 0


def test_each_query_counts_at_its_fastest_run():
    q = workloads.Query("add.t4", "cycles.add", (), None, (), None, solutions=len)
    runs = [harness.Sample(q, 5, 4, 1, True), harness.Sample(q, 3, 2, 1, True),
            harness.Sample(q, 4, 1, 1, False)]
    [best] = harness.best_runs(runs)
    assert (best.latency_ns, best.first_ns, best.ok) == (3, 1, False)


def test_query_times_are_reported_at_the_reference_host_speed():
    q = workloads.Query("solve.t4", "division.solve", (), None, (), None, solutions=len)
    runs = [harness.Sample(q, 4_000_000, 2_000_000, 8, True)]
    plain = harness.end_to_end(runs, 0.5, 30.0)
    slow = harness.end_to_end(runs, 0.5, 30.0, slowdown=2.0)
    for k in ("op_p50_ms", "op_p90_ms", "first_p50_ms"):
        assert slow[k]["value"] == pytest.approx(plain[k]["value"] / 2)
    for k in ("ops_per_s", "solutions_per_s"):
        assert slow[k]["value"] == pytest.approx(plain[k]["value"] * 2)
    assert slow["setup_s"] == plain["setup_s"] and slow["peak_rss_mb"] == plain["peak_rss_mb"]
    gauge = harness.HostGauge()
    for _ in range(3):
        gauge.tick()
    assert gauge.slowdown() == gauge.p10_ns() / gauge.REFERENCE_NS > 0


@pytest.mark.parametrize("name", ["solve-mix", "enumerate-window"])
def test_repeated_passes_match_the_verified_answers(name):
    wl, _, _ = harness.build(name, 4, 1)
    runner = harness.Runner()
    first, _ = runner.loop(wl.rounds, 0, 0, once=True)
    again, _ = runner.loop(wl.rounds, 0, 0, once=True)
    assert all(s.ok for s in first + again)
    assert len(runner.verified) == len(wl.rounds[0])


def test_probes_report_every_probe_metric():
    mods = harness.load_package()
    values = probes.run_probes(workloads.Lib(mods), random.Random(5), str(harness.SRC))
    assert set(values) == set(probes.UNITS)
    assert all(math.isfinite(v) and v > 0 for v in values.values())


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_reference_agrees_with_the_oracle_and_the_interval_sizes():
    mods = harness.load_package()
    lib = workloads.Lib(mods)
    lattice, OddSet = mods.lattice, mods.cycles.OddSet
    lat = lattice.divisor_lattice(105)
    divs = workloads.divs_of(105)
    rng = random.Random(11)
    for _ in range(40):
        a, b = ((workloads.rand_cycles(rng, 3, divs, 2), workloads.rand_chains(rng, 2, 9)) for _ in range(2))
        assert lib.elem_lengths(mods.oracle.oracle_mul(lib.elem(a), lib.elem(b))) == ref.elem_mul(a, b)
        lo = OddSet(rng.sample(divs, 2))
        hi = lo | OddSet(rng.sample(divs, 3))
        iv = lattice.Interval(lattice.BoolElem(lat, lo.lengths), lattice.BoolElem(lat, hi.lengths))
        assert len(iv) == 1 << ref.free_atoms(lo.lengths, hi.lengths, divs)
