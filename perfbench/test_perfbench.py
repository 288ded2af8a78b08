"""The benchmark's own tests: metric names, checks, traced/untraced agreement.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, workloads, worker
from perfbench.probe import Probe
from repro.pram.memory import SharedMemory
from repro.routing.metrics import RoutingStats

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def quick(name: str) -> workloads.Workload:
    """A workload shrunk to a few PRAM steps (or one round) per pass."""
    wl = workloads.WORKLOADS[name]
    return dataclasses.replace(wl, epochs=min(wl.epochs, 6), rounds=min(wl.rounds, 1))


def served(name: str, seed: int = 7, **probe_kw):
    wl = quick(name)
    probe = Probe(**probe_kw)
    out, failures, failed = worker.serve_pass(wl, seed, probe)
    return wl, probe, out, failures, failed


# ---- BENCHMARK.json and the result line -------------------------------------


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        wl = workloads.WORKLOADS[entry["name"]]
        assert f"seed {wl.seed}," in entry["why"]
        assert entry["why"].endswith(str(wl.holdout_seed))
        assert wl.dominant_layer in entry["why"]


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metric_names_match_benchmark_json(monkeypatch, trace):
    monkeypatch.setattr(worker, "metrics_overhead", lambda seed: 1.0)
    key = "per_layer" if trace else "end_to_end"
    expected = [m["name"] for m in SPEC[key]]
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    for name in workloads.WORKLOADS:
        result = worker.measure(quick(name), 3, seconds=0, trace=trace)
        assert result["failures"] == []
        assert sorted(result["metrics"]) == sorted(expected), name
        for metric, (value, unit) in result["metrics"].items():
            assert unit == units[metric], metric
            assert isinstance(value, (int, float)), metric


def test_run_py_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "leveled-crcw-uniform",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    assert sorted(last["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_run_py_fails_without_the_program(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for f in (ROOT / "perfbench").glob("*.py"):
        (bare / "perfbench" / f.name).write_text(f.read_text())
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "leveled-crcw-uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---- traced vs untraced ----------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_passes_agree(name):
    _wl, plain, plain_out, fails, _ = served(name, count_packets=True)
    assert fails == []
    _wl, traced, traced_out, fails, _ = served(name, traced=True)
    assert fails == []
    plain_det = worker.deterministic(plain_out, plain)
    assert worker.deterministic(traced_out, traced) == plain_det
    assert plain_det["routing.packets_per_request"] > 0
    # the traced pass attributes (nearly) all of its wall time to layers
    assert traced.attributed_s() >= 0.95 * traced_out.wall
    assert traced.spans and all(end >= start for _n, start, end, _p in traced.spans)


def test_chrome_trace_links_children_to_parents():
    _wl, traced, _out, _f, _ = served("mesh-erew-uniform", traced=True)
    from perfbench.probe import chrome_trace

    events = chrome_trace([traced.spans])["traceEvents"]
    ids = {e["args"]["id"] for e in events}
    assert {e["ph"] for e in events} == {"X"}
    assert all(e["args"]["parent"] in ids for e in events if e["args"]["parent"] is not None)
    names = {e["name"] for e in events}
    assert {"traffic.driver", "emulation", "hashing", "routing.router"} <= names
    assert "routing.engine.batch" in names


# ---- each check trips on a corrupted output -------------------------------------


def test_conservation_check_trips():
    _wl, _probe, out, fails, _ = served("mesh-erew-uniform")
    (report,) = out.reports
    assert fails == [] and checks.conservation_failures(report) == []
    report.epochs[-1].backlog += 1
    assert any("global" in f for f in checks.conservation_failures(report))
    report.epochs[-1].backlog -= 1
    report.epochs[0].delivered_by_tenant["default"] += 1
    assert any("tenant" in f for f in checks.conservation_failures(report))


def test_route_check_trips():
    ok = RoutingStats(steps=9, delivered=10, total_packets=10, max_queue=1,
                      completed=True, run_mode="batch")
    assert checks.route_failures(ok) == []
    short = dataclasses.replace(ok, delivered=9)
    timed_out = dataclasses.replace(ok, completed=False)
    assert checks.route_failures(short) and checks.route_failures(timed_out)


def test_memory_oracle_check_trips(monkeypatch):
    _wl, probe, _out, fails, _ = served("mesh-crcw-credit-hotspot")
    assert fails == [] and any(probe.oracles.values())  # the workload writes
    original = SharedMemory.write

    def corrupt(memory, addr, value):
        original(memory, addr, value + 1)

    monkeypatch.setattr(SharedMemory, "write", corrupt)
    _wl, _probe, _out, fails, _ = served("mesh-crcw-credit-hotspot")
    assert any("oracle" in f for f in fails)


def test_destination_check_trips():
    _wl, probe, _out, fails, _ = served("sublog-permutations")
    assert fails == []
    stack = workloads.build_permutations(quick("sublog-permutations"), 7)
    _kind, router, perm = stack.jobs[0]
    with probe.installed():
        router.route_permutation(perm)
    packets = probe.last_packets
    assert checks.destination_failures(packets) == []
    packets[3].node = packets[4].dest
    assert checks.destination_failures(packets)


def test_emulator_validate_check_trips():
    wl = quick("leveled-crcw-uniform")
    (emulator, _driver), = workloads.build_online(wl, 1).replicas
    assert checks.emulator_failures(emulator) == []
    emulator.validate = False
    assert checks.emulator_failures(emulator)


def test_agreement_check_trips():
    ref = {"sim_slowdown": 1.5, "routing.dispatch.batch": 10}
    assert checks.agreement_failures(ref, dict(ref), "pass") == []
    assert checks.agreement_failures(ref, {**ref, "routing.dispatch.batch": 11}, "pass")


def test_oracle_resolves_lowest_pid_then_smallest_value():
    from repro.pram.trace import WriteRequest

    oracle: dict = {}
    checks.apply_writes(
        oracle,
        [WriteRequest(5, 1, 50), WriteRequest(2, 1, 20), WriteRequest(2, 1, 10),
         WriteRequest(9, 3, 90)],
    )
    assert oracle == {1: 10, 3: 90}


def test_benchmark_json_keeps_its_format():
    import re

    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"] and SPEC["command"][1].startswith("perfbench/")
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert 2 <= len(names) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names)) and all(name_re.match(n) for n in names)
    assert all(unit_re.match(m["unit"]) for m in metrics)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
