"""Measure one workload in this process and print its result as JSON.

``perfbench/run.py`` starts this module in a fresh process per run; it
is not meant to be started by hand (run.py sets up the environment).

Untraced runs (``--trace 0``) measure the end-to-end metrics.  Traced
runs (``--trace 1``) alternate untraced and traced passes of the same
seed, check that both report identical deterministic metrics, and
derive the per-layer metrics from the traced passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import checks, workloads
from perfbench.probe import (
    ENGINE_MODES,
    LAYERS,
    PHASES,
    Probe,
    calibration_ms,
    chrome_trace,
)

#: stack builds timed after each pass, so setup_s is a median over
#: set-ups spread across the whole run
SETUPS_PER_PASS = 10
#: the calibration kernel's median ms on the host the baselines were
#: recorded on (a 2-vCPU Xeon KVM guest); host times are reported as if
#: every run had that host's speed
REFERENCE_CALIB_MS = 5.0
#: where traces and full results land, relative to the checkout root
OUT_DIR = Path(".perfbench")


def context() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "REPRO_ENGINE": os.environ.get("REPRO_ENGINE"),
        "calibration_kernel": calibration_ms.__doc__.splitlines()[0],
        "calibration_reference_ms": REFERENCE_CALIB_MS,
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def deterministic(out, probe) -> dict:
    """Metrics that are a pure function of the seed: equal on every pass."""
    units = max(out.delivered, 1)
    det = {
        "sim_slowdown": float(np.mean(out.slowdowns)),
        "sim_sojourn_p99_steps": percentile(out.sojourns, 99),
        "routing.packets_routed": probe.packets_routed,
        "routing.combines_per_request": probe.combines / units,
        "routing.credits_stalled": probe.credits_stalled,
        "routing.escape_hops": probe.escape_hops,
        "hashing.calls": probe.hash_calls,
        "emulation.attempts_per_step": (
            probe.request_attempts / probe.pram_steps if probe.pram_steps else 0.0
        ),
    }
    for mode in ENGINE_MODES:
        det[f"routing.dispatch.{mode}"] = probe.dispatch.get(mode, 0)
    if probe.count_packets:
        det["routing.packets_per_request"] = probe.packets_built / units
    return det


def serve_pass(wl, seed: int, probe: Probe):
    """Build and serve one pass; check its outputs."""
    gc.collect()
    stack = workloads.build(wl, seed)
    with probe.installed():
        out = workloads.run_pass(wl, stack, probe)
    failures = list(probe.failures)
    for report in out.reports:
        failures += checks.conservation_failures(report)
    for emulator, _driver in getattr(stack, "replicas", ()):
        failures += checks.emulator_failures(emulator)
        failures += checks.memory_failures(
            emulator.memory, probe.oracles.get(id(emulator), {})
        )
    failed = out.lost + probe.undelivered
    return out, failures, failed


def release(out, probe: Probe) -> None:
    """Drop a finished pass's bulky state so later passes run on a heap
    (and a garbage collector) no bigger than the first pass had."""
    out.reports = out.sojourns = out.slowdowns = None
    probe.oracles = {}
    probe.last_packets = None


@dataclass
class Pass:
    out: workloads.PassOutput
    probe: Probe
    det: dict
    #: host-speed normalization: REFERENCE_CALIB_MS / calibration ms
    #: measured around the pass
    scale: float

    @property
    def us_per_request(self) -> float:
        return self.out.wall * self.scale / self.out.delivered * 1e6


def time_setups(wl, seed: int, n: int) -> list[float]:
    """*n* stack builds, each normalized by a calibration run just before."""
    out = []
    for _ in range(n):
        calib = calibration_ms()
        gc.collect()
        t0 = perf_counter()
        workloads.build(wl, seed)
        out.append((perf_counter() - t0) * REFERENCE_CALIB_MS / calib)
    return out


def measure(wl, seed: int, seconds: float, trace: bool) -> dict:
    setups: list[float] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    failures: list[str] = []
    attempted = failed = 0
    peak_rss_mb = None
    calibrations: list[float] = []
    start = perf_counter()
    while True:
        for is_traced in (False, True) if trace else (False,):
            probe = Probe(traced=is_traced, count_packets=trace)
            out, fails, lost = serve_pass(wl, seed, probe)
            calibrations += probe.calibrations
            setups += time_setups(wl, seed, SETUPS_PER_PASS)
            failures += fails
            attempted += out.attempted
            failed += lost
            scale = REFERENCE_CALIB_MS / statistics.mean(probe.calibrations)
            det = deterministic(out, probe)
            release(out, probe)
            (traced if is_traced else plain).append(Pass(out, probe, det, scale))
            if peak_rss_mb is None:
                # After set-up and one pass: later passes repeat the same
                # work, and how many fit in the run varies with host speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    for i, p in enumerate(plain[1:] + traced, start=1):
        label = f"pass {i} ({'traced' if i >= len(plain) else 'untraced'})"
        failures += checks.agreement_failures(plain[0].det, p.det, label)
    result = {
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "passes": len(plain) + len(traced),
        "calibrations_ms": calibrations,
        "pass_scales": [p.scale for p in plain],
        "pass_unit_wall": [p.out.unit_wall for p in plain],
        "pass_unit_calib": [p.out.unit_calib for p in plain],
        "pass_walls": [p.out.wall for p in plain],
        "setups_s": setups,
    }
    if trace:
        result["metrics"], result["self_time_table"] = layer_metrics(
            plain, traced, seed, statistics.median(calibrations)
        )
        result["chrome_trace"] = chrome_trace([p.probe.spans for p in traced])
    else:
        result["metrics"] = end_to_end_metrics(plain, setups, peak_rss_mb)
    return result


def end_to_end_metrics(plain: list[Pass], setups, peak_rss_mb: float) -> dict:
    unit_wall = [
        w * REFERENCE_CALIB_MS / c
        for p in plain
        for w, c in zip(p.out.unit_wall, p.out.unit_calib)
    ]
    det = plain[0].det
    return {
        "setup_s": (statistics.median(setups), "s"),
        "host_us_per_request": (
            statistics.median(p.us_per_request for p in plain), "us"
        ),
        "step_host_ms_p50": (percentile(unit_wall, 50) * 1e3, "ms"),
        "step_host_ms_p90": (percentile(unit_wall, 90) * 1e3, "ms"),
        "sim_slowdown": (det["sim_slowdown"], "ratio"),
        "sim_sojourn_p99_steps": (det["sim_sojourn_p99_steps"], "steps"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(plain: list[Pass], traced: list[Pass], seed: int, calib_ms: float):
    n = len(traced)
    self_s = {layer: 0.0 for layer in LAYERS}
    phases = {p: 0.0 for p in PHASES}
    unattributed = []
    for p in traced:
        for layer, sec in p.probe.self_times().items():
            self_s[layer] += sec * p.scale / n
        for phase, sec in p.probe.phase_seconds().items():
            phases[phase] += sec * p.scale / n
        unattributed.append(1.0 - p.probe.attributed_s() / p.out.wall)
    det = traced[0].det
    m: dict[str, tuple] = {}
    for layer in LAYERS:
        if layer.startswith("routing.engine."):
            m[f"{layer}_s"] = (self_s[layer], "s/pass")
        else:
            m[f"{layer}.self_s"] = (self_s[layer], "s/pass")
    for phase in PHASES:
        m[f"routing.engine.phase.{phase}_s"] = (phases[phase], "s/pass")
    for mode in ENGINE_MODES:
        m[f"routing.dispatch.{mode}"] = (det[f"routing.dispatch.{mode}"], "count")
    m["hashing.calls"] = (det["hashing.calls"], "count")
    m["routing.packets_per_request"] = (det["routing.packets_per_request"], "count")
    m["routing.combines_per_request"] = (det["routing.combines_per_request"], "count")
    m["emulation.attempts_per_step"] = (det["emulation.attempts_per_step"], "ratio")
    m["routing.credits_stalled"] = (det["routing.credits_stalled"], "count")
    m["routing.escape_hops"] = (det["routing.escape_hops"], "count")
    m["obs.metrics_overhead"] = (metrics_overhead(seed), "ratio")
    m["host.calib_ms"] = (calib_ms, "ms")
    m["trace.overhead"] = (
        statistics.median(p.us_per_request for p in traced)
        / statistics.median(p.us_per_request for p in plain),
        "ratio",
    )
    m["trace.unattributed_share"] = (statistics.median(unattributed), "ratio")
    total = sum(self_s.values())
    table = [
        f"{layer:<32} {sec:10.4f} s {100 * sec / total if total else 0:6.1f} %"
        for layer, sec in sorted(self_s.items(), key=lambda kv: -kv[1])
    ]
    return m, table


# ---- obs.metrics_overhead -----------------------------------------------

OVERHEAD_WORKLOAD = "leveled-crcw-uniform"
#: passes per obs.metrics_overhead process
OVERHEAD_PASSES = 2


def overhead_probe(seed: int, observe: bool) -> float:
    """Normalized us per delivered request of leveled passes, optionally
    with a metrics-only observer attached (median over the passes)."""
    from repro.obs import Observer

    wl = workloads.WORKLOADS[OVERHEAD_WORKLOAD]
    us = []
    for _ in range(OVERHEAD_PASSES):
        observer = (
            Observer(metrics=True, tracing=False, profiling=False) if observe else None
        )
        gc.collect()
        stack = workloads.build_online(wl, seed, observer=observer)
        probe = Probe()
        with probe.installed():
            out = workloads.run_online(wl, stack, probe)
        scale = REFERENCE_CALIB_MS / statistics.mean(probe.calibrations)
        us.append(out.wall * scale / out.delivered * 1e6)
    return statistics.median(us)


def metrics_overhead(seed: int) -> float:
    """Metrics-observer / bare time per request on the leveled workload.

    Each side runs in its own fresh process, in ABBA order so a drift
    of the host's speed cancels out.
    """
    us = {False: [], True: []}
    for observe in (False, True, True, False):
        cmd = [sys.executable, "-m", "perfbench.worker", "--overhead-probe",
               "--seed", str(seed)]
        if observe:
            cmd.append("--observe")
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=True
        )
        us[observe].append(float(proc.stdout.strip().splitlines()[-1]))
    return sum(us[True]) / sum(us[False])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--overhead-probe", action="store_true")
    ap.add_argument("--observe", action="store_true")
    args = ap.parse_args(argv)
    if args.overhead_probe:
        print(overhead_probe(args.seed, args.observe))
        return 0
    wl = workloads.WORKLOADS[args.workload]
    ctx = context()
    result = measure(wl, args.seed, args.seconds, bool(args.trace))
    ctx["calibration_median_ms"] = statistics.median(result["calibrations_ms"])
    ctx["process_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        trace_path = OUT_DIR / f"{stem}.trace.json"
        trace_path.write_text(json.dumps(result.pop("chrome_trace")))
        print("self time per pass, traced:")
        for line in result["self_time_table"]:
            print("  " + line)
        print(f"chrome trace: {trace_path}")
    full = {"workload": wl.name, "seed": args.seed, "context": ctx, **result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(full, indent=1, default=str))
    print(json.dumps({"context": ctx}))
    print(
        json.dumps(
            {
                "correct": not result["failures"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "failures": result["failures"][:20],
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
