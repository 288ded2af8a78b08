"""Layer probes: the benchmark's wrappers around public calls into repro.

A :class:`Probe` patches a fixed list of public entry points for the
duration of one pass and restores them afterwards.  Every probe keeps
the O(1)-per-call bookkeeping the correctness checks and deterministic
metrics need (per-step wall time, engine dispatch counts, route
completion, the write oracle).  A *traced* probe additionally records a
span at every layer boundary (name, start, end, parent), counts
``Packet`` constructions and attaches a :class:`repro.obs.PhaseProfile`
to every engine run.  Spans stay in memory and are exported as Chrome
trace-event JSON once the run ends.

Layers are named after the repro modules whose calls they wrap; a
layer's *self time* is its spans' duration minus the time covered by
their child spans.
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import repro.emulation.leveled
import repro.emulation.mesh
from repro.emulation import LeveledEmulator, MeshEmulator
from repro.hashing.family import PolynomialHash
from repro.obs import Observer
from repro.routing import (
    FastPathEngine,
    LeveledRouter,
    MeshRouter,
    Packet,
    ShuffleRouter,
    StarRouter,
    SynchronousEngine,
    valiant,
)
from repro.traffic import OnlineEmulator, TrafficReport, WorkloadGenerator

from perfbench import checks

#: engine dispatch modes (``RoutingStats.run_mode`` values)
ENGINE_MODES = ("batch", "batch-constrained", "event", "reference")
#: PhaseProfile phase buckets
PHASES = ("transmission", "arrival", "escape", "combining")
#: layers that own self time, in reporting order
LAYERS = (
    "traffic.generators",
    "traffic.driver",
    "traffic.telemetry",
    "emulation",
    "emulation.combining",
    "hashing",
    "routing.router",
) + tuple(f"routing.engine.{m}" for m in ENGINE_MODES)

#: spans of the benchmark's own work inside a pass (calibration kernel,
#: write oracle); their time is excluded from passes and from layers
CALIBRATION = "perfbench.calibration"
CHECK = "perfbench.check"

#: (owner, attribute, layer) for wrappers that only record a span
_SPAN_ONLY = (
    (WorkloadGenerator, "stream", "traffic.generators"),
    (OnlineEmulator, "run", "traffic.driver"),
    (TrafficReport, "add", "traffic.telemetry"),
    (TrafficReport, "steady_state", "traffic.telemetry"),
    (TrafficReport, "to_dict", "traffic.telemetry"),
    (MeshRouter, "route", "routing.router"),
    (LeveledRouter, "route_packets", "routing.router"),
    (StarRouter, "route_permutation", "routing.router"),
    (StarRouter, "route", "routing.router"),
    (ShuffleRouter, "route_permutation", "routing.router"),
    (ShuffleRouter, "route", "routing.router"),
    (valiant, "valiant_shuffle_route", "routing.router"),
    # route_replies_fast is imported by name into both emulators
    (repro.emulation.mesh, "route_replies_fast", "emulation.combining"),
    (repro.emulation.leveled, "route_replies_fast", "emulation.combining"),
)


class _Cell:
    __slots__ = ("key", "value", "link")

    def __init__(self, key, value, link) -> None:
        self.key = key
        self.value = value
        self.link = link


def calibration_ms(cells: int = 10_000) -> float:
    """Wall ms of a fixed kernel whose time stands in for host speed.

    The kernel churns small slotted objects, tuples and a dict, like the
    emulators' per-packet Python work.  On a shared VM whose speed swings
    by tens of percent over seconds, its time tracks the program's far
    better than a pure arithmetic loop or a numpy gather does.  The
    cyclic garbage collector is paused while it runs, so its time does
    not depend on how many objects the process holds.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        objs = [_Cell(i, i + 1, (i, i)) for i in range(cells)]
        index = {c.key: c for c in objs}
        sum(index[k].value for k in range(0, cells, 3))
        del objs, index
        return (perf_counter() - t0) * 1e3
    finally:
        gc.enable()


class Probe:
    """Per-pass instrumentation state (see the module docstring).

    ``count_packets`` counts ``Packet.__init__`` calls without tracing,
    so an untraced pass can be compared with a traced one on every
    deterministic metric.  Before every emulated PRAM step and every
    routed permutation the probe times the calibration kernel; that
    time is excluded from the pass, and host times are later normalized
    by the kernel's time (per step, or per pass for whole-pass times).
    """

    def __init__(self, *, traced: bool = False, count_packets: bool = False) -> None:
        self.traced = traced
        self.count_packets = count_packets or traced
        #: calibration kernel ms, interleaved with the pass's work
        self.calibrations: list[float] = []
        #: spans as [name, start, end, parent index] (traced only)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.profile_observer = (
            Observer(metrics=False, tracing=False, profiling=True, flight_recorder=0)
            if traced
            else None
        )
        #: host seconds of each emulated PRAM step, in order
        self.step_wall: list[float] = []
        #: the calibration ms measured just before each step_wall entry
        self.step_calib: list[float] = []
        self.pram_steps = 0
        self.dispatch: Counter = Counter()
        self.request_attempts = 0
        self.packets_routed = 0
        self.undelivered = 0
        self.combines = 0
        self.credits_stalled = 0
        self.escape_hops = 0
        self.hash_calls = 0
        self.packets_built = 0
        #: seconds spent inside wrappers on checks (excluded from walls)
        self.check_s = 0.0
        #: correctness failures observed at call boundaries
        self.failures: list[str] = []
        #: per emulator (by id): addr -> value a sequential PRAM would
        #: hold (written cells only)
        self.oracles: dict[int, dict] = {}
        #: packets of the most recent engine run (destination check)
        self.last_packets = None

    # ---- spans -----------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, layer: str):
        def wrapper(*args, **kwargs):
            idx = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def calibrate(self) -> None:
        """Time the calibration kernel, outside every layer's time."""
        idx = self._open(CALIBRATION) if self.traced else -1
        c0 = perf_counter()
        self.calibrations.append(calibration_ms())
        self.check_s += perf_counter() - c0
        if idx >= 0:
            self._close(idx)

    # ---- call-boundary bookkeeping ---------------------------------------
    def _emulate_step_wrapper(self, fn):
        probe = self

        def emulate_step(emulator, step):
            probe.calibrate()
            idx = probe._open(CHECK) if probe.traced else -1
            c0 = perf_counter()
            checks.apply_writes(probe.oracles.setdefault(id(emulator), {}), step.writes)
            probe.check_s += perf_counter() - c0
            if idx >= 0:
                probe._close(idx)
            idx = probe._open("emulation") if probe.traced else -1
            t0 = perf_counter()
            try:
                return fn(emulator, step)
            finally:
                probe.step_wall.append(perf_counter() - t0)
                probe.step_calib.append(probe.calibrations[-1])
                probe.pram_steps += 1
                if idx >= 0:
                    probe._close(idx)

        return emulate_step

    def _engine_wrapper(self, fn):
        probe = self

        def run(engine, packets, *args, **kwargs):
            injected = probe.traced and engine.observer is None
            if injected:
                engine.observer = probe.profile_observer
            idx = probe._open("routing.engine") if probe.traced else -1
            try:
                stats = fn(engine, packets, *args, **kwargs)
            except Exception as exc:
                probe.failures.append(f"engine run raised {type(exc).__name__}: {exc}")
                raise
            finally:
                if idx >= 0:
                    probe._close(idx)
                if injected:
                    engine.observer = None
            if idx >= 0:
                probe.spans[idx][0] = f"routing.engine.{stats.run_mode}"
            probe.dispatch[stats.run_mode] += 1
            if packets and packets[0].kind in ("read", "write"):
                probe.request_attempts += 1
            probe.packets_routed += stats.total_packets
            probe.undelivered += stats.total_packets - stats.delivered
            probe.combines += stats.combines
            probe.credits_stalled += stats.credits_stalled
            probe.escape_hops += stats.escape_hops
            probe.failures.extend(checks.route_failures(stats))
            probe.last_packets = packets
            return stats

        return run

    def _hash_wrapper(self, fn):
        probe = self

        def map_(hash_fn, xs):
            probe.hash_calls += 1
            if not probe.traced:
                return fn(hash_fn, xs)
            idx = probe._open("hashing")
            try:
                return fn(hash_fn, xs)
            finally:
                probe._close(idx)

        return map_

    def _packet_init_wrapper(self, fn):
        probe = self

        def __init__(packet, *args, **kwargs):
            probe.packets_built += 1
            fn(packet, *args, **kwargs)

        return __init__

    def check_destinations(self) -> None:
        """Every packet of the last engine run sits at its destination."""
        c0 = perf_counter()
        self.failures.extend(checks.destination_failures(self.last_packets or ()))
        self.last_packets = None
        self.check_s += perf_counter() - c0

    @contextmanager
    def installed(self):
        """Patch the wrapped entry points for the duration of the block."""
        patches = [
            (MeshEmulator, "emulate_step", self._emulate_step_wrapper),
            (LeveledEmulator, "emulate_step", self._emulate_step_wrapper),
            (FastPathEngine, "run", self._engine_wrapper),
            (SynchronousEngine, "run", self._engine_wrapper),
            (PolynomialHash, "map", self._hash_wrapper),
        ]
        if self.count_packets:
            patches.append((Packet, "__init__", self._packet_init_wrapper))
        if self.traced:
            patches += [
                (owner, attr, lambda fn, layer=layer: self._span_wrapper(fn, layer))
                for owner, attr, layer in _SPAN_ONLY
            ]
        saved = []
        try:
            for owner, attr, make in patches:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ---- results -----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Layer -> summed self seconds over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            if name in out:
                out[name] += (end - start) - child[i]
        return out

    def attributed_s(self) -> float:
        """Seconds covered by named layers: top-level spans minus the
        benchmark's own work nested in them."""
        top = sum(end - start for _n, start, end, parent in self.spans if parent < 0)
        own = sum(
            end - start for n, start, end, _p in self.spans if n in (CALIBRATION, CHECK)
        )
        return top - own

    def phase_seconds(self) -> dict[str, float]:
        prof = self.profile_observer.profile if self.profile_observer else None
        return {p: (prof.phase_total(p) if prof else 0.0) for p in PHASES}


def chrome_trace(spans_by_pass: list[list[list]]) -> dict:
    """Chrome trace-event JSON (opens in Perfetto) for traced passes.

    Each pass becomes one thread; span ids are global so ``parent``
    args point across the whole file.
    """
    events = []
    origin = min((s[1] for spans in spans_by_pass for s in spans), default=0.0)
    base = 0
    for tid, spans in enumerate(spans_by_pass, start=1):
        for i, (name, start, end, parent) in enumerate(spans):
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        "id": base + i,
                        "parent": base + parent if parent >= 0 else None,
                    },
                }
            )
        base += len(spans)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
