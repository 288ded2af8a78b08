"""The benchmark's workloads: what each one builds, runs and reports.

Every workload is a fixed amount of work per *pass* that is a pure
function of the seed: a pass builds the whole stack (network, compiled
topology, emulator or routers, generator, driver) and then serves it.
A run repeats passes with the same seed until its time is up, so every
pass of a run must report identical deterministic metrics; host-time
metrics are medians over passes.

The program only ever receives generated inputs: seeds for its own
generators and routers (derived here from ``--seed``) and, for the
permutation workload, the permutations themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.emulation import LeveledEmulator, MeshEmulator
from repro.routing import ShuffleRouter, StarRouter
from repro.routing import valiant
from repro.topology import DAryButterflyLeveled, DWayShuffle, Mesh2D, StarGraph
from repro.topology.compiled import compile_leveled, compile_mesh
from repro.traffic import (
    HotspotKeys,
    OnlineEmulator,
    PoissonArrivals,
    UniformKeys,
    WorkloadGenerator,
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``BENCHMARK.json`` says why each workload exists; the fields below
    repeat what it records there, and the tests keep the two in step.
    ``seed`` is the seed used while developing a change against this
    workload; ``holdout_seed`` is kept unused until a claimed gain is
    confirmed on it.
    """

    name: str
    dominant_layer: str
    roadmap_item: str
    seed: int
    holdout_seed: int
    #: online workloads: PRAM steps (epochs) per pass and replica
    epochs: int = 0
    #: online workloads: independent stacks (own hash, own arrivals) per
    #: pass, so one seed's luck in placing hot cells is averaged out
    replicas: int = 1
    #: permutation workload: rounds of (star, shuffle, valiant) per pass
    rounds: int = 0
    online: dict = field(default_factory=dict)

    @property
    def is_online(self) -> bool:
        return bool(self.online)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mesh-erew-uniform",
            dominant_layer="routing.engine.batch",
            roadmap_item="1 (unit of measure), 5 (driver/packet build)",
            seed=1,
            holdout_seed=1001,
            epochs=100,
            online=dict(
                network="mesh", side=32, mode="erew", rate=0.6,
                read_fraction=1.0, keys="uniform",
            ),
        ),
        Workload(
            name="leveled-crcw-uniform",
            dominant_layer="routing.engine.batch",
            roadmap_item="1 (unit of measure), 4 (telemetry), 5 (driver/packet build)",
            seed=2,
            holdout_seed=1002,
            epochs=100,
            online=dict(
                network="leveled", d=2, levels=10, mode="crcw", rate=0.5,
                read_fraction=1.0, keys="uniform",
            ),
        ),
        Workload(
            name="mesh-crcw-credit-hotspot",
            dominant_layer="routing.engine.batch-constrained",
            roadmap_item="5 (constrained batch engine and its escape subphase)",
            seed=3,
            holdout_seed=1003,
            epochs=5,
            replicas=16,
            online=dict(
                network="mesh", side=32, mode="crcw", rate=0.5,
                read_fraction=0.5, keys="hotspot", node_capacity=2,
                flow_control="credit",
            ),
        ),
        Workload(
            name="sublog-permutations",
            dominant_layer="routing.router",
            roadmap_item="3 (delete the per-event loop without regression here)",
            seed=4,
            holdout_seed=1004,
            rounds=2,
        ),
    )
}


def _seeds(seed: int, salt: int, k: int) -> list[int]:
    """*k* independent 63-bit seeds derived from (seed, salt)."""
    state = np.random.SeedSequence([int(seed), salt]).generate_state(k, np.uint64)
    return [int(s) >> 1 for s in state]


# ---- online workloads ------------------------------------------------------


@dataclass
class OnlineStack:
    """Everything one online pass needs, built before timing starts."""

    #: (emulator, driver) per replica
    replicas: list
    diameter: int


def build_online(wl: Workload, seed: int, *, observer=None) -> OnlineStack:
    cfg = wl.online
    seeds = _seeds(seed, 1, 2 * wl.replicas)
    replicas = []
    for em_seed, wl_seed in zip(seeds[::2], seeds[1::2]):
        if cfg["network"] == "mesh":
            net = Mesh2D(cfg["side"], cfg["side"])
            compile_mesh(net)
            n = net.num_nodes
            diameter = net.diameter
            emulator = MeshEmulator(
                net,
                4 * n,
                mode=cfg["mode"],
                node_capacity=cfg.get("node_capacity"),
                flow_control=cfg.get("flow_control", "none"),
                seed=em_seed,
                validate=True,
                observer=observer,
            )
        else:
            net = DAryButterflyLeveled(cfg["d"], cfg["levels"])
            compile_leveled(net)
            n = net.column_size
            # A leveled network's diameter is its number of levels (the
            # paper's l): one PRAM step costs O(l) network steps.
            diameter = net.num_levels
            emulator = LeveledEmulator(
                net, 4 * n, mode=cfg["mode"], seed=em_seed, validate=True,
                observer=observer,
            )
        if cfg["keys"] == "uniform":
            keys = UniformKeys(4 * n)
        else:
            keys = HotspotKeys(4 * n, hot_addresses=8, hot_fraction=0.5)
        generator = WorkloadGenerator(
            n,
            arrivals=PoissonArrivals(cfg["rate"] * n),
            keys=keys,
            read_fraction=cfg["read_fraction"],
            seed=wl_seed,
        )
        replicas.append((emulator, OnlineEmulator(emulator, generator)))
    return OnlineStack(replicas, diameter)


@dataclass
class PassOutput:
    """What one pass reports before the run aggregates passes."""

    #: timed wall seconds (serving plus reading the telemetry)
    wall: float
    #: delivered units: PRAM requests (online) or routed packets
    delivered: int
    #: requests or packets the pass attempted
    attempted: int
    #: dropped + timed out + dead-lettered + conservation deficit
    lost: int
    #: host seconds per emulated PRAM step (online) or per permutation
    unit_wall: list[float]
    #: calibration kernel ms measured just before each unit
    unit_calib: list[float]
    #: network steps per unit of work / diameter, per unit
    slowdowns: list[float]
    #: arrival -> delivery network steps of every delivered request/packet
    sojourns: list[float]
    #: the online replicas' telemetry reports
    reports: list = field(default_factory=list)


def run_online(wl: Workload, stack: OnlineStack, probe) -> PassOutput:
    """Serve ``wl.epochs`` epochs per replica and read the telemetry, timed."""
    t0 = perf_counter()
    reports = []
    for _emulator, driver in stack.replicas:
        report = driver.run(wl.epochs)
        report.steady_state()
        report.to_dict()
        reports.append(report)
    wall = perf_counter() - t0 - probe.check_s
    return PassOutput(
        wall=wall,
        delivered=sum(r.total_delivered for r in reports),
        attempted=sum(r.total_arrivals for r in reports),
        lost=sum(
            r.total_dropped
            + r.total_timed_out
            + r.total_dead_lettered
            + abs(r.conservation_deficit())
            for r in reports
        ),
        unit_wall=list(probe.step_wall),
        unit_calib=list(probe.step_calib),
        slowdowns=[
            e.steps / stack.diameter for r in reports for e in r.epochs if e.admitted
        ],
        sojourns=[s for r in reports for s in r.sojourns],
        reports=reports,
    )


# ---- sub-logarithmic permutation routing ------------------------------------


@dataclass
class PermutationStack:
    star: StarGraph
    shuffle: DWayShuffle
    #: (kind, router-or-seed, permutation) in routing order
    jobs: list = field(default_factory=list)


def build_permutations(wl: Workload, seed: int) -> PermutationStack:
    star = StarGraph(7)
    shuffle = DWayShuffle.n_way(5)
    perm_seed, *router_seeds = _seeds(seed, 2, 1 + 3 * wl.rounds)
    rng = np.random.default_rng(perm_seed)
    jobs = []
    for r in range(wl.rounds):
        s_star, s_shuffle, s_valiant = router_seeds[3 * r : 3 * r + 3]
        jobs.append(
            ("star", StarRouter(star, seed=s_star), rng.permutation(star.num_nodes))
        )
        jobs.append(
            (
                "shuffle",
                ShuffleRouter(shuffle, seed=s_shuffle),
                rng.permutation(shuffle.num_nodes),
            )
        )
        jobs.append(("valiant", s_valiant, rng.permutation(shuffle.num_nodes)))
    return PermutationStack(star, shuffle, jobs)


def run_permutations(wl: Workload, stack: PermutationStack, probe) -> PassOutput:
    """Route every permutation of the pass; each route is timed alone."""
    unit_wall: list[float] = []
    unit_calib: list[float] = []
    slowdowns: list[float] = []
    sojourns: list[float] = []
    routed = 0
    for kind, router, perm in stack.jobs:
        probe.calibrate()
        t0 = perf_counter()
        if kind == "valiant":
            n = stack.shuffle.num_nodes
            stats = valiant.valiant_shuffle_route(
                stack.shuffle, np.arange(n), perm, seed=router
            )
        else:
            stats = router.route_permutation(perm)
        unit_wall.append(perf_counter() - t0)
        unit_calib.append(probe.calibrations[-1])
        probe.check_destinations()
        diameter = stack.star.diameter if kind == "star" else stack.shuffle.diameter
        slowdowns.append(stats.steps / diameter)
        sojourns.extend(h + d for h, d in zip(stats.hops, stats.delays))
        routed += len(perm)
    return PassOutput(
        wall=sum(unit_wall),
        delivered=routed,
        attempted=routed,
        lost=0,
        unit_wall=unit_wall,
        unit_calib=unit_calib,
        slowdowns=slowdowns,
        sojourns=sojourns,
    )


def build(wl: Workload, seed: int):
    return build_online(wl, seed) if wl.is_online else build_permutations(wl, seed)


def run_pass(wl: Workload, stack, probe) -> PassOutput:
    if wl.is_online:
        return run_online(wl, stack, probe)
    return run_permutations(wl, stack, probe)
