"""Credit-based flow control + deadlock detector (Corollary 3.3).

Pins the contract of :mod:`repro.routing.flow_control` in both engines:

* a pinned crossing-flow configuration that *deadlocks* under plain
  backpressure (``flow_control="none"`` raises :class:`DeadlockError`)
  *completes* under the credit/escape protocol, with
  ``max_node_load <= node_capacity`` intact;
* the deadlock detector reports a no-progress step immediately (never
  spinning to ``max_steps``) and attaches the run's stats;
* fast and reference engines stay bit-for-bit identical with credits
  enabled — stats, counters, and per-packet delay/hop lists — across
  mesh, linear-array, leveled, and emulator workloads;
* the new ``credits_stalled`` / ``escape_hops`` counters behave.
"""

import numpy as np
import pytest

from repro.emulation.leveled import LeveledEmulator
from repro.emulation.mesh import MeshEmulator
from repro.pram.trace import hotspot_step, permutation_step
from repro.routing import (
    DeadlockError,
    FastPathEngine,
    GreedyMeshRouter,
    GreedyRouter,
    LeveledRouter,
    MeshRouter,
    SynchronousEngine,
    make_packets,
    random_linear_instance,
    route_linear,
)
from repro.topology import DAryButterflyLeveled, LinearArray, Mesh2D
from test_fast_engine import assert_stats_equal

# Two packets crossing on a line with capacity-1 nodes: the canonical
# wedge.  p0 (1 -> 3, eastbound) waits on node 2, held full by p1
# (2 -> 0, westbound), which waits on node 1, held full by p0.
CROSS_PATHS = [[1, 2, 3], [2, 1, 0]]


def _crossing_packets():
    return make_packets([p[0] for p in CROSS_PATHS], [p[-1] for p in CROSS_PATHS])


def _crossing_next_hop(p):
    path = CROSS_PATHS[p.pid]
    if p.node == p.dest:
        return None
    return path[path.index(p.node) + 1]


class TestPinnedCrossingFlow:
    """The wedge deadlocks under "none" and completes under "credit"."""

    def test_reference_none_deadlocks(self):
        engine = SynchronousEngine(node_capacity=1)
        with pytest.raises(DeadlockError) as exc:
            engine.run(_crossing_packets(), _crossing_next_hop, max_steps=10**9)
        stats = exc.value.stats
        assert not stats.completed
        assert stats.steps == 0  # detected on the very first wedged step
        assert "deadlock" in str(exc.value)

    def test_fast_none_deadlocks(self):
        engine = FastPathEngine(node_capacity=1)
        with pytest.raises(DeadlockError) as exc:
            engine.run(_crossing_packets(), CROSS_PATHS, num_nodes=4, max_steps=10**9)
        assert not exc.value.stats.completed
        assert exc.value.stats.steps == 0

    def test_none_engines_agree_on_the_wedge(self):
        with pytest.raises(DeadlockError) as ref:
            SynchronousEngine(node_capacity=1).run(
                _crossing_packets(), _crossing_next_hop, max_steps=100
            )
        with pytest.raises(DeadlockError) as fast:
            FastPathEngine(node_capacity=1).run(
                _crossing_packets(), CROSS_PATHS, num_nodes=4, max_steps=100
            )
        assert_stats_equal(fast.value.stats, ref.value.stats)

    def test_reference_credit_completes(self):
        engine = SynchronousEngine(node_capacity=1, flow_control="credit")
        stats = engine.run(
            _crossing_packets(), _crossing_next_hop, max_steps=100
        )
        assert stats.completed
        assert stats.max_node_load <= 1
        assert stats.escape_hops >= 1  # the wedge is broken via escape

    def test_fast_credit_completes(self):
        engine = FastPathEngine(node_capacity=1, flow_control="credit")
        stats = engine.run(
            _crossing_packets(), CROSS_PATHS, num_nodes=4, max_steps=100
        )
        assert stats.completed
        assert stats.max_node_load <= 1
        assert stats.escape_hops >= 1

    def test_credit_engines_agree_exactly(self):
        ref = SynchronousEngine(node_capacity=1, flow_control="credit").run(
            _crossing_packets(), _crossing_next_hop, max_steps=100
        )
        fast = FastPathEngine(node_capacity=1, flow_control="credit").run(
            _crossing_packets(), CROSS_PATHS, num_nodes=4, max_steps=100
        )
        assert_stats_equal(fast, ref)

    def test_greedy_router_end_to_end(self):
        """Same wedge through the router API on a real linear array."""
        arr = LinearArray(4)
        with pytest.raises(DeadlockError):
            GreedyRouter(arr, node_capacity=1, engine="fast").route(
                [1, 2], [3, 0], max_steps=1000
            )
        stats_by_engine = [
            GreedyRouter(
                arr, node_capacity=1, flow_control="credit", engine=eng
            ).route([1, 2], [3, 0], max_steps=1000)
            for eng in ("fast", "reference")
        ]
        assert_stats_equal(*stats_by_engine)
        assert stats_by_engine[0].completed
        assert stats_by_engine[0].max_node_load <= 1


class TestDeadlockDetector:
    def test_detects_promptly_not_at_max_steps(self):
        """A huge budget must not be consumed: the no-progress step is
        reported the moment it happens."""
        rng = np.random.default_rng(1)
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        dests = rng.choice(rng.choice(n, size=4, replace=False), size=n)
        with pytest.raises(DeadlockError) as exc:
            GreedyMeshRouter(mesh, node_capacity=2, engine="fast").route(
                np.arange(n), dests, max_steps=10**9
            )
        assert exc.value.stats.steps < 200
        assert "no progress" in str(exc.value)

    def test_stats_attached_with_packet_writeback(self):
        pkts = _crossing_packets()
        with pytest.raises(DeadlockError) as exc:
            FastPathEngine(node_capacity=1).run(
                pkts, CROSS_PATHS, num_nodes=4, max_steps=100
            )
        assert exc.value.stats.delivered == 0
        # Both packets were written back at their wedged positions.
        assert [p.node for p in pkts] == [1, 2]

    def test_injection_gaps_are_not_deadlocks(self):
        """Steps that move nothing while injections are still pending
        must not trip the detector."""
        pkts = make_packets([0, 0], [3, 3])
        pkts[1].injected_at = 5
        arr = LinearArray(4)

        def nh(p):
            return None if p.node == p.dest else arr.route_next(p.node, p.dest)

        stats = SynchronousEngine(node_capacity=1, flow_control="credit").run(
            pkts, nh, max_steps=100
        )
        assert stats.completed


class TestCreditDifferentialSweep:
    """Random workloads with credits: completion, the capacity invariant,
    and field-for-field engine agreement."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cap", [1, 2])
    def test_linear_two_hubs_tight_caps(self, seed, cap):
        rng = np.random.default_rng(seed)
        arr = LinearArray(24)
        hubs = rng.choice(arr.n, size=2, replace=False)
        dests = rng.choice(hubs, size=arr.n)
        runs = [
            GreedyRouter(
                arr, node_capacity=cap, flow_control="credit", engine=eng
            ).route(np.arange(arr.n), dests, max_steps=8000)
            for eng in ("fast", "reference")
        ]
        assert_stats_equal(*runs)
        assert runs[0].completed
        assert runs[0].max_node_load <= cap

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cap", [2, 4])
    def test_three_stage_mesh_priority_queues(self, seed, cap):
        """Furthest-first heaps + credits: the packed-int heap path."""
        rng = np.random.default_rng(seed)
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        dests = rng.choice(rng.choice(n, size=4, replace=False), size=n)
        runs = [
            MeshRouter(
                mesh,
                seed=seed,
                node_capacity=cap,
                flow_control="credit",
                engine=eng,
            ).route(np.arange(n), dests, max_steps=8000)
            for eng in ("fast", "reference")
        ]
        assert_stats_equal(*runs)
        assert runs[0].completed
        assert runs[0].max_node_load <= cap

    def test_crcw_combining_with_credits(self):
        """combine=True + capacity + credit: escape landings bypass
        combining identically in both engines."""
        rng = np.random.default_rng(7)
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        addresses = rng.integers(6, size=n)
        dests = (addresses * 7) % n
        runs = []
        for eng in ("fast", "reference"):
            router = MeshRouter(
                mesh,
                seed=13,
                combine=True,
                node_capacity=3,
                flow_control="credit",
                engine=eng,
            )
            pkts = make_packets(
                list(range(n)), dests.tolist(), addresses=addresses.tolist()
            )
            runs.append(router.route(None, None, packets=pkts, max_steps=8000))
        assert_stats_equal(*runs)
        assert runs[0].completed
        assert runs[0].combines > 0

    def test_counters_zero_without_credit(self):
        mesh = Mesh2D.square(8)
        stats = MeshRouter(mesh, seed=3, node_capacity=8).route_random_permutation()
        assert stats.credits_stalled == 0
        assert stats.escape_hops == 0

    def test_congestion_populates_counters(self):
        rng = np.random.default_rng(2)
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        hub = int(rng.integers(n))
        stats = GreedyMeshRouter(
            mesh, node_capacity=1, flow_control="credit", engine="fast"
        ).route(np.arange(n), [hub] * n, max_steps=8000)
        assert stats.completed
        assert stats.credits_stalled > 0
        assert stats.escape_hops > 0


class TestLeveledCredit:
    """Capacity + credits on leveled networks: the (pass, level) order is
    rank-monotone, and the wrap node's two key aliases must account
    capacity identically in both engines."""

    @pytest.mark.parametrize("intermediate", ["coin", "node"])
    @pytest.mark.parametrize("cap", [1, 2])
    def test_hotspot_h_relation_matches(self, intermediate, cap):
        net = DAryButterflyLeveled(2, 4)
        n = net.column_size
        rng = np.random.default_rng(3)
        dests = rng.integers(4, size=n)  # heavy collisions, no combining
        runs = [
            LeveledRouter(
                net,
                intermediate=intermediate,
                seed=21,
                node_capacity=cap,
                flow_control="credit",
                engine=eng,
            ).route(np.arange(n), dests, max_steps=4000)
            for eng in ("fast", "reference")
        ]
        assert_stats_equal(*runs)
        assert runs[0].completed
        assert runs[0].max_node_load <= cap

    def test_permutation_matches_under_plain_capacity(self):
        """flow_control="none" + capacity also agrees (the exit/wrap
        aliasing is exercised without the escape channel)."""
        net = DAryButterflyLeveled(2, 5)
        perm = np.random.default_rng(5).permutation(net.column_size)
        runs = [
            LeveledRouter(
                net, seed=9, node_capacity=2, engine=eng
            ).route_permutation(perm, max_steps=4000)
            for eng in ("fast", "reference")
        ]
        assert_stats_equal(*runs)
        assert runs[0].completed
        assert runs[0].max_node_load <= 2


class TestEmulatorsWithCredit:
    def test_mesh_emulator_step_costs_match(self):
        mesh = Mesh2D.square(6)
        n = mesh.num_nodes
        space = 4 * n
        steps = [
            permutation_step(n, space, seed=11),
            permutation_step(n, space, seed=12, kind="write"),
        ]
        costs = []
        for eng in ("fast", "reference"):
            em = MeshEmulator(
                mesh,
                space,
                mode="erew",
                node_capacity=3,
                flow_control="credit",
                seed=5,
                engine=eng,
            )
            costs.append([em.emulate_step(s) for s in steps])
        for a, b in zip(*costs):
            assert (a.request_steps, a.reply_steps, a.rehashes, a.max_queue) == (
                b.request_steps,
                b.reply_steps,
                b.rehashes,
                b.max_queue,
            )

    def test_leveled_emulator_step_costs_match(self):
        net = DAryButterflyLeveled(2, 4)
        n = net.column_size
        space = 4 * n
        step = hotspot_step(n, space, hot_addresses=3, hot_fraction=0.5, seed=8)
        costs = []
        for eng in ("fast", "reference"):
            em = LeveledEmulator(
                net,
                space,
                mode="crcw",
                node_capacity=2,
                flow_control="credit",
                seed=6,
                engine=eng,
            )
            costs.append(em.emulate_step(step))
        a, b = costs
        assert (a.request_steps, a.reply_steps, a.combines, a.rehashes) == (
            b.request_steps,
            b.reply_steps,
            b.combines,
            b.rehashes,
        )


class TestRouteLinearEngines:
    """route_linear grew engine plumbing (the last always-reference row
    of the coverage matrix)."""

    @pytest.mark.parametrize("discipline", ["furthest_first", "fifo"])
    def test_differential(self, discipline):
        origins, dests = random_linear_instance(40, 80, seed=3)
        fast = route_linear(40, origins, dests, discipline=discipline, engine="fast")
        ref = route_linear(
            40, origins, dests, discipline=discipline, engine="reference"
        )
        assert fast.completed
        assert_stats_equal(fast, ref)

    def test_auto_resolves(self):
        stats = route_linear(10, [0, 9], [9, 0])
        assert stats.completed

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError):
            route_linear(10, [0], [5], engine="warp")


class TestValidation:
    def test_credit_requires_capacity(self):
        with pytest.raises(ValueError, match="node_capacity"):
            SynchronousEngine(flow_control="credit")
        with pytest.raises(ValueError, match="node_capacity"):
            FastPathEngine(flow_control="credit")

    def test_credit_rejects_service_rate(self):
        with pytest.raises(ValueError, match="service_rate"):
            SynchronousEngine(
                node_capacity=1, node_service_rate=1, flow_control="credit"
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="flow_control"):
            SynchronousEngine(flow_control="window")

    def test_router_validates_eagerly(self):
        with pytest.raises(ValueError):
            GreedyMeshRouter(Mesh2D.square(4), flow_control="credit")
        with pytest.raises(ValueError):
            LeveledRouter(DAryButterflyLeveled(2, 3), flow_control="magic")

    def test_emulator_validates_eagerly(self):
        with pytest.raises(ValueError):
            MeshEmulator(Mesh2D.square(4), 16, flow_control="credit")
        with pytest.raises(ValueError):
            LeveledEmulator(DAryButterflyLeveled(2, 3), 16, flow_control="credit")

    @pytest.mark.parametrize("engine_cls", [SynchronousEngine, FastPathEngine])
    @pytest.mark.parametrize("flow", ["none", "credit"])
    def test_zero_capacity_rejected_at_construction(self, engine_cls, flow):
        # Used to be accepted: "none" then raised a DeadlockError at t=1
        # and "credit" reported a completed run.
        with pytest.raises(ValueError, match="node_capacity must be >= 1"):
            engine_cls(node_capacity=0, flow_control=flow)

    @pytest.mark.parametrize("engine_cls", [SynchronousEngine, FastPathEngine])
    def test_zero_service_rate_rejected_at_construction(self, engine_cls):
        with pytest.raises(ValueError, match="node_service_rate must be >= 1"):
            engine_cls(node_service_rate=0)

    def test_routers_and_emulators_reject_zero_capacity(self):
        with pytest.raises(ValueError, match="node_capacity"):
            GreedyMeshRouter(Mesh2D.square(4), node_capacity=0)
        with pytest.raises(ValueError, match="node_capacity"):
            LeveledRouter(DAryButterflyLeveled(2, 3), node_capacity=0)
        with pytest.raises(ValueError, match="node_capacity"):
            MeshEmulator(Mesh2D.square(4), 16, node_capacity=0)
