"""The vectorized constrained-batch mode (batch credit accounting).

Capacity-bounded runs on rectangular compiled trajectories used to fall
back to the fast engine's per-event loop; they now take a vectorized
batch mode that must stay bit-identical to the reference engine.  This
suite pins that contract:

* differential sweeps over (capacity, flow_control, topology) — mesh
  greedy and 3-stage (priority classes), leveled coin/node (wrap
  aliasing), linear arrays — including the hub-star and crossing-flow
  regressions;
* mode dispatch: ``engine="fast"`` on a capacity run must take the
  constrained *batch* path (``last_run_mode == "batch-constrained"``),
  never silently the per-event loop, for routers and emulators alike —
  ragged path lists included (they are padded); only
  ``node_service_rate`` runs still take the per-event loop;
* constrained-specific details: staggered injections, combining with
  credits, deadlock parity under ``flow_control="none"``.
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
)
from repro.topology import DAryButterflyLeveled, LinearArray, Mesh2D
from test_fast_engine import assert_stats_equal


def _routed_modes(monkeypatch):
    """Record FastPathEngine.last_run_mode for every run() call."""
    modes: list[str] = []
    orig = FastPathEngine.run

    def spy(self, *args, **kwargs):
        stats = orig(self, *args, **kwargs)
        modes.append(self.last_run_mode)
        return stats

    monkeypatch.setattr(FastPathEngine, "run", spy)
    return modes


class TestDispatch:
    """No silent per-event fallback for capacity runs."""

    def test_engine_reports_constrained_batch(self):
        engine = FastPathEngine(node_capacity=1)
        paths = [[s, 5, 6] for s in range(5)]
        engine.run(make_packets(range(5), [6] * 5), paths, num_nodes=7, max_steps=50)
        assert engine.last_run_mode == "batch-constrained"

    def test_engine_reports_batch_when_unconstrained(self):
        engine = FastPathEngine()
        paths = [[s, 5, 6] for s in range(5)]
        engine.run(make_packets(range(5), [6] * 5), paths, num_nodes=7, max_steps=50)
        assert engine.last_run_mode == "batch"

    def test_ragged_paths_pad_onto_constrained_batch(self):
        """Ragged path lists are padded (last node repeated), not sent to
        the per-event loop, and still match the reference engine."""
        paths = [[0, 2, 3], [1, 2, 3, 4], [4]]

        def route(p):
            row = paths[p.pid]
            return None if p.node == p.dest else row[row.index(p.node) + 1]

        engine = FastPathEngine(node_capacity=1)
        f = engine.run(
            make_packets([0, 1, 4], [3, 4, 4]), paths, num_nodes=5, max_steps=50
        )
        assert engine.last_run_mode == "batch-constrained"
        r = SynchronousEngine(node_capacity=1).run(
            make_packets([0, 1, 4], [3, 4, 4]), route, max_steps=50
        )
        assert_stats_equal(f, r)
        assert f.completed

    def test_service_rate_runs_dispatch_event(self):
        """``node_service_rate`` is the one model the batch modes lack."""
        engine = FastPathEngine(node_service_rate=1)
        paths = [[s, 5, 6] for s in range(5)]
        engine.run(make_packets(range(5), [6] * 5), paths, num_nodes=7, max_steps=50)
        assert engine.last_run_mode == "event"

    @pytest.mark.parametrize("flow", ["none", "credit"])
    def test_mesh_routers_take_constrained_batch(self, monkeypatch, flow):
        modes = _routed_modes(monkeypatch)
        mesh = Mesh2D.square(6)
        n = mesh.num_nodes
        dests = np.random.default_rng(0).permutation(n)
        MeshRouter(
            mesh, seed=1, node_capacity=3, flow_control=flow, engine="fast"
        ).route(np.arange(n), dests, max_steps=4000)
        GreedyMeshRouter(
            mesh, node_capacity=3, flow_control=flow, engine="fast"
        ).route(np.arange(n), dests, max_steps=4000)
        assert modes == ["batch-constrained", "batch-constrained"]

    @pytest.mark.parametrize("intermediate", ["coin", "node"])
    def test_leveled_router_takes_constrained_batch(self, monkeypatch, intermediate):
        modes = _routed_modes(monkeypatch)
        net = DAryButterflyLeveled(2, 4)
        LeveledRouter(
            net,
            intermediate=intermediate,
            seed=2,
            node_capacity=2,
            flow_control="credit",
            engine="fast",
        ).route_random_permutation(max_steps=4000)
        assert modes == ["batch-constrained"]

    def test_emulator_requests_take_constrained_batch(self, monkeypatch):
        modes = _routed_modes(monkeypatch)
        mesh = Mesh2D.square(4)
        n = mesh.num_nodes
        em = MeshEmulator(
            mesh,
            4 * n,
            mode="crcw",
            node_capacity=3,
            flow_control="credit",
            seed=3,
            engine="fast",
        )
        em.emulate_step(hotspot_step(n, 4 * n, hot_addresses=2, seed=4))
        # Request phase(s) constrained-batch; CRCW replies unconstrained.
        assert "batch-constrained" in modes
        assert "event" not in modes


class TestPinnedRegressions:
    """The named workloads from the backpressure/flow-control suites,
    re-pinned through the constrained-batch dispatch."""

    def test_hub_star(self):
        """Five sources through one capacity-1 hub: max_node_load == 1."""
        hub, sink = 5, 6
        paths = [[s, hub, sink] for s in range(5)]

        def route(p):
            if p.node == sink:
                return None
            return sink if p.node == hub else hub

        fast = FastPathEngine(node_capacity=1)
        f = fast.run(
            make_packets(range(5), [sink] * 5), paths, num_nodes=7, max_steps=100
        )
        assert fast.last_run_mode == "batch-constrained"
        r = SynchronousEngine(node_capacity=1).run(
            make_packets(range(5), [sink] * 5), route, max_steps=100
        )
        assert_stats_equal(f, r)
        assert f.completed and f.max_node_load == 1

    def test_crossing_flow(self):
        """The canonical wedge: deadlock under "none", completes under
        "credit" via the escape channel, identically in both engines."""
        paths = [[1, 2, 3], [2, 1, 0]]

        def route(p):
            row = paths[p.pid]
            return None if p.node == p.dest else row[row.index(p.node) + 1]

        with pytest.raises(DeadlockError) as fast_exc:
            FastPathEngine(node_capacity=1).run(
                make_packets([1, 2], [3, 0]), paths, num_nodes=4, max_steps=10**9
            )
        with pytest.raises(DeadlockError) as ref_exc:
            SynchronousEngine(node_capacity=1).run(
                make_packets([1, 2], [3, 0]), route, max_steps=10**9
            )
        assert_stats_equal(fast_exc.value.stats, ref_exc.value.stats)
        assert fast_exc.value.stats.steps == 0  # detected immediately

        engine = FastPathEngine(node_capacity=1, flow_control="credit")
        f = engine.run(
            make_packets([1, 2], [3, 0]), paths, num_nodes=4, max_steps=100
        )
        assert engine.last_run_mode == "batch-constrained"
        r = SynchronousEngine(node_capacity=1, flow_control="credit").run(
            make_packets([1, 2], [3, 0]), route, max_steps=100
        )
        assert_stats_equal(f, r)
        assert f.completed and f.max_node_load <= 1 and f.escape_hops >= 1


class TestCyclicRoutesWithCredit:
    """Routes that are not rank-monotone void invariant I3; whatever
    happens (completion or a detected wedge), both engines must agree
    exactly — including inside the constrained-batch mode."""

    PATHS = [
        [0, 1, 2, 0, 1],
        [1, 2, 0, 1, 2],
        [2, 0, 1, 2, 0],
    ]

    def _route(self, p):
        path = self.PATHS[p.pid]
        k = p.state = (p.state or 0) + 1
        return path[k] if k < len(path) else None

    def _packets(self):
        return make_packets([p[0] for p in self.PATHS], [p[-1] for p in self.PATHS])

    def test_engines_agree(self):
        fast_engine = FastPathEngine(node_capacity=1, flow_control="credit")
        ref_engine = SynchronousEngine(node_capacity=1, flow_control="credit")
        try:
            f = fast_engine.run(
                self._packets(), self.PATHS, num_nodes=3, max_steps=500
            )
            fast_deadlocked = False
        except DeadlockError as exc:
            f = exc.stats
            fast_deadlocked = True
        assert fast_engine.last_run_mode == "batch-constrained"
        try:
            r = ref_engine.run(self._packets(), self._route, max_steps=500)
            ref_deadlocked = False
        except DeadlockError as exc:
            r = exc.stats
            ref_deadlocked = True
        assert fast_deadlocked == ref_deadlocked
        assert_stats_equal(f, r)


def _sweep(make_router, sources, dests, max_steps=20_000):
    runs = [
        make_router(eng).route(sources, dests, max_steps=max_steps)
        for eng in ("fast", "reference")
    ]
    assert_stats_equal(*runs)
    return runs[0]


class TestDifferentialSweep:
    """(capacity, flow_control, topology) grid: field-for-field engine
    agreement plus the capacity invariant on completed runs."""

    @pytest.mark.parametrize("cap", [1, 2, 4])
    @pytest.mark.parametrize("flow", ["none", "credit"])
    def test_linear_hubs(self, cap, flow):
        rng = np.random.default_rng(cap * 7 + len(flow))
        arr = LinearArray(20)
        dests = rng.choice(rng.choice(arr.n, size=2, replace=False), size=arr.n)

        def make(eng):
            return GreedyRouter(
                arr, node_capacity=cap, flow_control=flow, engine=eng
            )

        try:
            stats = _sweep(make, np.arange(arr.n), dests)
        except DeadlockError:
            # "none" may wedge: both engines must agree on that too.
            with pytest.raises(DeadlockError) as fast_exc:
                make("fast").route(np.arange(arr.n), dests, max_steps=20_000)
            with pytest.raises(DeadlockError) as ref_exc:
                make("reference").route(np.arange(arr.n), dests, max_steps=20_000)
            assert_stats_equal(fast_exc.value.stats, ref_exc.value.stats)
            return
        assert stats.completed
        assert stats.max_node_load <= cap

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("cap", [2, 3])
    @pytest.mark.parametrize("flow", ["none", "credit"])
    def test_greedy_mesh_many_to_few(self, seed, cap, flow):
        rng = np.random.default_rng(seed)
        mesh = Mesh2D.square(7)
        n = mesh.num_nodes
        dests = rng.choice(rng.choice(n, size=6, replace=False), size=n)

        def make(eng):
            return GreedyMeshRouter(
                mesh, node_capacity=cap, flow_control=flow, engine=eng
            )

        try:
            stats = _sweep(make, np.arange(n), dests)
        except DeadlockError:
            with pytest.raises(DeadlockError) as fast_exc:
                make("fast").route(np.arange(n), dests, max_steps=20_000)
            with pytest.raises(DeadlockError) as ref_exc:
                make("reference").route(np.arange(n), dests, max_steps=20_000)
            assert_stats_equal(fast_exc.value.stats, ref_exc.value.stats)
            return
        assert stats.completed
        assert stats.max_node_load <= cap

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("cap", [2, 4])
    def test_three_stage_priority_classes(self, seed, cap):
        """Furthest-first arbitration + credits: the multi-class virtual
        link machinery under the constrained transmission phase."""
        rng = np.random.default_rng(seed + 50)
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        dests = rng.choice(rng.choice(n, size=5, replace=False), size=n)

        def make(eng):
            return MeshRouter(
                mesh,
                seed=seed,
                node_capacity=cap,
                flow_control="credit",
                engine=eng,
            )

        stats = _sweep(make, np.arange(n), dests)
        assert stats.completed
        assert stats.max_node_load <= cap

    @pytest.mark.parametrize("intermediate", ["coin", "node"])
    @pytest.mark.parametrize("cap", [1, 2])
    def test_leveled_wrap_aliasing(self, intermediate, cap):
        """(pass, level) rank-monotone routes with the wrap identified:
        capacity accounting must see one physical node per alias pair."""
        net = DAryButterflyLeveled(2, 5)
        n = net.column_size
        rng = np.random.default_rng(9)
        dests = rng.integers(4, size=n)

        def make(eng):
            return LeveledRouter(
                net,
                intermediate=intermediate,
                seed=31,
                node_capacity=cap,
                flow_control="credit",
                engine=eng,
            )

        stats = _sweep(make, np.arange(n), dests)
        assert stats.completed
        assert stats.max_node_load <= cap
        assert stats.escape_hops > 0  # tight caps exercise the channel

    def test_combining_with_credits(self):
        """CRCW combining + capacity: escape landings bypass combining,
        pops release combine residency, identically in both engines."""
        rng = np.random.default_rng(17)
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        addresses = rng.integers(5, size=n)
        dests = (addresses * 11) % n
        runs = []
        for eng in ("fast", "reference"):
            router = MeshRouter(
                mesh,
                seed=23,
                combine=True,
                node_capacity=2,
                flow_control="credit",
                engine=eng,
            )
            pkts = make_packets(
                list(range(n)), dests.tolist(), addresses=addresses.tolist()
            )
            runs.append(router.route(None, None, packets=pkts, max_steps=20_000))
        assert_stats_equal(*runs)
        assert runs[0].completed
        assert runs[0].combines > 0

    def test_staggered_injections(self):
        """Later injections enter mid-run (outside the credit protocol,
        invariant I1) and must interleave identically."""
        arr = LinearArray(12)

        def nh(p):
            return None if p.node == p.dest else arr.route_next(p.node, p.dest)

        def packets():
            pkts = make_packets([0, 0, 11, 4], [11, 11, 0, 9])
            pkts[1].injected_at = 3
            pkts[2].injected_at = 5
            return pkts

        fast_engine = FastPathEngine(node_capacity=1, flow_control="credit")
        paths = [
            list(range(0, 12)),
            list(range(0, 12)),
            list(range(11, -1, -1)),
            list(range(4, 10)),
        ]
        lengths = [len(p) - 1 for p in paths]
        width = max(lengths) + 1
        padded = np.asarray(
            [p + [p[-1]] * (width - len(p)) for p in paths], dtype=np.int64
        )
        f = fast_engine.run(
            packets(),
            padded,
            num_nodes=12,
            max_steps=1000,
            path_lengths=lengths,
        )
        assert fast_engine.last_run_mode == "batch-constrained"
        r = SynchronousEngine(node_capacity=1, flow_control="credit").run(
            packets(), nh, max_steps=1000
        )
        assert_stats_equal(f, r)
        assert f.completed

    def test_two_tuple_links_derive_dst_from_traversed_positions(self):
        """``links=(mat, src)`` pairs make the engine derive link_dst
        itself; padded self-loop columns alias *real* arithmetic link
        ids on the mesh and must not clobber their targets."""
        from repro.topology.compiled import compile_mesh

        mesh = Mesh2D.square(6)
        compiled = compile_mesh(mesh)
        n = mesh.num_nodes
        rng = np.random.default_rng(3)
        dests = rng.choice(rng.choice(n, size=3, replace=False), size=n)
        plan = compiled.three_stage(list(range(n)), dests.tolist())
        engine = FastPathEngine(node_capacity=2, flow_control="credit")
        f = engine.run(
            make_packets(list(range(n)), dests.tolist()),
            plan.ids,
            num_nodes=n,
            max_steps=8000,
            path_lengths=plan.lengths,
            links=(compiled.link_matrix(plan.ids), compiled.link_arrays()[0]),
        )
        assert engine.last_run_mode == "batch-constrained"
        r = GreedyMeshRouter(
            mesh, node_capacity=2, flow_control="credit", engine="reference"
        ).route(np.arange(n), dests, max_steps=8000)
        assert_stats_equal(f, r)
        assert f.completed

    def test_emulator_step_costs_match(self):
        """End-to-end: CRCW leveled emulation with credits, constrained
        requests + unconstrained reply fan-out, equal step costs."""
        net = DAryButterflyLeveled(2, 4)
        n = net.column_size
        space = 4 * n
        steps = [
            hotspot_step(n, space, hot_addresses=3, hot_fraction=0.5, seed=41),
            permutation_step(n, space, seed=42),
        ]
        costs = []
        for eng in ("fast", "reference"):
            em = LeveledEmulator(
                net,
                space,
                mode="crcw",
                node_capacity=2,
                flow_control="credit",
                seed=13,
                engine=eng,
            )
            costs.append([em.emulate_step(s) for s in steps])
        for a, b in zip(*costs):
            assert (a.request_steps, a.reply_steps, a.combines, a.max_queue) == (
                b.request_steps,
                b.reply_steps,
                b.combines,
                b.max_queue,
            )
