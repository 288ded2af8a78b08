"""Differential tests: the compiled fast path vs. the reference engine.

The fast engine's contract is *exact* equivalence: under a fixed seed it
must produce the same RoutingStats — steps, delivered, max_queue,
combines, max_node_load, and the per-packet delay/hop lists — as the
readable reference engine, on every supported network family and router
configuration.  These tests pin that contract on star, shuffle, and
butterfly networks (logical leveled views and physical routers), for
both phase-1 flavors, with and without CRCW combining, and through the
full emulation pipeline including reply fan-out.
"""

import numpy as np
import pytest

from repro.emulation.leveled import LeveledEmulator
from repro.emulation.mesh import MeshEmulator
from repro.pram.trace import h_relation_step, hotspot_step, permutation_step
from repro.routing import (
    FastPathEngine,
    GreedyMeshRouter,
    GreedyRouter,
    LeveledRouter,
    MeshRouter,
    ShuffleRouter,
    StarRouter,
    ValiantHypercubeRouter,
    resolve_engine_mode,
    valiant_shuffle_route,
)
from repro.routing.fast_engine import ENGINE_ENV_VAR
from repro.routing.packet import make_packets
from repro.topology import (
    DAryButterflyLeveled,
    DWayShuffle,
    Hypercube,
    LinearArray,
    Mesh2D,
    ShuffleLeveled,
    StarGraph,
    StarLogicalLeveled,
    compile_leveled,
)

STAT_FIELDS = (
    "steps",
    "delivered",
    "total_packets",
    "max_queue",
    "completed",
    "combines",
    "max_node_load",
    "credits_stalled",
    "escape_hops",
    "fault_stalls",
)


def assert_stats_equal(fast, ref):
    for field in STAT_FIELDS:
        assert getattr(fast, field) == getattr(ref, field), field
    assert fast.delays == ref.delays
    assert fast.hops == ref.hops


def leveled_nets():
    return [
        DAryButterflyLeveled(2, 6),
        DAryButterflyLeveled(3, 4),
        ShuffleLeveled(3, 4),
        StarLogicalLeveled(5),
    ]


class TestLeveledDifferential:
    @pytest.mark.parametrize("net", leveled_nets(), ids=lambda n: repr(n))
    @pytest.mark.parametrize("intermediate", ["coin", "node"])
    def test_permutation_matches(self, net, intermediate):
        perm = np.random.default_rng(7).permutation(net.column_size)
        fast = LeveledRouter(
            net, intermediate=intermediate, seed=42, engine="fast"
        ).route_permutation(perm)
        ref = LeveledRouter(
            net, intermediate=intermediate, seed=42, engine="reference"
        ).route_permutation(perm)
        assert fast.completed
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("net", leveled_nets(), ids=lambda n: repr(n))
    def test_crcw_combining_matches(self, net):
        """Hotspot traffic with combining: counts and queues must agree."""
        n = net.column_size
        rng = np.random.default_rng(5)
        sources = np.arange(n)
        addresses = rng.integers(8, size=n)  # few addresses -> heavy combining
        dests = addresses % n
        kwargs = dict(combine=True, track_paths=True, seed=9)
        fast = LeveledRouter(net, engine="fast", **kwargs).route(
            sources, dests, addresses=addresses
        )
        ref = LeveledRouter(net, engine="reference", **kwargs).route(
            sources, dests, addresses=addresses
        )
        assert fast.combines > 0
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("net", leveled_nets(), ids=lambda n: repr(n))
    def test_traces_match(self, net):
        """track_paths: every packet's recorded trace must be identical."""
        n = net.column_size
        perm = np.random.default_rng(3).permutation(n)
        pf = make_packets([(0, 0, int(s)) for s in range(n)], perm.tolist())
        pr = make_packets([(0, 0, int(s)) for s in range(n)], perm.tolist())
        LeveledRouter(net, seed=1, track_paths=True, engine="fast").route_packets(pf)
        LeveledRouter(net, seed=1, track_paths=True, engine="reference").route_packets(pr)
        for a, b in zip(pf, pr):
            assert a.trace == b.trace
            assert a.node == b.node

    def test_timeout_matches(self):
        net = DAryButterflyLeveled(2, 6)
        perm = np.random.default_rng(11).permutation(net.column_size)
        budget = 2 * net.num_levels + 1  # too tight: some packets miss it
        fast = LeveledRouter(net, seed=2, engine="fast").route_permutation(
            perm, max_steps=budget
        )
        ref = LeveledRouter(net, seed=2, engine="reference").route_permutation(
            perm, max_steps=budget
        )
        assert not fast.completed
        assert_stats_equal(fast, ref)

    def test_restarts_match(self):
        net = DAryButterflyLeveled(2, 6)
        perm = np.random.default_rng(4).permutation(net.column_size)
        args = (np.arange(net.column_size), perm)
        sf, rf = LeveledRouter(net, seed=3, engine="fast").route_with_restarts(
            *args, allotment=2 * net.num_levels + 1
        )
        sr, rr = LeveledRouter(net, seed=3, engine="reference").route_with_restarts(
            *args, allotment=2 * net.num_levels + 1
        )
        assert rf == rr
        assert sf.steps == sr.steps
        assert sorted(sf.hops) == sorted(sr.hops)


class TestPhysicalRouterDifferential:
    def test_star_permutation_matches(self):
        star = StarGraph(5)
        perm = np.random.default_rng(1).permutation(star.num_nodes)
        fast = StarRouter(star, seed=8, engine="fast").route_permutation(perm)
        ref = StarRouter(star, seed=8, engine="reference").route_permutation(perm)
        assert fast.completed
        assert_stats_equal(fast, ref)

    def test_star_nonrandomized_matches(self):
        star = StarGraph(4)
        perm = np.random.default_rng(2).permutation(star.num_nodes)
        fast = StarRouter(star, randomized=False, engine="fast").route_permutation(perm)
        ref = StarRouter(star, randomized=False, engine="reference").route_permutation(
            perm
        )
        assert_stats_equal(fast, ref)

    def test_shuffle_permutation_matches(self):
        sh = DWayShuffle(3, 4)
        perm = np.random.default_rng(3).permutation(sh.num_nodes)
        fast = ShuffleRouter(sh, seed=6, engine="fast").route_permutation(perm)
        ref = ShuffleRouter(sh, seed=6, engine="reference").route_permutation(perm)
        assert fast.completed
        assert_stats_equal(fast, ref)

    def test_shuffle_n_relation_matches(self):
        sh = DWayShuffle(3, 3)
        fast = ShuffleRouter(sh, seed=13, engine="fast").route_n_relation(h=3)
        ref = ShuffleRouter(sh, seed=13, engine="reference").route_n_relation(h=3)
        assert_stats_equal(fast, ref)

    def test_delayed_injection_matches(self):
        from repro.routing import SynchronousEngine

        paths = [[0, 1, 2], [1, 2, 3]]

        def mk():
            pkts = make_packets([0, 1], [2, 3])
            pkts[1].injected_at = 3
            return pkts

        pf = mk()
        sf = FastPathEngine().run(pf, paths, num_nodes=4, max_steps=20)
        pr = mk()
        walkers = {p.pid: iter(path[1:]) for p, path in zip(pr, paths)}
        sr = SynchronousEngine().run(
            pr, lambda p: next(walkers[p.pid], None), max_steps=20
        )
        assert_stats_equal(sf, sr)
        assert pf[1].arrived_at == pr[1].arrived_at == 5


class TestMeshStackDifferential:
    """The §3.3–3.4 mesh stack: routers and emulator, both engines."""

    @pytest.mark.parametrize("discipline", ["furthest_first", "fifo"])
    @pytest.mark.parametrize("capacity", [None, 4])
    def test_mesh_router_permutation_matches(self, discipline, capacity):
        mesh = Mesh2D.square(10)
        perm = np.random.default_rng(2).permutation(mesh.num_nodes)

        def run(engine):
            return MeshRouter(
                mesh,
                seed=11,
                discipline=discipline,
                node_capacity=capacity,
                engine=engine,
            ).route_permutation(perm)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert_stats_equal(fast, ref)

    def test_mesh_router_many_one_matches(self):
        mesh = Mesh2D.square(9)
        rng = np.random.default_rng(4)
        dests = rng.integers(0, mesh.num_nodes, size=mesh.num_nodes)

        def run(engine):
            return MeshRouter(mesh, seed=7, engine=engine).route(
                np.arange(mesh.num_nodes), dests, max_steps=5000
            )

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert_stats_equal(fast, ref)

    def test_mesh_router_traces_match(self):
        mesh = Mesh2D.square(6)
        perm = np.random.default_rng(6).permutation(mesh.num_nodes)

        def run(engine):
            router = MeshRouter(mesh, seed=3, track_paths=True, engine=engine)
            pkts = make_packets(list(range(mesh.num_nodes)), perm.tolist())
            router.route(None, None, packets=pkts)
            return pkts

        for a, b in zip(run("fast"), run("reference")):
            assert a.trace == b.trace
            assert a.node == b.node

    def test_mesh_router_timeout_matches(self):
        mesh = Mesh2D.square(10)
        perm = np.random.default_rng(9).permutation(mesh.num_nodes)
        budget = 6  # below the diameter: many packets miss it

        def run(engine):
            return MeshRouter(mesh, seed=5, engine=engine).route_permutation(
                perm, max_steps=budget
            )

        fast, ref = run("fast"), run("reference")
        assert not fast.completed
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("capacity", [None, 3])
    def test_greedy_mesh_matches(self, capacity):
        mesh = Mesh2D.square(9)
        rng = np.random.default_rng(8)
        dests = rng.integers(0, mesh.num_nodes, size=mesh.num_nodes)

        def run(engine):
            return GreedyMeshRouter(
                mesh, node_capacity=capacity, engine=engine
            ).route(np.arange(mesh.num_nodes), dests)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize(
        "topology",
        [
            Mesh2D.square(7),
            LinearArray(40),
            Hypercube(6),
            StarGraph(4),
            DWayShuffle(3, 3),
        ],
        ids=lambda t: type(t).__name__,
    )
    def test_greedy_router_matches(self, topology):
        """GreedyRouter fast paths: vectorized builders for mesh, linear
        array, hypercube and star; a padded route_next walk otherwise."""
        rng = np.random.default_rng(12)
        n = topology.num_nodes
        sources = np.arange(n)
        dests = rng.permutation(n)

        def run(engine):
            return GreedyRouter(topology, engine=engine).route(sources, dests)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("randomized", [True, False])
    def test_valiant_hypercube_matches(self, randomized):
        cube = Hypercube(7)
        perm = np.random.default_rng(14).permutation(cube.num_nodes)

        def run(engine):
            return ValiantHypercubeRouter(
                cube, seed=15, randomized=randomized, engine=engine
            ).route(np.arange(cube.num_nodes), perm)

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert_stats_equal(fast, ref)

    def test_valiant_shuffle_serialized_matches(self):
        """The node_service_rate=1 model must arbitrate identically."""
        sh = DWayShuffle(3, 3)
        perm = np.random.default_rng(16).permutation(sh.num_nodes)

        def run(engine):
            return valiant_shuffle_route(
                sh, np.arange(sh.num_nodes), perm, seed=17, engine=engine
            )

        fast, ref = run("fast"), run("reference")
        assert fast.completed
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("mode", ["erew", "crcw"])
    def test_mesh_emulator_step_costs_match(self, mode):
        n_side = 6
        n = n_side * n_side
        space = 128
        steps = [
            permutation_step(n, space, seed=2),
            permutation_step(n, space, seed=4, kind="write"),
        ]
        if mode == "crcw":
            # Concurrent-access patterns are only legal in CRCW mode.
            steps.insert(0, hotspot_step(n, space, seed=1))
            steps.append(h_relation_step(n, space, 2, seed=3))

        def run(engine):
            em = MeshEmulator(
                Mesh2D.square(n_side), space, mode=mode, seed=21, engine=engine
            )
            costs = []
            for s in steps:
                c = em.emulate_step(s)
                costs.append(
                    (c.request_steps, c.reply_steps, c.rehashes, c.combines, c.max_queue)
                )
            mem = [em.memory.read(a) for a in range(space)]
            return costs, mem

        fast_costs, fast_mem = run("fast")
        ref_costs, ref_mem = run("reference")
        assert fast_costs == ref_costs
        assert fast_mem == ref_mem

    @pytest.mark.parametrize("mode", ["erew", "crcw"])
    def test_mesh_emulator_capacity_variant_matches(self, mode):
        """Corollary 3.3's O(1)-queue emulation, differentially.

        The CRCW case pins the combine-with-capacity interaction in the
        fast engine's constrained per-event loop (combining index
        release inside transmit, stalled-head checks on a combining
        heap)."""
        n_side = 6
        n = n_side * n_side
        step = (
            permutation_step(n, 128, seed=5)
            if mode == "erew"
            else hotspot_step(n, 128, seed=5)
        )

        def run(engine):
            em = MeshEmulator(
                Mesh2D.square(n_side),
                128,
                mode=mode,
                node_capacity=8,
                seed=23,
                engine=engine,
            )
            c = em.emulate_step(step)
            return (
                c.request_steps,
                c.reply_steps,
                c.rehashes,
                c.combines,
                c.max_queue,
            )

        costs_fast = run("fast")
        costs_ref = run("reference")
        assert costs_fast == costs_ref
        if mode == "crcw":
            assert costs_fast[3] > 0  # combining actually exercised

    def test_mesh_router_combining_with_capacity_matches(self):
        """combine=True + node_capacity: the constrained fast loop must
        release combine-index residency and stall exactly like the
        reference priority queues."""
        mesh = Mesh2D.square(8)
        n = mesh.num_nodes
        rng = np.random.default_rng(18)
        addresses = rng.integers(6, size=n)
        dests = (addresses * 7) % n

        def run(engine):
            router = MeshRouter(
                mesh, seed=19, combine=True, node_capacity=6, engine=engine
            )
            pkts = make_packets(
                list(range(n)), dests.tolist(), addresses=addresses.tolist()
            )
            return router.route(None, None, packets=pkts, max_steps=4000)

        fast, ref = run("fast"), run("reference")
        assert fast.combines > 0
        assert fast.max_node_load <= 6
        assert_stats_equal(fast, ref)


class TestEmulatorDifferential:
    @pytest.mark.parametrize(
        "net", [DAryButterflyLeveled(2, 5), StarLogicalLeveled(4)], ids=lambda n: repr(n)
    )
    def test_step_costs_match(self, net):
        n = net.column_size
        space = 128
        steps = [
            hotspot_step(n, space, seed=1),
            permutation_step(n, space, seed=2),
            h_relation_step(n, space, 2, seed=3),
            permutation_step(n, space, seed=4, kind="write"),
        ]

        def run(engine):
            em = LeveledEmulator(net, space, mode="crcw", seed=21, engine=engine)
            costs = []
            for s in steps:
                c = em.emulate_step(s)
                costs.append(
                    (c.request_steps, c.reply_steps, c.rehashes, c.combines, c.max_queue)
                )
            mem = [em.memory.read(a) for a in range(space)]
            return costs, mem

        fast_costs, fast_mem = run("fast")
        ref_costs, ref_mem = run("reference")
        assert fast_costs == ref_costs
        assert fast_mem == ref_mem

    def test_nonuniform_degree_falls_back_to_reference(self):
        """A net that cannot pre-draw coins must still emulate correctly
        in fast mode: the router silently falls back to the reference
        engine, so the reply phase needs traces recorded."""

        class OddButterfly(DAryButterflyLeveled):
            uniform_out_degree = False

        net = OddButterfly(2, 4)
        step = hotspot_step(net.column_size, 64, seed=6)
        fast = LeveledEmulator(net, 64, mode="crcw", seed=17, engine="fast")
        cost_fast = fast.emulate_step(step)
        ref = LeveledEmulator(net, 64, mode="crcw", seed=17, engine="reference")
        cost_ref = ref.emulate_step(step)
        assert (cost_fast.request_steps, cost_fast.reply_steps) == (
            cost_ref.request_steps,
            cost_ref.reply_steps,
        )

    def test_nonuniform_degree_node_mode_uses_fast_path(self):
        """Node-mode trajectories need no out-neighbor tables, so the
        fast path must work even on non-uniform-degree networks."""

        class OddButterfly(DAryButterflyLeveled):
            uniform_out_degree = False

        net = OddButterfly(2, 5)
        perm = np.random.default_rng(8).permutation(net.column_size)
        fast = LeveledRouter(
            net, intermediate="node", seed=12, engine="fast"
        ).route_permutation(perm)
        ref = LeveledRouter(
            net, intermediate="node", seed=12, engine="reference"
        ).route_permutation(perm)
        assert fast.completed
        assert_stats_equal(fast, ref)

        step = hotspot_step(net.column_size, 64, seed=6)
        costs = []
        for engine in ("fast", "reference"):
            em = LeveledEmulator(
                net, 64, mode="crcw", intermediate="node", seed=19, engine=engine
            )
            c = em.emulate_step(step)
            costs.append((c.request_steps, c.reply_steps, c.combines))
        assert costs[0] == costs[1]

    def test_rehash_storm_matches(self):
        """Impossibly tight allotments force rehashes on both engines."""
        net = DAryButterflyLeveled(2, 4)
        step = hotspot_step(net.column_size, 64, seed=5)

        def run(engine):
            em = LeveledEmulator(
                net, 64, mode="crcw", seed=33, rehash_factor=0.4, engine=engine
            )
            cost = em.emulate_step(step)
            return cost.rehashes, cost.request_steps, em.rehash_count

        assert run("fast") == run("reference")


class TestEngineSelection:
    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert resolve_engine_mode("auto") == "reference"
        monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
        assert resolve_engine_mode("auto") == "fast"
        monkeypatch.delenv(ENGINE_ENV_VAR)
        assert resolve_engine_mode("auto") == "fast"

    def test_typoed_env_var_raises(self, monkeypatch):
        # A typo must not silently run the engine under suspicion.
        monkeypatch.setenv(ENGINE_ENV_VAR, "refernce")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            resolve_engine_mode("auto")
        monkeypatch.setenv(ENGINE_ENV_VAR, "")
        assert resolve_engine_mode("auto") == "fast"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert resolve_engine_mode("fast") == "fast"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine_mode("warp")
        with pytest.raises(ValueError):
            LeveledRouter(DAryButterflyLeveled(2, 2), engine="warp")


class TestFastPathEngineUnit:
    def test_shared_link_serializes(self):
        # Two packets crossing the same link: second waits one step.
        pkts = make_packets([0, 0], [2, 2])
        stats = FastPathEngine().run(
            pkts, [[0, 1, 2], [0, 1, 2]], num_nodes=3, max_steps=10
        )
        assert stats.completed
        assert stats.steps == 3
        assert sorted(p.delay for p in pkts) == [0, 1]

    def test_combining_on_shared_queue(self):
        pkts = make_packets([0, 0, 0], [2, 2, 2], addresses=[7, 7, 7])
        stats = FastPathEngine(combine=True).run(
            pkts, [[0, 1, 2]] * 3, num_nodes=3, max_steps=10
        )
        assert stats.completed
        assert stats.combines == 2
        assert stats.steps == 2  # combined flow behaves as one packet

    def test_mismatched_paths_rejected(self):
        pkts = make_packets([0], [1])
        with pytest.raises(ValueError):
            FastPathEngine().run(pkts, [], num_nodes=2, max_steps=5)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="start node"):
            FastPathEngine().run(
                make_packets([0, 1], [2, 1]), [[0, 1, 2], []], num_nodes=3,
                max_steps=5,
            )

    def test_ragged_paths_with_priorities_match_reference(self):
        """Ragged path and priority lists are padded onto the batch mode
        and keep the furthest-first order of the reference engine."""
        from repro.routing import SynchronousEngine
        from repro.routing.queues import furthest_first_factory

        sources, dests = [0, 1, 0, 5, 3], [2, 3, 6, 5, 7]
        paths = [list(range(s, d + 1)) for s, d in zip(sources, dests)]
        priorities = [[d - v for v in path[:-1]] for path, d in zip(paths, dests)]
        engine = FastPathEngine()
        fast = engine.run(
            make_packets(sources, dests), paths, num_nodes=8, max_steps=50,
            priorities=priorities,
        )
        assert engine.last_run_mode == "batch"
        ref = SynchronousEngine(
            queue_factory=furthest_first_factory(lambda p: abs(p.dest - p.node))
        ).run(
            make_packets(sources, dests),
            lambda p: None if p.node == p.dest else p.node + 1,
            max_steps=50,
        )
        assert fast.completed
        assert_stats_equal(fast, ref)

    def test_single_packet_delivers(self):
        pkts = make_packets([0], [1])
        stats = FastPathEngine().run(pkts, [[0, 1]], num_nodes=2, max_steps=5)
        assert stats.completed
        assert stats.steps == 1
        assert pkts[0].hops == 1

    def test_timeout_raises_when_asked(self):
        from repro.routing import RoutingTimeout

        pkts = make_packets([0, 0], [2, 2])
        with pytest.raises(RoutingTimeout):
            FastPathEngine().run(
                pkts,
                [[0, 1, 2], [0, 1, 2]],
                num_nodes=3,
                max_steps=2,
                raise_on_timeout=True,
            )

    def test_node_ids_roundtrip(self):
        net = DAryButterflyLeveled(2, 3)
        compiled = compile_leveled(net)
        L, N = net.num_levels, net.column_size
        # trace-style keys: wrap position decodes to (0, L, row)
        assert compiled.trace_key(L, L * N + 3) == (0, L, 3)
        # node-style keys: wrap position decodes to its pass-2 alias
        assert compiled.node_key(L, L * N + 3) == (1, 0, 3)
        assert compiled.encode_key((0, L, 3)) == compiled.encode_key((1, 0, 3))
        for key in [(0, 0, 1), (0, L, 5), (1, L, 2)]:
            assert compiled.reply_key(0, compiled.encode_key(key)) == key
