"""The array-compiled star-graph itineraries and their batch replay.

:func:`repro.topology.compiled.star_paths` must reproduce
:meth:`StarGraph.route_next`'s greedy cycle-algorithm walk hop for hop,
and the routers that replay it on the vectorized batch engine must stay
bit-identical to the reference engine:

* every (source, target) pair on S_4 and S_5, with and without an
  intermediate, against a ``route_next`` walk;
* fast == reference for ``StarRouter`` permutations on S_6 and S_7,
  random n-relations, the non-randomized ablation, and ``GreedyRouter``;
* degenerate inputs: zero-hop (self-addressed) packets, a single packet,
  and an empty route;
* dispatch: star routes take the ``"batch"`` mode.
"""

import numpy as np
import pytest

from repro.routing import FastPathEngine, GreedyRouter, StarRouter
from repro.topology import StarGraph, star_paths
from repro.topology.star import perm_rank, perm_rank_array, perm_unrank_array
from test_fast_engine import assert_stats_equal


def _walk(star, src, dst):
    path = [src]
    while path[-1] != dst:
        path.append(star.route_next(path[-1], dst))
    return path


def _assert_plan_row(plan, i, path):
    k = len(path) - 1
    assert plan.lengths[i] == k
    assert plan.ids[i, : k + 1].tolist() == path
    assert (plan.ids[i, k + 1 :] == path[-1]).all()  # destination padding


class TestArrayLehmerCodec:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_roundtrip_matches_scalar_rank(self, n):
        num = StarGraph(n).num_nodes
        labels = perm_unrank_array(np.arange(num), n)
        assert [perm_rank(tuple(row)) for row in labels.tolist()] == list(range(num))
        assert perm_rank_array(labels).tolist() == list(range(num))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            perm_unrank_array(np.array([24]), 4)


class TestStarPathsMatchRouteNext:
    @pytest.mark.parametrize("n", [4, 5])
    def test_every_pair_direct_and_via_intermediate(self, n):
        star = StarGraph(n)
        num = star.num_nodes
        src, dst = np.divmod(np.arange(num * num), num)
        walks = {}
        for s, d in zip(src.tolist(), dst.tolist()):
            walks[s, d] = _walk(star, s, d)

        direct = star_paths(star, src, [dst])
        for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
            _assert_plan_row(direct, i, walks[s, d])

        # route_next is memoryless, so a two-phase walk is the phase-1
        # walk to the intermediate followed by the phase-2 walk from it.
        inter = np.random.default_rng(n).integers(num, size=src.size)
        via = star_paths(star, src, [inter, dst])
        for i, (s, m, d) in enumerate(zip(src.tolist(), inter.tolist(), dst.tolist())):
            _assert_plan_row(via, i, walks[s, m] + walks[m, d][1:])

    def test_paths_are_minimal(self):
        star = StarGraph(5)
        num = star.num_nodes
        src, dst = np.divmod(np.arange(num * num), num)
        plan = star_paths(star, src, [dst])
        assert plan.lengths.max() == star.diameter
        dist = [star.distance(s, d) for s, d in zip(src.tolist(), dst.tolist())]
        assert plan.lengths.tolist() == dist

    def test_empty_population(self):
        plan = star_paths(StarGraph(4), [], [[]])
        assert plan.ids.shape == (0, 1) and plan.lengths.size == 0


class TestStarRouterDifferential:
    @pytest.mark.parametrize("n,seed", [(6, 21), (7, 4)])
    def test_permutation_matches_reference(self, n, seed):
        star = StarGraph(n)
        perm = np.random.default_rng(seed).permutation(star.num_nodes)
        fast = StarRouter(star, seed=seed, engine="fast").route_permutation(perm)
        ref = StarRouter(star, seed=seed, engine="reference").route_permutation(perm)
        assert fast.completed
        assert_stats_equal(fast, ref)

    def test_n_relation_matches_reference(self):
        star = StarGraph(6)
        fast = StarRouter(star, seed=5, engine="fast").route_n_relation()
        ref = StarRouter(star, seed=5, engine="reference").route_n_relation()
        assert fast.completed
        assert_stats_equal(fast, ref)

    def test_nonrandomized_matches_reference(self):
        star = StarGraph(6)
        perm = np.random.default_rng(9).permutation(star.num_nodes)
        fast = StarRouter(star, randomized=False, engine="fast").route_permutation(perm)
        ref = StarRouter(
            star, randomized=False, engine="reference"
        ).route_permutation(perm)
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("n", [5, 6])
    def test_greedy_router_matches_reference(self, n):
        star = StarGraph(n)
        num = star.num_nodes
        dests = np.random.default_rng(n).permutation(num)
        fast = GreedyRouter(star, engine="fast").route(np.arange(num), dests)
        ref = GreedyRouter(star, engine="reference").route(np.arange(num), dests)
        assert fast.completed
        assert_stats_equal(fast, ref)


class TestDegenerateRoutes:
    @pytest.mark.parametrize(
        "make",
        [
            lambda s, e: StarRouter(s, randomized=False, engine=e),
            lambda s, e: GreedyRouter(s, engine=e),
        ],
        ids=["star", "greedy"],
    )
    def test_self_addressed_packets(self, make):
        star = StarGraph(5)
        sources = [0, 7, 7, 42, 119]
        dests = [0, 7, 3, 42, 5]  # three zero-hop packets
        fast = make(star, "fast").route(sources, dests)
        ref = make(star, "reference").route(sources, dests)
        assert fast.completed and fast.delivered == 5
        assert_stats_equal(fast, ref)
        assert [fast.hops[i] for i in (0, 1, 3)] == [0, 0, 0]

    @pytest.mark.parametrize("randomized", [True, False])
    def test_single_packet(self, randomized):
        star = StarGraph(6)
        stats = [
            StarRouter(star, seed=3, randomized=randomized, engine=e).route([17], [600])
            for e in ("fast", "reference")
        ]
        assert stats[0].completed and stats[0].delivered == 1
        assert_stats_equal(*stats)

    def test_empty_route(self):
        stats = [
            StarRouter(StarGraph(4), seed=1, engine=e).route([], [])
            for e in ("fast", "reference")
        ]
        assert stats[0].delivered == 0
        assert_stats_equal(*stats)


def test_star_routes_dispatch_batch(monkeypatch):
    modes: list[str] = []
    orig = FastPathEngine.run

    def spy(self, *args, **kwargs):
        stats = orig(self, *args, **kwargs)
        modes.append(self.last_run_mode)
        return stats

    monkeypatch.setattr(FastPathEngine, "run", spy)
    star = StarGraph(5)
    perm = np.random.default_rng(0).permutation(star.num_nodes)
    StarRouter(star, seed=1, engine="fast").route_permutation(perm)
    GreedyRouter(star, engine="fast").route(np.arange(star.num_nodes), perm)
    assert modes == ["batch", "batch"]
