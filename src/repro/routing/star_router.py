"""Algorithm 2.2 — randomized permutation routing on the n-star (§2.3.3-2.3.4).

Phase 1 sends each packet along a greedy minimal path to a uniformly
random intermediate node; phase 2 continues greedily to the true
destination.  Queues are FIFO per directed physical link, and — unlike the
logical leveled view — both phases contend for the same physical links,
which is the honest physical-machine simulation of Theorem 2.2.

A deterministic greedy (single-phase) router is included as the ablation
baseline: oblivious greedy routing without Valiant randomization suffers
on structured permutations, which is *why* phase 1 exists.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.routing.engine import SynchronousEngine
from repro.routing.fast_engine import FastPathEngine, resolve_engine_mode
from repro.routing.metrics import RoutingStats
from repro.routing.packet import Packet, make_packets
from repro.routing.queues import fifo_factory
from repro.topology.compiled import star_paths
from repro.topology.star import StarGraph
from repro.util.rng import as_generator


class StarRouter:
    """Two-phase randomized router on the physical n-star graph.

    Intermediates are pre-drawn and the greedy cycle algorithm is
    deterministic, so each packet's itinerary is known before routing;
    with ``engine="auto"``/``"fast"`` the whole population's itineraries
    are compiled as arrays (:func:`repro.topology.compiled.star_paths`)
    and replayed on the vectorized batch mode of
    :class:`~repro.routing.fast_engine.FastPathEngine`, reproducing the
    reference engine's results exactly.
    """

    def __init__(
        self,
        star: StarGraph,
        *,
        seed=None,
        randomized: bool = True,
        engine: str = "auto",
    ) -> None:
        self.star = star
        self.randomized = randomized
        self.rng = as_generator(seed)
        self.engine_mode = engine
        resolve_engine_mode(engine)  # validate eagerly
        self.engine = SynchronousEngine(queue_factory=fifo_factory)

    def _next_hop(self, p: Packet):
        # state = intermediate node id, or None once phase 2 has begun
        if p.state is not None:
            if p.node == p.state:
                p.state = None  # reached the intermediate: start phase 2
            else:
                return self.star.route_next(p.node, p.state)
        if p.node == p.dest:
            return None
        return self.star.route_next(p.node, p.dest)

    def route(
        self,
        sources: Sequence[int],
        dests: Sequence[int],
        *,
        max_steps: int | None = None,
    ) -> RoutingStats:
        if max_steps is None:
            max_steps = 60 * self.star.diameter + 200
        packets = make_packets(list(map(int, sources)), list(map(int, dests)))
        inters = None
        if self.randomized:
            inters = self.rng.integers(self.star.num_nodes, size=len(packets))
            for p, r in zip(packets, inters):
                p.state = int(r)
        if resolve_engine_mode(self.engine_mode) == "fast":
            return self._run_fast(packets, inters, max_steps)
        return self.engine.run(packets, self._next_hop, max_steps=max_steps)

    def _run_fast(self, packets, inters, max_steps: int) -> RoutingStats:
        """Compile greedy itineraries (via intermediates); replay batched."""
        dests = [p.dest for p in packets]
        targets = ([inters] if inters is not None else []) + [dests]
        plan = star_paths(self.star, [p.node for p in packets], targets)
        return FastPathEngine().run(
            packets,
            plan.ids,
            num_nodes=self.star.num_nodes,
            max_steps=max_steps,
            path_lengths=plan.lengths,
        )

    def route_permutation(
        self, perm: Sequence[int] | np.ndarray, *, max_steps: int | None = None
    ) -> RoutingStats:
        perm = np.asarray(perm)
        n = self.star.num_nodes
        if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
            raise ValueError("perm must be a permutation of all star nodes")
        return self.route(np.arange(n), perm, max_steps=max_steps)

    def route_random_permutation(self, *, max_steps: int | None = None) -> RoutingStats:
        return self.route_permutation(
            self.rng.permutation(self.star.num_nodes), max_steps=max_steps
        )

    def route_n_relation(self, *, h: int | None = None, max_steps: int | None = None) -> RoutingStats:
        """Random partial n-relation routing (Corollary 2.1)."""
        from repro.util.rng import random_h_relation

        h = h if h is not None else self.star.n
        s, d = random_h_relation(self.rng, self.star.num_nodes, h)
        return self.route(s, d, max_steps=max_steps)


def adversarial_star_permutation(star: StarGraph) -> np.ndarray:
    """A structured permutation that punishes non-randomized greedy routing.

    Every node routes to its "reversal-rotation" image: the permutation
    label reversed.  Reversal concentrates traffic through the identity
    region of the graph under the greedy cycle algorithm, creating hot
    links — the classical motivation for Valiant's random phase.
    """
    n = star.n
    out = np.empty(star.num_nodes, dtype=np.int64)
    for v in range(star.num_nodes):
        perm = star.label(v)
        out[v] = star.node_id(tuple(reversed(perm)))
    return out
