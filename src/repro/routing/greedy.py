"""Generic deterministic greedy (oblivious) router on any Topology.

The simplest baseline: every packet follows ``topology.route_next`` with
FIFO link queues.  Oblivious and deterministic — exactly the class of
algorithms whose worst case motivates Valiant randomization (§2.2.1).

Because the itinerary is a pure function of (source, dest), the whole
population's paths can be precompiled and replayed on the fast engine
(``engine="auto" | "fast" | "reference"``): meshes, linear arrays,
hypercubes and star graphs get fully vectorized builders, any other
topology walks ``route_next`` once per packet up front; either way the
plan runs on the vectorized batch modes.  ``node_capacity`` backpressure
is honoured by both engines, and ``flow_control="credit"`` enables the
deadlock-free credit/escape protocol — sound for dimension-ordered
routes (mesh, linear array, hypercube), whose link ranks are monotone
(:mod:`repro.routing.flow_control` invariant I3); a topology with cyclic
greedy paths may instead surface a ``DeadlockError`` diagnostic.
"""

from __future__ import annotations

from typing import Sequence

from repro.routing.engine import SynchronousEngine
from repro.routing.fast_engine import FastPathEngine, resolve_engine_mode
from repro.routing.metrics import RoutingStats
from repro.routing.packet import Packet, make_packets
from repro.routing.queues import fifo_factory
from repro.topology.base import Topology
from repro.topology.compiled import (
    compile_mesh,
    hypercube_paths,
    linear_paths,
    star_paths,
)
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import LinearArray, Mesh2D
from repro.topology.star import StarGraph


class GreedyRouter:
    """Deterministic greedy router over an arbitrary topology.

    Parameters
    ----------
    node_capacity:
        Bound on packets resident at one node (backpressure); ``None``
        disables the capacity model.
    flow_control:
        ``"none"`` (default) or ``"credit"`` (requires
        ``node_capacity``): the deadlock-free credit/escape protocol of
        :mod:`repro.routing.flow_control` — sound on rank-monotone
        routes (mesh, linear array, hypercube); cyclic greedy paths may
        surface a :class:`~repro.routing.flow_control.DeadlockError`.
    engine:
        ``"auto"`` (default), ``"fast"``, or ``"reference"``.  The fast
        path runs vectorized batch (constrained batch under
        ``node_capacity``) on every topology; ragged ``route_next``
        walks are padded onto the batch engine.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        node_capacity: int | None = None,
        flow_control: str = "none",
        engine: str = "auto",
    ) -> None:
        self.topology = topology
        self.node_capacity = node_capacity
        self.flow_control = flow_control
        self.engine_mode = engine
        resolve_engine_mode(engine)  # validate eagerly
        self.engine = SynchronousEngine(
            queue_factory=fifo_factory,
            node_capacity=node_capacity,
            flow_control=flow_control,
        )

    def _next_hop(self, p: Packet):
        if p.node == p.dest:
            return None
        nxt = self.topology.route_next(p.node, p.dest)
        if nxt == p.node:
            raise RuntimeError(f"greedy route stalled for packet {p.pid} at {p.node}")
        return nxt

    def route(
        self,
        sources: Sequence[int],
        dests: Sequence[int],
        *,
        max_steps: int | None = None,
    ) -> RoutingStats:
        if max_steps is None:
            max_steps = 100 * max(1, self.topology.diameter) + 200
        packets = make_packets(list(map(int, sources)), list(map(int, dests)))
        if resolve_engine_mode(self.engine_mode) == "fast":
            return self._run_fast(packets, max_steps)
        return self.engine.run(packets, self._next_hop, max_steps=max_steps)

    def _run_fast(self, packets: list[Packet], max_steps: int) -> RoutingStats:
        """Precompile greedy itineraries; replay them on the fast engine.

        Mesh / linear-array / hypercube / star paths come out of the
        vectorized builders in :mod:`repro.topology.compiled`; any other
        topology falls back to walking ``route_next`` per packet (still
        one walk up front instead of one call per packet per step).
        """
        topo = self.topology
        sources = [p.source for p in packets]
        dests = [p.dest for p in packets]
        fast = FastPathEngine(
            node_capacity=self.node_capacity, flow_control=self.flow_control
        )
        if isinstance(topo, Mesh2D):
            plan = compile_mesh(topo).three_stage(sources, dests)
        elif isinstance(topo, LinearArray):
            plan = linear_paths(sources, dests)
        elif isinstance(topo, Hypercube):
            plan = hypercube_paths(topo.n, sources, dests)
        elif type(topo).route_next is StarGraph.route_next:
            # The compiled walk is StarGraph.route_next's; a subclass that
            # overrides the move rule keeps its own per-packet walk below.
            plan = star_paths(topo, sources, [dests])
        else:
            paths = [topo.greedy_path(p.source, p.dest) for p in packets]
            return fast.run(
                packets, paths, num_nodes=topo.num_nodes, max_steps=max_steps
            )
        return fast.run(
            packets,
            plan.ids,
            num_nodes=topo.num_nodes,
            max_steps=max_steps,
            path_lengths=plan.lengths,
        )
