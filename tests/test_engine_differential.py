"""Generative fast == reference differentials for ``node_service_rate``.

The serialized node model (each node forwards at most
``node_service_rate`` packets per step) runs on the fast engine's batch
modes through one scalar slot walk.  Hand-picked fixtures cannot tell a
walk that ignores the rate under ``node_capacity`` from a correct one,
so this suite draws random ragged itineraries over 4-14 nodes and
crosses the rate with capacity, shared combine addresses, staggered
injections and static link-fault windows.  Every run must match the
reference engine field for field — including the stats attached to a
:class:`DeadlockError` when both engines wedge.

The example budget comes from the Hypothesis profile (``tests/conftest.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import DeadlockError, FastPathEngine, SynchronousEngine
from repro.routing.packet import Packet
from test_fast_engine import assert_stats_equal

MAX_STEPS = 120


class FaultWindow:
    """A link-fault view with one static window: *down* links are blocked
    at steps ``lo <= t < hi`` and every link is up otherwise."""

    def __init__(self, down, lo: int, hi: int) -> None:
        self.down = frozenset(down)
        self.lo = lo
        self.hi = hi

    def parts_at(self, t: int):
        return (self.down if self.lo <= t < self.hi else frozenset()), ()


@st.composite
def itineraries(draw, num_nodes: int):
    """A node-id path without self-loops, 1-7 nodes long."""
    length = draw(st.integers(1, 7))
    path = [draw(st.integers(0, num_nodes - 1))]
    for _ in range(length - 1):
        nxt = draw(st.integers(0, num_nodes - 2))
        path.append(nxt if nxt < path[-1] else nxt + 1)
    return path


@st.composite
def service_cases(draw):
    num_nodes = draw(st.integers(4, 14))
    paths = draw(st.lists(itineraries(num_nodes), min_size=1, max_size=12))
    # Repeated itineraries share every link and the destination, so
    # queues contend and equal combine keys meet.
    copies = draw(st.lists(st.integers(0, len(paths) - 1), max_size=4))
    paths += [list(paths[j]) for j in copies]
    n = len(paths)
    case = {
        "num_nodes": num_nodes,
        "paths": paths,
        "service_rate": draw(st.sampled_from([1, 2, 3])),
        "capacity": draw(st.sampled_from([None, 1, 2, 3])),
        "combine": draw(st.booleans()),
        # Few addresses, so equal (kind, address, dest) keys meet.
        "addresses": draw(
            st.lists(st.sampled_from([None, 0, 1]), min_size=n, max_size=n)
        ),
        "injected_at": draw(
            st.lists(st.integers(0, 4), min_size=n, max_size=n)
            | st.just([0] * n)
        ),
        "faults": None,
    }
    crossed = sorted({(u, w) for p in paths for u, w in zip(p, p[1:])})
    if crossed and draw(st.booleans()):
        down = draw(st.lists(st.sampled_from(crossed), min_size=1, max_size=3))
        lo = draw(st.integers(0, 5))
        case["faults"] = (down, lo, lo + draw(st.integers(1, 8)))
    return case


def _packets(case):
    pkts = []
    for i, (path, addr, t0) in enumerate(
        zip(case["paths"], case["addresses"], case["injected_at"])
    ):
        p = Packet(i, path[0], path[-1], address=addr)
        p.injected_at = t0
        p.state = 0  # position along the itinerary (reference next_hop)
        pkts.append(p)
    return pkts


def _outcome(run):
    """("ok" | "deadlock", stats) of one engine run."""
    try:
        return "ok", run()
    except DeadlockError as exc:
        return "deadlock", exc.stats


def _run_both(case):
    paths = case["paths"]
    cfg = dict(
        combine=case["combine"],
        node_capacity=case["capacity"],
        node_service_rate=case["service_rate"],
    )
    faults = None if case["faults"] is None else FaultWindow(*case["faults"])

    def next_hop(p):
        path = paths[p.pid]
        if p.state == len(path) - 1:
            return None
        p.state += 1
        return path[p.state]

    fast = _outcome(
        lambda: FastPathEngine(**cfg).run(
            _packets(case),
            paths,
            num_nodes=case["num_nodes"],
            max_steps=MAX_STEPS,
            link_faults=faults,
        )
    )
    ref = _outcome(
        lambda: SynchronousEngine(**cfg).run(
            _packets(case), next_hop, max_steps=MAX_STEPS, link_faults=faults
        )
    )
    return fast, ref


@given(case=service_cases())
@settings(deadline=None)
def test_service_rate_matches_reference(case):
    (fast_kind, fast), (ref_kind, ref) = _run_both(case)
    assert fast_kind == ref_kind
    assert_stats_equal(fast, ref)


class TestServiceRateEdges:
    """Pinned corners of the service-rate walk and of ``run()``."""

    # Node 0 drives three links; (0, 1) holds two packets, so it wins
    # the single slot at step 0, and the activation-order tie at step 1.
    PATHS = [[0, 1], [0, 1], [0, 2], [0, 3]]

    def _run(self, engine_cls, faults):
        paths = self.PATHS
        pkts = [Packet(i, p[0], p[-1]) for i, p in enumerate(paths)]
        engine = engine_cls(node_service_rate=1)
        if engine_cls is FastPathEngine:
            return engine.run(
                pkts, paths, num_nodes=4, max_steps=20, link_faults=faults
            )
        return engine.run(
            pkts,
            lambda p: None if p.node == p.dest else p.dest,
            max_steps=20,
            link_faults=faults,
        )

    @pytest.mark.parametrize("hi, stalls", [(2, 0), (3, 1)])
    def test_spent_slot_ends_turn_before_fault_check(self, hi, stalls):
        """(0, 2) is down for steps [0, hi).  Its turn comes only at
        step 2 — at steps 0 and 1 node 0's slot is already spent — so it
        counts a fault stall only when the window still covers step 2."""
        fast = self._run(FastPathEngine, FaultWindow([(0, 2)], 0, hi))
        ref = self._run(SynchronousEngine, FaultWindow([(0, 2)], 0, hi))
        assert fast.fault_stalls == stalls
        assert fast.completed
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize(
        "cfg", [{}, {"node_capacity": 1}, {"node_service_rate": 1}]
    )
    def test_zero_packets_match_reference(self, cfg):
        fast = FastPathEngine(**cfg).run([], [], num_nodes=4, max_steps=10)
        ref = SynchronousEngine(**cfg).run([], lambda p: None, max_steps=10)
        assert fast.completed and fast.steps == 0
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("option", ["node_capacity", "node_service_rate"])
    def test_spawn_plan_rejects_option(self, option):
        with pytest.raises(ValueError, match=option):
            FastPathEngine(**{option: 1}).run(
                [Packet(0, 0, 1), Packet(1, 1, 0)],
                [[0, 1], [1, 0]],
                num_nodes=2,
                max_steps=10,
                spawn_plan=[(0, 1, [1])],
            )
