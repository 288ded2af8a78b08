"""Compiled fast path of the synchronous routing engine.

:class:`FastPathEngine` replays the exact queue dynamics of
:class:`repro.routing.engine.SynchronousEngine` — same one-packet-per-link
steps, link queues, enqueue-time combining, injection times, timeouts,
node-capacity backpressure, per-node service rates, and insertion-ordered
transmission — but over **precompiled integer trajectories** instead of
hashable node keys and a per-hop ``next_hop`` callback:

* each packet i carries ``paths[i]``: the full list of integer node ids
  it will visit (produced by, e.g.,
  :meth:`repro.topology.compiled.CompiledLeveledTopology.build_paths` or
  :meth:`repro.topology.compiled.CompiledMesh2D.three_stage`);
  variable-length trajectories may be passed as one padded rectangular
  matrix plus ``path_lengths`` (the pad repeats the destination), which
  keeps the link interning a single vectorized ``np.unique``; ragged
  path lists are padded the same way before dispatch;
* every directed link a packet will ever cross is interned up front to a
  dense link index, and each packet's remaining itinerary becomes one C
  iterator over those indices — the hot loop never hashes a node pair or
  re-indexes a path row;
* link FIFO queues are intrusive: head/tail/next arrays of packet
  *indices* (a packet waits in at most one queue), so pushes and pops
  are pure list arithmetic with no container allocation; CRCW combining
  is O(1) per arrival via a per-link dict from combine key to the
  resident host's index (mirroring the LinkQueue side index);
* furthest-destination-first arbitration (the §3.4 mesh discipline) is
  array-based: when per-hop ``priorities`` are supplied, each link keeps
  a heap of packed integers ``(bias - priority, push counter, packet)``
  — the priority-and-index part of every key is precomputed as one
  vectorized matrix, so a push is one OR and one shift, with the exact
  order of the reference ``FurthestFirstQueue`` (largest priority first,
  FIFO among ties);
* per-node load and per-link activity live in flat lists, and the
  capacity/service-rate arbitration reserves arrival slots during the
  transmission phase exactly like the reference engine.

The engine picks one of three execution modes per run (recorded in
``last_run_mode`` for tests and diagnostics):

* ``"batch"`` — the fully vectorized unconstrained mode: whole
  transmission and arrival phases as numpy array operations;
* ``"batch-constrained"`` — the vectorized *constrained* mode for
  ``node_capacity`` runs (``flow_control="none"`` or ``"credit"``):
  per-node credit counters are updated with segment reductions
  (``np.add.at``), escape-buffer occupancy lives in a parallel table
  keyed by compiled link id, and each step's transmission phase splits
  the active links into a provably-unconstrained majority (resolved
  vectorized) and a small contended residue replayed in exact
  reference order — see :meth:`FastPathEngine._run_batch`;
* ``"event"`` — the per-event compiled loop, kept only for dynamic
  injection (``on_arrival``) and ``node_service_rate``.

Because routers pre-draw all randomness (coin matrices, intermediate
nodes/rows) *before* choosing an engine, the fast and reference engines
consume identical random bits and produce identical
:class:`~repro.routing.metrics.RoutingStats` under a fixed seed; the
differential tests in ``tests/test_fast_engine.py`` assert this
field-for-field on star, shuffle, butterfly, mesh, linear-array, and
hypercube networks.

Engine selection: routers take ``engine="auto" | "fast" | "reference"``;
``"auto"`` resolves through :func:`resolve_engine_mode`, which honours
the ``REPRO_ENGINE`` environment variable and otherwise picks the fast
path.
"""

from __future__ import annotations

import os
from collections import defaultdict
from heapq import heappop, heappush
from typing import Callable, Sequence

import numpy as np

from repro.obs.clock import wall_time
from repro.routing.engine import RoutingTimeout
from repro.routing.flow_control import (
    CreditState,
    DeadlockError,
    no_progress_detail,
    resolve_flow_control,
)
from repro.routing.metrics import RoutingStats, collect_stats
from repro.routing.packet import Packet

ENGINE_MODES = ("auto", "fast", "reference")

#: environment override consulted by ``engine="auto"`` routers
ENGINE_ENV_VAR = "REPRO_ENGINE"


def resolve_engine_mode(mode: str) -> str:
    """Collapse an engine request to ``"fast"`` or ``"reference"``.

    Explicit ``"fast"`` / ``"reference"`` win; ``"auto"`` defers to the
    ``REPRO_ENGINE`` environment variable and finally defaults to the
    fast path.  A set-but-unrecognized ``REPRO_ENGINE`` raises rather
    than silently running an engine the user didn't ask for.
    """
    if mode not in ENGINE_MODES:
        raise ValueError(f"unknown engine mode {mode!r}; pick one of {ENGINE_MODES}")
    if mode != "auto":
        return mode
    env = os.environ.get(ENGINE_ENV_VAR, "").strip().lower()
    if not env:
        return "fast"
    if env in ("fast", "reference"):
        return env
    raise ValueError(
        f"unrecognized {ENGINE_ENV_VAR}={env!r}; use 'fast' or 'reference'"
    )


def _pad_rows(rows, width: int, *, fill: int | None = None) -> np.ndarray:
    """Stack ragged integer rows into a ``(len(rows), width)`` matrix.

    Each row is extended with *fill*, or with its own last entry when
    *fill* is None — the destination-repeating pad that the batch modes
    never traverse past ``path_lengths``.
    """
    if all(len(row) == width for row in rows):
        return np.asarray(rows, dtype=np.int64).reshape(len(rows), width)
    out = np.empty((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        k = len(row)
        out[i, :k] = row
        out[i, k:] = row[-1] if fill is None else fill
    return out


class FastPathEngine:
    """Synchronous router over precompiled integer paths.

    Parameters mirror the reference engine: ``node_capacity`` enables the
    backpressure model (arrival slots reserved during the transmission
    phase, delivered-at-target heads exempt) and ``node_service_rate``
    caps departures per node per step, with capacity-stalled links never
    consuming a service slot — both bit-for-bit the semantics of
    :class:`~repro.routing.engine.SynchronousEngine`.
    ``flow_control="credit"`` adds the deadlock-free credit/escape
    protocol of :mod:`repro.routing.flow_control` to the per-event loop
    (escape buffers are keyed by interned link index — 1:1 with the
    reference engine's ``(u, w)`` link keys), and a no-progress step
    with queued packets raises
    :class:`~repro.routing.flow_control.DeadlockError` in both engines.

    The capacity exemption compares a head's *final node id* against the
    link's target, which equals the reference engine's ``head.dest ==
    link target`` check on every flat integer topology (mesh, linear
    array, hypercube, shuffle, star).  Leveled routes compare
    position-encoded ids, which bakes in the reference engine's
    ``exit_dest`` / ``capacity_key`` reconciliation: the wrap aliases
    ``(0, L, r)`` and ``(1, 0, r)`` share one id, so capacity is
    accounted per physical node exactly as the tuple-keyed engine does.

    Attributes
    ----------
    last_run_mode:
        After each :meth:`run`: ``"batch"`` (vectorized, unconstrained),
        ``"batch-constrained"`` (vectorized with ``node_capacity`` /
        credits), or ``"event"`` (per-event compiled loop).  Tests use
        this to assert that a configuration takes the intended path.
    """

    def __init__(
        self,
        *,
        combine: bool = False,
        track_paths: bool = False,
        node_capacity: int | None = None,
        node_service_rate: int | None = None,
        flow_control: str = "none",
        observer=None,
    ) -> None:
        self.combine = combine
        self.track_paths = track_paths
        self.node_capacity = node_capacity
        self.node_service_rate = node_service_rate
        self.flow_control = resolve_flow_control(
            flow_control,
            node_capacity=node_capacity,
            node_service_rate=node_service_rate,
        )
        #: optional repro.obs.Observer — profile buckets per dispatch
        #: mode / phase, flight-recorder step events, DeadlockError
        #: tails.  Wall-clock values are recorded, never branched on,
        #: so results stay bit-identical with and without an observer.
        self.observer = observer
        #: execution mode of the most recent run() — see class docstring
        self.last_run_mode: str | None = None

    def run(
        self,
        packets: Sequence[Packet],
        paths,
        *,
        num_nodes: int,
        max_steps: int,
        path_lengths: Sequence[int] | None = None,
        priorities=None,
        links: tuple[np.ndarray, np.ndarray] | None = None,
        spawn_plan: "list[tuple[int, int, list[int]]] | None" = None,
        raise_on_timeout: bool = False,
        on_arrival: Callable | None = None,
        hook_filter: Callable[[Packet], bool] | None = None,
        node_key: Callable[[int, int], object] | None = None,
        trace_key: Callable[[int, int], object] | None = None,
        link_faults=None,
        fault_base: int = 0,
    ) -> RoutingStats:
        """Route *packets* along *paths* until delivery or *max_steps*.

        ``paths[i]`` is packet i's node-id itinerary including its start;
        the packet is delivered on reaching entry ``path_lengths[i]``
        (default: the last entry).  A 2-D ``np.ndarray`` of paths padded
        past each packet's end (repeating the destination) is accepted —
        with ``path_lengths`` the pad is never traversed.  ``num_nodes``
        bounds the id space (used to intern links and size load tables).
        ``priorities[i][k]`` — when given — is packet i's integer queue
        priority at its k-th link crossing (largest first, FIFO ties):
        the furthest-destination-first discipline with priorities
        evaluated at push time, exactly like the reference
        ``FurthestFirstQueue``.  ``on_arrival(index, packet, key, t)``
        mirrors the reference engine's hook: called at every node a
        packet reaches (``key`` is the decoded position key) and may
        return ``[(packet, path), ...]`` to inject there immediately.
        ``hook_filter(packet)``, evaluated once when a packet is
        registered, exempts packets for which the hook could never act
        (it must be a pure function of the packet — a False means
        on_arrival is skipped for every node that packet reaches).
        ``node_key`` / ``trace_key`` decode ``(position, node_id)`` into
        the hashable keys written back to ``packet.node`` /
        ``packet.trace`` (identity when omitted).  ``links`` — a
        precompiled ``(link_id_matrix, link_src)`` pair or
        ``(link_id_matrix, link_src, link_dst)`` triple aligned with a
        rectangular *paths* matrix (e.g. the arithmetic mesh encoding of
        :meth:`repro.topology.compiled.CompiledMesh2D.link_matrix` or
        the leveled encoding of
        :meth:`repro.topology.compiled.CompiledLeveledTopology.link_matrix`)
        — lets the vectorized batch modes skip their np.unique interning
        pass (the constrained mode derives ``link_dst`` from the path
        matrix when only the pair is given); the per-event mode ignores
        it.

        ``link_faults`` is an optional
        :class:`~repro.faults.runtime.LinkFaultView` whose keys are
        ``(u, w)`` integer node-id pairs: a blocked link holds its
        queue (and any escape occupant crossing it) this step, counted
        in ``fault_stalls``; states are sampled at the global step
        ``fault_base + t`` — semantics identical to the reference
        engine's, so differential tests stay bit-exact.

        ``spawn_plan`` is the static alternative to ``on_arrival`` for
        reply fan-out: entries ``(parent, position, children)`` mean that
        when packet *parent* reaches path position *position*, the listed
        packet indices activate there (they are passed in *packets* /
        *paths* up front but stay dormant until triggered; packets never
        triggered are excluded from the run's stats, exactly as if they
        were never created).  Requires the vectorized batch mode and is
        mutually exclusive with ``on_arrival``.
        """
        combine = self.combine
        capacity = self.node_capacity
        service_rate = self.node_service_rate
        _obs = self.observer
        _prof = _obs.profile if _obs is not None else None
        _rec = _obs.recorder if _obs is not None else None
        _t_run0 = wall_time() if _prof is not None else 0.0
        fc = CreditState() if self.flow_control == "credit" else None
        # Packet index -> escape link claimed at transmit time; place()
        # turns the claim into an occupancy (or drops it on delivery).
        pending_escape: dict[int, int] = {}
        use_heap = priorities is not None
        if use_heap and on_arrival is not None:
            raise ValueError(
                "on_arrival injection is not supported with priority queues"
            )

        all_packets: list[Packet] = list(packets)
        path_arr: np.ndarray | None = None
        if isinstance(paths, np.ndarray):
            if paths.ndim != 2:
                raise ValueError("ndarray paths must be 2-D (packets x positions)")
            path_arr = paths
            path_list: list[list[int]] = []
            n = paths.shape[0]
            if n and paths.shape[1] == 0:
                raise ValueError("every path needs at least its start node")
        else:
            path_list = [list(p) for p in paths]
            n = len(path_list)
            if not all(path_list):
                raise ValueError("every path needs at least its start node")
        if len(all_packets) != n:
            raise ValueError("one path per packet required")
        if path_lengths is None:
            if path_arr is not None:
                last = [path_arr.shape[1] - 1] * n
            else:
                last = [len(p) - 1 for p in path_list]
        else:
            last = [int(x) for x in path_lengths]
            if len(last) != n:
                raise ValueError("one path length per packet required")
            width_of = (
                (lambda i: path_arr.shape[1])
                if path_arr is not None
                else (lambda i: len(path_list[i]))
            )
            for i, k in enumerate(last):
                if not 0 <= k < width_of(i):
                    raise ValueError(
                        f"path_lengths[{i}]={k} outside its {width_of(i)}"
                        "-node path"
                    )

        # ---- fully vectorized batch modes -------------------------------
        # Every hook-free run (permutation / many-one / CRCW-combining
        # routing on any compiled topology, under FIFO or furthest-first
        # arbitration) steps whole transmission and arrival phases as
        # numpy array operations; per-link priority heaps become
        # class-indexed FIFO chains and combining becomes gathers over
        # interned (link, combine-group) codes, so both vectorize too.
        # Ragged path lists are padded into one matrix first (each row
        # repeats its last node, which the engine never traverses past
        # ``path_lengths``).  ``node_capacity`` runs (flow_control "none"
        # or "credit") take the vectorized *constrained* variant of the
        # same loop (batch credit accounting).  Only dynamic injection
        # (``on_arrival``) and service rates fall through to the
        # per-event loop below.
        if spawn_plan is not None and capacity is not None:
            raise ValueError("spawn_plan is not supported with node_capacity")
        if n and on_arrival is None and service_rate is None:
            if path_arr is None:
                path_arr = _pad_rows(path_list, max(map(len, path_list)))
            if priorities is not None and not isinstance(priorities, np.ndarray):
                priorities = _pad_rows(
                    priorities, path_arr.shape[1] - 1, fill=0
                )
            try:
                return self._run_batch(
                    all_packets,
                    path_arr,
                    np.asarray(last, dtype=np.int64),
                    priorities,
                    links=links,
                    spawn_plan=spawn_plan,
                    num_nodes=num_nodes,
                    max_steps=max_steps,
                    raise_on_timeout=raise_on_timeout,
                    node_key=node_key,
                    trace_key=trace_key,
                    link_faults=link_faults,
                    fault_base=fault_base,
                )
            finally:
                if _prof is not None:
                    _prof.add_mode(
                        self.last_run_mode or "batch", wall_time() - _t_run0
                    )
        if spawn_plan is not None:
            raise ValueError(
                "spawn_plan requires the vectorized batch mode (no "
                "on_arrival/service-rate)"
            )
        self.last_run_mode = "event"
        if path_arr is not None:
            path_list = path_arr.tolist()
        pos = [0] * n
        arrived: list[int | None] = [None] * n
        combined_flag = [False] * n
        children: list[list[int] | None] = [None] * n
        ckeys: list[tuple | None] = (
            [p.combine_key for p in all_packets] if combine else []
        )
        hooked: list[bool] = []
        if on_arrival is not None:
            hooked = (
                [True] * n
                if hook_filter is None
                else [bool(hook_filter(p)) for p in all_packets]
            )
        node_load = [0] * num_nodes
        # Final node id per packet, for the backpressure exit exemption.
        dest_id: list[int] = (
            [path_list[i][last[i]] for i in range(n)] if capacity is not None else []
        )

        # ---- intern every link each path crosses to a dense index ------
        link_of: dict[int, int] = {}
        link_src: list[int] = []
        link_dst: list[int] = []
        link_rows: list[list[int]] = []
        if n and len({len(p) for p in path_list}) == 1:
            # Rectangular trajectory matrix: one np.unique interns all
            # links at C speed (the common case for compiled routes).
            # Padded rows contribute dest->dest self-loop codes; those
            # links exist but are never enqueued (a packet stops at
            # position ``last``), so they cost a few idle table slots.
            arr = (
                paths
                if isinstance(paths, np.ndarray)
                else np.asarray(path_list, dtype=np.int64)
            )
            if arr.shape[1] > 1:
                codes = arr[:, :-1] * num_nodes + arr[:, 1:]
                uniq, inverse = np.unique(codes, return_inverse=True)
                link_src = (uniq // num_nodes).tolist()
                link_dst = (uniq % num_nodes).tolist()
                link_rows = inverse.reshape(codes.shape).tolist()
                if on_arrival is not None or link_faults is not None:
                    # Spawned packets intern their links dynamically and
                    # must share the dense id space; fault views resolve
                    # their (u, w) pairs through the same code table.
                    link_of = dict(zip(uniq.tolist(), range(uniq.size)))
            else:
                link_rows = [[] for _ in range(n)]
        else:
            for path in path_list:
                link_rows.append(
                    self._intern_path(path, link_of, link_src, link_dst, num_nodes)
                )

        # ---- priority packing ------------------------------------------
        # Heap entries are packed ints ``(bias - prio, counter, index)``
        # with each field just wide enough for this run; the counter is
        # globally increasing, so ties within one link's heap break FIFO
        # — the same order as the reference FurthestFirstQueue's
        # per-queue counter.  The (priority | index) part of every key is
        # precomputed per link crossing, so a push ORs in the counter and
        # nothing else.
        prio_bias = idx_mask = shift_counter = shift_prio = 0
        kb_rows: list[list[int]] = []
        if use_heap:
            prio_arr = (
                priorities
                if isinstance(priorities, np.ndarray)
                else np.asarray([list(p) for p in priorities], dtype=np.int64)
            )
            if prio_arr.shape[0] != n:
                raise ValueError("one priority row per packet required")
            pmax = int(prio_arr.max()) if prio_arr.size else 0
            idx_bits = max(1, n.bit_length())
            counter_bits = max(1, (sum(last) + 1).bit_length())
            prio_bits = max(1, pmax.bit_length() + 1)
            prio_bias = 1 << prio_bits
            idx_mask = (1 << idx_bits) - 1
            shift_counter = idx_bits
            shift_prio = idx_bits + counter_bits
            if shift_prio + prio_bits + 1 <= 62 and prio_arr.size:
                kb = (prio_bias - prio_arr.astype(np.int64)) << shift_prio
                kb |= np.arange(n, dtype=np.int64)[:, None]
                kb_rows = kb.tolist()
            else:  # fields too wide for int64: pack in Python big ints
                kb_rows = [
                    [((prio_bias - p) << shift_prio) | i for p in row]
                    for i, row in enumerate(prio_arr.tolist())
                ]

        # Each packet's remaining itinerary as one C-level iterator:
        # exhaustion is delivery, so the hot loop does no bounds checks
        # or row indexing.  Heap mode keeps a parallel iterator of
        # precomputed key bases (two allocation-free next() calls beat a
        # zip tuple per hop).
        iters = [iter(link_rows[i][: last[i]]) for i in range(n)]
        kb_iters = (
            [iter(kb_rows[i][: last[i]]) for i in range(n)] if use_heap else []
        )

        # Each link's FIFO queue is threaded through the packets
        # themselves (a packet waits in at most one queue): q_head/q_tail
        # hold packet indices, q_next links them.  No per-link containers
        # to allocate, pushes and pops are pure list-index arithmetic.
        # Priority mode replaces the threading with per-link heaps of
        # packed integer keys.  A link is in ``active`` iff its queue is
        # nonempty (the rebuild after each transmission phase filters on
        # q_len, preserving the reference engine's activation order).
        n_links = len(link_src)
        q_head = [-1] * n_links
        q_tail = [-1] * n_links
        q_len = [0] * n_links
        q_next = [-1] * n
        q_heap: list[list[int]] = [[] for _ in range(n_links)] if use_heap else []
        push_counter = 0
        cindex: list[dict | None] = [None] * n_links
        active: list[int] = []

        max_queue = 0
        max_node_load = 0
        combines = 0
        remaining = n

        injections: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(all_packets):
            injections[p.injected_at].append(i)
        pending_times = sorted(injections, reverse=True)

        def deliver(i: int, t: int) -> None:
            nonlocal remaining
            stack = [i]
            while stack:
                j = stack.pop()
                if arrived[j] is None:
                    arrived[j] = t
                    remaining -= 1
                ch = children[j]
                if ch:
                    stack.extend(ch)

        def place(i: int, t: int) -> None:
            nonlocal remaining, max_queue, max_node_load, combines, push_counter
            if on_arrival is not None and hooked[i]:
                k = pos[i]
                here = path_list[i][k]
                key = trace_key(k, here) if trace_key is not None else here
                spawned = on_arrival(i, all_packets[i], key, t)
                if spawned:
                    for q_pkt, q_path in spawned:
                        q_path = list(q_path)
                        if q_path[0] != here:
                            raise ValueError(
                                f"spawned packet {q_pkt.pid} starts at "
                                f"{q_path[0]}, expected {here}"
                            )
                        q_pkt.injected_at = t
                        all_packets.append(q_pkt)
                        path_list.append(q_path)
                        row = self._intern_path(
                            q_path, link_of, link_src, link_dst, num_nodes
                        )
                        link_rows.append(row)
                        iters.append(iter(row))
                        while len(q_head) < len(link_src):
                            q_head.append(-1)
                            q_tail.append(-1)
                            q_len.append(0)
                            cindex.append(None)
                        q_next.append(-1)
                        pos.append(0)
                        last.append(len(q_path) - 1)
                        if capacity is not None:
                            dest_id.append(q_path[-1])
                        arrived.append(None)
                        combined_flag.append(False)
                        children.append(None)
                        if combine:
                            ckeys.append(q_pkt.combine_key)
                        hooked.append(
                            True if hook_filter is None else bool(hook_filter(q_pkt))
                        )
                        remaining += 1
                        place(len(all_packets) - 1, t)
            li = next(iters[i], None)
            if li is None:
                if fc is not None:
                    pending_escape.pop(i, None)
                deliver(i, t)
                return
            if use_heap:
                # Consumed even on an escape landing: the kb iterator
                # must stay aligned with the link iterator (an escape
                # crossing simply never enters a heap).
                kb = next(kb_iters[i])
            if fc is not None:
                el = pending_escape.pop(i, None)
                if el is not None:
                    # The packet crossed link `el` into its escape
                    # buffer; it advances from there (skipping bulk
                    # queues and combining) until a credit frees up.
                    fc.occupy(el, i, li)
                    return
            if combine:
                key = ckeys[i]
                if key is not None:
                    index = cindex[li]
                    if index is None:
                        index = cindex[li] = {}
                    host = index.get(key)
                    if host is not None:
                        ch = children[host]
                        if ch is None:
                            ch = children[host] = []
                        ch.append(i)
                        combined_flag[i] = True
                        combines += 1
                        return
                    index[key] = i
            if use_heap:
                heappush(q_heap[li], kb | (push_counter << shift_counter))
                push_counter += 1
            else:
                tail = q_tail[li]
                if tail < 0:
                    q_head[li] = i
                else:
                    q_next[tail] = i
                q_tail[li] = i
                q_next[i] = -1
            length = q_len[li] + 1
            q_len[li] = length
            if length == 1:
                active.append(li)
            u = link_src[li]
            load = node_load[u] + 1
            node_load[u] = load
            if length > max_queue:
                max_queue = length
            if load > max_node_load:
                max_node_load = load

        t = 0
        deadlocked = False
        fault_stalls = 0
        f_blocked_li: set[int] | None = None
        if link_faults is not None:
            # Fault pairs resolve through link_of (code -> dense index);
            # the static part is cached per timeline segment.
            f_last_static: frozenset | None = None
            f_static_li: set[int] = set()
            f_n_links = len(link_src)
        simple = capacity is None and service_rate is None
        if not simple:
            # Constrained transmission state and helpers, hoisted out of
            # the step loop (they'd otherwise be rebuilt every step):
            # mirror the reference engine's reserve-as-you-transmit
            # capacity discipline and service-rate slot filling
            # (stalled links keep their slots for ready siblings).
            arrivals: list[int] = []
            arrivals_append = arrivals.append
            reserved: dict[int, int] = {}
            used: set[int] = set()

            def stalled(li: int) -> bool:
                w = link_dst[li]
                if node_load[w] + reserved.get(w, 0) < capacity:
                    return False
                head = (q_heap[li][0] & idx_mask) if use_heap else q_head[li]
                return dest_id[head] != w

            def transmit(li: int, reserve: bool = True) -> int:
                # reserve=False is the escape landing: the packet
                # crosses into the link's dedicated escape buffer, so
                # it claims no bulk slot at the target.
                if use_heap:
                    i = heappop(q_heap[li]) & idx_mask
                else:
                    i = q_head[li]
                    q_head[li] = q_next[i]
                    if q_len[li] == 1:
                        q_tail[li] = -1
                q_len[li] -= 1
                if combine:
                    key = ckeys[i]
                    if key is not None:
                        index = cindex[li]
                        if index.get(key) == i:
                            del index[key]
                if reserve and capacity is not None:
                    w = link_dst[li]
                    if dest_id[i] != w:
                        reserved[w] = reserved.get(w, 0) + 1
                node_load[link_src[li]] -= 1
                pos[i] += 1
                arrivals_append(i)
                return i

        while remaining > 0:
            while pending_times and pending_times[-1] <= t:
                for i in injections[pending_times.pop()]:
                    place(i, t)
            if remaining == 0:
                break
            if t >= max_steps:
                break
            if (
                not active
                and not pending_times
                and (fc is None or not fc.escape_at)
            ):
                raise RuntimeError(
                    f"{remaining} packets undeliverable: network drained at t={t}"
                )

            fault_blocked_step = False
            if link_faults is not None:
                fstatic, fextra = link_faults.parts_at(fault_base + t)
                if fstatic is not f_last_static or len(link_src) != f_n_links:
                    f_static_li = set()
                    for u, w in sorted(fstatic):
                        li = link_of.get(u * num_nodes + w)
                        if li is not None:
                            f_static_li.add(li)
                    f_last_static = fstatic
                    f_n_links = len(link_src)
                if fextra:
                    f_blocked_li = set(f_static_li)
                    for u, w in fextra:
                        li = link_of.get(u * num_nodes + w)
                        if li is not None:
                            f_blocked_li.add(li)
                else:
                    f_blocked_li = f_static_li or None
            if simple:
                arrivals = []
                arrivals_append = arrivals.append
            else:
                arrivals.clear()
                reserved.clear()
                used.clear()
            _tx0 = wall_time() if _prof is not None else 0.0
            _esc_dt = 0.0
            if simple and not use_heap:
                for li in active:
                    if f_blocked_li is not None and li in f_blocked_li:
                        fault_stalls += 1
                        fault_blocked_step = True
                        continue
                    i = q_head[li]
                    q_head[li] = q_next[i]
                    q_len[li] -= 1
                    if combine:
                        key = ckeys[i]
                        if key is not None:
                            index = cindex[li]
                            if index.get(key) == i:
                                del index[key]
                    node_load[link_src[li]] -= 1
                    pos[i] += 1
                    arrivals_append(i)
                    if q_len[li] == 0:
                        q_tail[li] = -1
            elif simple:
                for li in active:
                    if f_blocked_li is not None and li in f_blocked_li:
                        fault_stalls += 1
                        fault_blocked_step = True
                        continue
                    i = heappop(q_heap[li]) & idx_mask
                    q_len[li] -= 1
                    if combine:
                        key = ckeys[i]
                        if key is not None:
                            index = cindex[li]
                            if index.get(key) == i:
                                del index[key]
                    node_load[link_src[li]] -= 1
                    pos[i] += 1
                    arrivals_append(i)
            else:
                if fc is not None:
                    # Escape subphase: occupants advance first (absolute
                    # priority on their next link), in occupancy order;
                    # `used` then blocks the bulk heads of those links.
                    # Mirrors the reference engine statement for
                    # statement — same orders, same counters.
                    _esc0 = wall_time() if _prof is not None else 0.0
                    for el in list(fc.escape_at):
                        i = fc.escape_at[el]
                        nl = fc.escape_next[el]
                        if f_blocked_li is not None and nl in f_blocked_li:
                            fault_stalls += 1
                            fault_blocked_step = True
                            continue
                        if nl in used:
                            fc.stall()
                            continue
                        w = link_dst[nl]
                        if dest_id[i] != w:
                            if node_load[w] + reserved.get(w, 0) < capacity:
                                reserved[w] = reserved.get(w, 0) + 1
                            elif fc.available(nl):
                                fc.claim(nl)
                                pending_escape[i] = nl
                            else:
                                fc.stall()
                                continue
                        used.add(nl)
                        fc.vacate(el)
                        pos[i] += 1
                        arrivals_append(i)
                    if _prof is not None:
                        _esc_dt = wall_time() - _esc0
                        _prof.add_phase("escape", _esc_dt)
                    # Bulk subphase: credit-starved heads take the
                    # escape buffer of the link they cross.
                    for li in active:
                        if f_blocked_li is not None and li in f_blocked_li:
                            fault_stalls += 1
                            fault_blocked_step = True
                            continue
                        if li in used:
                            fc.stall()
                            continue
                        if not stalled(li):
                            transmit(li)
                        elif fc.available(li):
                            fc.claim(li)
                            pending_escape[transmit(li, reserve=False)] = li
                        else:
                            fc.stall()
                elif service_rate is None:
                    for li in active:
                        if f_blocked_li is not None and li in f_blocked_li:
                            fault_stalls += 1
                            fault_blocked_step = True
                            continue
                        if stalled(li):
                            continue  # backpressure: hold the link this step
                        transmit(li)
                else:
                    by_node: dict[int, list[int]] = {}
                    for li in active:
                        by_node.setdefault(link_src[li], []).append(li)
                    for _u, links in by_node.items():
                        # Stable sort + activation-ordered `active`: ties
                        # go to the link that became active first.
                        links.sort(key=lambda l: -q_len[l])
                        slots = service_rate
                        for li in links:
                            if slots == 0:
                                break
                            if f_blocked_li is not None and li in f_blocked_li:
                                fault_stalls += 1
                                fault_blocked_step = True
                                continue
                            if capacity is not None and stalled(li):
                                continue  # stalled links don't burn slots
                            transmit(li)
                            slots -= 1
            active = [li for li in active if q_len[li]]
            if _prof is not None:
                _prof.add_phase("transmission", wall_time() - _tx0 - _esc_dt)
            if _rec is not None:
                _rec.record(
                    "engine_step",
                    virtual_clock=t,
                    arrivals=len(arrivals),
                    active_links=len(active),
                    remaining=remaining,
                    fault_stalls=fault_stalls,
                )

            if not arrivals and not pending_times and not fault_blocked_step:
                # No transmission, no future injections, and nothing held
                # back by a (possibly transient) fault: the state is
                # provably static forever.  Report instead of spinning.
                deadlocked = True
                break

            t += 1
            _a0 = wall_time() if _prof is not None else 0.0
            if on_arrival is not None or fc is not None:
                for i in arrivals:
                    place(i, t)
            elif use_heap:
                # Hot path: hook-free arrivals are placed inline, saving
                # a Python call (and the hook/spawn checks) per hop.
                for i in arrivals:
                    li = next(iters[i], None)
                    if li is None:
                        if combine:
                            deliver(i, t)
                        else:
                            arrived[i] = t
                            remaining -= 1
                        continue
                    kb = next(kb_iters[i])
                    if combine:
                        key = ckeys[i]
                        if key is not None:
                            index = cindex[li]
                            if index is None:
                                index = cindex[li] = {}
                            host = index.get(key)
                            if host is not None:
                                ch = children[host]
                                if ch is None:
                                    ch = children[host] = []
                                ch.append(i)
                                combined_flag[i] = True
                                combines += 1
                                continue
                            index[key] = i
                    heappush(q_heap[li], kb | (push_counter << shift_counter))
                    push_counter += 1
                    length = q_len[li] + 1
                    q_len[li] = length
                    if length == 1:
                        active.append(li)
                    u = link_src[li]
                    load = node_load[u] + 1
                    node_load[u] = load
                    if length > max_queue:
                        max_queue = length
                    if load > max_node_load:
                        max_node_load = load
            else:
                for i in arrivals:
                    li = next(iters[i], None)
                    if li is None:
                        if combine:
                            deliver(i, t)
                        else:
                            arrived[i] = t
                            remaining -= 1
                        continue
                    if combine:
                        key = ckeys[i]
                        if key is not None:
                            index = cindex[li]
                            if index is None:
                                index = cindex[li] = {}
                            host = index.get(key)
                            if host is not None:
                                ch = children[host]
                                if ch is None:
                                    ch = children[host] = []
                                ch.append(i)
                                combined_flag[i] = True
                                combines += 1
                                continue
                            index[key] = i
                    tail = q_tail[li]
                    if tail < 0:
                        q_head[li] = i
                    else:
                        q_next[tail] = i
                    q_tail[li] = i
                    q_next[i] = -1
                    length = q_len[li] + 1
                    q_len[li] = length
                    if length == 1:
                        active.append(li)
                    u = link_src[li]
                    load = node_load[u] + 1
                    node_load[u] = load
                    if length > max_queue:
                        max_queue = length
                    if load > max_node_load:
                        max_node_load = load
            if _prof is not None:
                _prof.add_phase("arrival", wall_time() - _a0)

        if _prof is not None:
            _prof.add_mode("event", wall_time() - _t_run0)
        completed = remaining == 0
        track = self.track_paths
        tkey = trace_key if trace_key is not None else node_key
        for i, p in enumerate(all_packets):
            k = pos[i]
            path = path_list[i]
            p.hops = k
            p.arrived_at = arrived[i]
            p.combined = combined_flag[i]
            ch = children[i]
            p.children = [all_packets[j] for j in ch] if ch else None
            p.node = node_key(k, path[k]) if node_key is not None else path[k]
            if track:
                if tkey is not None:
                    p.trace = [tkey(j, path[j]) for j in range(k + 1)]
                else:
                    p.trace = path[: k + 1]
        stats = collect_stats(
            all_packets,
            steps=t,
            max_queue=max_queue,
            completed=completed,
            combines=combines,
            max_node_load=max_node_load,
            credits_stalled=fc.credits_stalled if fc is not None else 0,
            escape_hops=fc.escape_hops if fc is not None else 0,
            fault_stalls=fault_stalls,
            run_mode="event",
        )
        if deadlocked:
            err = DeadlockError(
                stats, detail=no_progress_detail(t, remaining, len(active), fc)
            )
            if _obs is not None:
                err.flight_tail = _obs.flight_tail()
            raise err
        if not completed and raise_on_timeout:
            raise RoutingTimeout(stats)
        return stats

    def _run_batch(
        self,
        all_packets: list[Packet],
        path_arr: np.ndarray,
        last: np.ndarray,
        priorities,
        *,
        links: tuple[np.ndarray, np.ndarray] | None,
        spawn_plan: "list[tuple[int, int, list[int]]] | None" = None,
        num_nodes: int,
        max_steps: int,
        raise_on_timeout: bool,
        node_key,
        trace_key,
        link_faults=None,
        fault_base: int = 0,
    ) -> RoutingStats:
        """Vectorized replay: whole phases as array operations.

        Queue state lives in flat arrays over *virtual links* — a
        (link, priority-class) pair — each holding an intrusive FIFO
        chain of packet indices.  A link's pop takes the head of its
        highest nonempty class (largest priority first, FIFO among ties:
        exactly the reference FurthestFirstQueue order, since two equal
        priorities pop in push order).  The per-link maximum class is
        maintained lazily: pushes raise it with ``np.maximum.at``, pops
        let it go stale and the transmission phase walks it down until
        it hits a nonempty class — amortized O(1) per event, all masked
        vector ops.  FIFO discipline is the one-class special case.

        Reference-order equivalence: links transmit in activation order
        (first arrival first), packets that arrive at one link in one
        step enqueue in transmission order of their source links, and
        both orders are preserved here by stable grouping — see the
        differential tests.

        CRCW combining vectorizes through interned (link, combine-group)
        codes: a link holds at most one resident packet per combine key
        (an arrival matching a resident is absorbed instead of queued),
        so the combine index is a flat ``host_at`` array over the
        interned codes — gathers find hosts, scatters claim and release
        them, and absorption trees are kept as parent pointers plus
        subtree sizes (resolved to the reference engine's delivery
        cascade after the run).

        Constrained mode (``node_capacity``, flow_control "none" or
        "credit") keeps the same queue/arrival machinery and replaces
        only the transmission phase with *batch credit accounting*: the
        active links are classified vectorized into a **sure** majority
        — exempt heads (delivered at the link's target) and links whose
        target provably has credits for every comer this step
        (``load + reserved + incoming_nonexempt <= capacity`` means no
        processing order can starve them) — and a **contended** residue
        replayed scalar in exact reference activation order.  The only
        cross-class coupling is departures out of a contended link's
        target by sure links earlier in the order; those are resolved
        with one vectorized rank query (sorted (src, position) keys +
        ``np.searchsorted``) before the scalar walk, so the walk touches
        contended links only.  Escape-buffer occupancy lives in a
        :class:`CreditState` keyed by dense link id (each directed
        link's id *is* its escape slot), identical to the per-event
        loop, and a no-progress step raises :class:`DeadlockError`.
        """
        n, width = path_arr.shape
        capacity = self.node_capacity
        _obs = self.observer
        _prof = _obs.profile if _obs is not None else None
        _rec = _obs.recorder if _obs is not None else None
        fc = CreditState() if self.flow_control == "credit" else None
        self.last_run_mode = "batch" if capacity is None else "batch-constrained"
        link_dst: np.ndarray | None = None
        if links is not None:
            if len(links) == 3:
                link_mat, link_src, link_dst = links
                link_dst = np.asarray(link_dst, dtype=np.int64)
            else:
                link_mat, link_src = links
            link_mat = np.asarray(link_mat, dtype=np.int64)
            link_src = np.asarray(link_src, dtype=np.int64)
            if link_mat.shape != (n, max(width - 1, 0)):
                raise ValueError("links matrix must align with the path matrix")
            if (
                (capacity is not None or link_faults is not None)
                and link_dst is None
                and width > 1
            ):
                # Derive each link's target by scattering the path
                # matrix over the traversed positions (all writers of a
                # link agree by construction).  Padded positions are
                # excluded: a pad column repeats the destination, and
                # arithmetic id schemes may map that self-loop onto a
                # *real* link's id, which the scatter must not clobber.
                link_dst = np.zeros(link_src.size, dtype=np.int64)
                traversed = (
                    np.arange(width - 1, dtype=np.int64)[None, :]
                    < last[:, None]
                )
                link_dst[link_mat[traversed]] = path_arr[:, 1:][traversed]
        elif width > 1:
            codes = path_arr[:, :-1] * num_nodes + path_arr[:, 1:]
            uniq, inverse = np.unique(codes, return_inverse=True)
            link_src = (uniq // num_nodes).astype(np.int64)
            link_dst = (uniq % num_nodes).astype(np.int64)
            link_mat = inverse.reshape(codes.shape).astype(np.int64)
        else:
            link_src = np.empty(0, dtype=np.int64)
            link_dst = np.empty(0, dtype=np.int64)
            link_mat = np.empty((n, 0), dtype=np.int64)
        n_links = int(link_src.size)
        if capacity is not None and link_dst is None:
            link_dst = np.empty(0, dtype=np.int64)

        if priorities is None:
            n_classes = 1
            cls_mat = None
        else:
            prio_arr = (
                priorities
                if isinstance(priorities, np.ndarray)
                else np.asarray(priorities, dtype=np.int64)
            )
            if prio_arr.shape[0] != n:
                raise ValueError("one priority row per packet required")
            pmin = int(prio_arr.min()) if prio_arr.size else 0
            pmax = int(prio_arr.max()) if prio_arr.size else 0
            n_classes = pmax - pmin + 1
            cls_mat = (prio_arr - pmin).astype(np.int64)

        combine = self.combine
        combines = 0
        spawn_mode = bool(spawn_plan)
        if spawn_mode:
            if combine:
                raise ValueError("spawn_plan and combining are mutually exclusive")
            # Per-parent spawn schedule, sorted by trigger position; a
            # packet's next pending trigger lives in ``nsp`` so the hot
            # loop detects hits with one vector compare.
            sched: dict[int, list] = {}
            dormant = np.zeros(n, dtype=bool)
            for par, q, kids in spawn_plan:
                sched.setdefault(par, []).append((q, list(kids)))
                for c in kids:
                    dormant[c] = True
            for entries in sched.values():
                entries.sort(key=lambda e: e[0])
                for j in range(len(entries) - 1):
                    if entries[j][0] == entries[j + 1][0]:
                        raise ValueError("duplicate spawn position for one parent")
            nsp = np.full(n, -9, dtype=np.int64)
            for par, entries in sched.items():
                nsp[par] = entries[0][0]
            is_root = ~dormant
            injected_at_arr = np.fromiter(
                (p.injected_at for p in all_packets), dtype=np.int64, count=n
            )
            spawn_seq: list[int] = []
        if combine:
            # Dense combine-group ids: packets share a gid iff they share
            # a combine key; keyless packets get singleton gids.
            gid = np.empty(n, dtype=np.int64)
            key_ids: dict = {}
            next_gid = 0
            for i, p in enumerate(all_packets):
                key = p.combine_key
                if key is None:
                    gid[i] = next_gid
                    next_gid += 1
                else:
                    g = key_ids.get(key)
                    if g is None:
                        g = key_ids[key] = next_gid
                        next_gid += 1
                    gid[i] = g
            vc_codes = link_mat * np.int64(max(next_gid, 1)) + gid[:, None]
            vc_uniq, vc_inv = np.unique(vc_codes, return_inverse=True)
            vc_mat = vc_inv.reshape(vc_codes.shape)
            #: resident host per interned (link, gid) code, -1 if none
            host_at = np.full(vc_uniq.size, -1, dtype=np.int64)
            parent = np.full(n, -1, dtype=np.int64)
            subtree = np.ones(n, dtype=np.int64)
            combined_arr = np.zeros(n, dtype=bool)
            child_pairs: list[tuple[np.ndarray, np.ndarray]] = []

        # All-int64 state: values double as fancy indices, and mixed
        # dtypes make numpy recast index arrays (and buffer ufunc.at
        # operands) on every call.
        n_virtual = n_links * n_classes
        q_head = np.full(n_virtual, -1, dtype=np.int64)
        q_tail = np.full(n_virtual, -1, dtype=np.int64)
        q_next = np.full(n, -1, dtype=np.int64)
        # With one class a link's class-count IS its queue length.
        counts = np.zeros(n_virtual, dtype=np.int64) if n_classes > 1 else None
        cls_max = np.zeros(n_links, dtype=np.int64)
        q_len = np.zeros(n_links, dtype=np.int64)
        node_load = np.zeros(num_nodes, dtype=np.int64)
        pos = np.zeros(n, dtype=np.int64)
        arrived = np.full(n, -1, dtype=np.int64)

        #: links with queued packets, in activation order
        active = np.empty(0, dtype=np.int64)
        max_queue = 0
        max_node_load = 0
        fault_stalls = 0
        if link_faults is not None:
            # Fault pairs resolve to dense link ids through the interned
            # code table (built lazily on the first nonempty blocked
            # set); the boolean flag array is rebuilt only when the
            # blocked set actually changes (per timeline segment, plus
            # slow-link phase flips).  A code maps to a *list* of dense
            # ids: arithmetic link interning (mesh ``u*4+direction``,
            # leveled ``u*d+slot``) gives boundary nodes several slots
            # with the same (src, dst) endpoints, and a down wire must
            # block every slot that crosses it.
            f_code_li: dict[int, list[int]] | None = None
            f_flags = np.zeros(n_links, dtype=bool)
            f_cur = np.empty(0, dtype=np.int64)
            f_last_parts: tuple | None = None
        remaining = n - int(dormant.sum()) if spawn_mode else n
        # Scratch buffers for activation bookkeeping, reset after use.
        flag = np.zeros(n_links, dtype=bool)
        n_links_sentinel = np.int64(n + 1)
        first_at = np.full(n_links, n_links_sentinel, dtype=np.int64)
        deadlocked = False
        if capacity is not None:
            # Constrained-mode state: each packet's exit node (for the
            # delivered-at-target capacity exemption), per-step scratch
            # counters (zeroed lazily — only touched entries are reset),
            # and the escape-claim ledger (packet -> link crossed into
            # its escape buffer; resolved to an occupancy at admit time).
            dest_arr = (
                path_arr[np.arange(n), last]
                if n
                else np.empty(0, dtype=np.int64)
            )
            dest_l = dest_arr.tolist()
            link_dst_l = link_dst.tolist()
            inc_np = np.zeros(num_nodes, dtype=np.int64)
            res_np = np.zeros(num_nodes, dtype=np.int64)
            pending_escape: dict[int, int] = {}
            empty_i64 = np.empty(0, dtype=np.int64)
            # Membership scratch flags (reset after use): np.isin sorts
            # its operands, which dwarfs these O(1) scatter/gathers.
            used_flag = np.zeros(n_links, dtype=bool)
            pend_flag = np.zeros(n, dtype=bool)
            # Per-node counters for the scalar contended walk, as plain
            # Python lists (faster than dict.get chains and numpy
            # scalar indexing); only touched entries are reset.
            res_list = [0] * num_nodes
            dep_list = [0] * num_nodes

        inj_times: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(all_packets):
            if spawn_mode and dormant[i]:
                continue  # triggered later by its parent, not by time
            inj_times[p.injected_at].append(i)
        pending_times = sorted(inj_times, reverse=True)

        def admit(batch: np.ndarray, t: int):
            """Place a batch of packets (in order): deliver or enqueue."""
            nonlocal active, max_queue, max_node_load, remaining, combines
            k = pos[batch]
            if spawn_mode and (k == nsp[batch]).any():
                # Spawn triggers: expand the batch in place.  Matching
                # the reference hook order, a parent's spawned children
                # (and their own position-0 spawns, recursively) are
                # placed *before* the parent at the same node and step.
                out: list[int] = []

                def emit(i: int, ki: int) -> None:
                    nonlocal remaining
                    entries = sched.get(i)
                    if entries and entries[0][0] == ki:
                        _, kids = entries.pop(0)
                        nsp[i] = entries[0][0] if entries else -9
                        for c in kids:
                            dormant[c] = False
                            injected_at_arr[c] = t
                            remaining += 1
                            spawn_seq.append(c)
                            emit(c, 0)
                    out.append(i)

                for i, ki in zip(batch.tolist(), k.tolist()):
                    if ki == nsp[i]:
                        emit(i, ki)
                    else:
                        out.append(i)
                batch = np.asarray(out, dtype=np.int64)
                k = pos[batch]
            done = k == last[batch]
            done_idx = batch[done]
            if done_idx.size:
                arrived[done_idx] = t
                # A delivered host delivers its whole absorption subtree
                # (the reference engine's deliver cascade).
                remaining -= (
                    int(subtree[done_idx].sum()) if combine else int(done_idx.size)
                )
                batch = batch[~done]
                k = k[~done]
            if not batch.size:
                return
            if combine:
                # Group the batch stably by (link, combine key); each
                # group either absorbs into that code's resident host or
                # promotes its first member to host — exactly the
                # reference engine's arrival-by-arrival semantics, since
                # a code never holds two residents.
                _c0 = wall_time() if _prof is not None else 0.0
                vc = vc_mat[batch, k]
                order0 = np.argsort(
                    vc * np.int64(vc.size) + np.arange(vc.size, dtype=np.int64)
                )
                sv = vc[order0]
                si = batch[order0]
                firsts0 = np.empty(sv.shape, dtype=bool)
                firsts0[0] = True
                firsts0[1:] = sv[1:] != sv[:-1]
                grp = np.cumsum(firsts0) - 1
                ex_host = host_at[sv[firsts0]][grp]
                absorbed_s = (ex_host >= 0) | ~firsts0
                new_host = firsts0 & (ex_host < 0)
                host_at[sv[new_host]] = si[new_host]
                if absorbed_s.any():
                    host_elem = np.where(ex_host >= 0, ex_host, si[firsts0][grp])
                    ch = si[absorbed_s]
                    hs = host_elem[absorbed_s]
                    parent[ch] = hs
                    combined_arr[ch] = True
                    np.add.at(subtree, hs, subtree[ch])
                    combines += int(ch.size)
                    child_pairs.append((hs, ch))
                    keep = np.ones(batch.size, dtype=bool)
                    keep[order0[absorbed_s]] = False
                    batch = batch[keep]
                    k = k[keep]
                    if not batch.size:
                        if _prof is not None:
                            _prof.add_phase("combining", wall_time() - _c0)
                        return
                if _prof is not None:
                    _prof.add_phase("combining", wall_time() - _c0)
            li = link_mat[batch, k]
            if cls_mat is not None:
                cls = cls_mat[batch, k]
                vli = li * n_classes + cls
            else:
                cls = None
                vli = li
            # Stable grouping keeps, per virtual link, the batch's own
            # arrival order — the FIFO tie order of the reference engine.
            # Sorting (vli, position) as one combined key gives stable
            # group order with the default introsort (faster than a
            # stable mergesort on int64).
            order = np.argsort(
                vli * np.int64(li.size) + np.arange(li.size, dtype=np.int64)
            )
            s_v = vli[order]
            s_i = batch[order]
            same = np.empty(s_v.shape, dtype=bool)
            same[0] = False
            same[1:] = s_v[1:] == s_v[:-1]
            firsts = ~same
            lasts = np.empty(s_v.shape, dtype=bool)
            lasts[-1] = True
            lasts[:-1] = ~same[1:]
            # Thread each group's chain, then splice it onto the queue.
            q_next[s_i[lasts]] = -1
            intra_prev = s_i[:-1][same[1:]]
            if intra_prev.size:
                q_next[intra_prev] = s_i[1:][same[1:]]
            f_v = s_v[firsts]
            f_i = s_i[firsts]
            old_tail = q_tail[f_v]
            was_empty = old_tail < 0
            q_head[f_v[was_empty]] = f_i[was_empty]
            q_next[old_tail[~was_empty]] = f_i[~was_empty]
            q_tail[f_v] = s_i[lasts]
            pre_len = q_len[li]  # pre-batch lengths (gather before add)
            np.add.at(q_len, li, 1)
            if counts is not None:
                np.add.at(counts, vli, 1)
                np.maximum.at(cls_max, li, cls)
            srcs = link_src[li]
            np.add.at(node_load, srcs, 1)
            # Max stats only need the touched entries: within the phase
            # lengths/loads only grow, so the post-batch values are the
            # step's peaks (gathers see each link's final value at its
            # last duplicate).
            mq = int(q_len[li].max())
            if mq > max_queue:
                max_queue = mq
            mnl = int(node_load[srcs].max())
            if mnl > max_node_load:
                max_node_load = mnl
            # Newly activated links, ordered by their first arrival.
            was_idle = pre_len == 0
            if was_idle.any():
                idle_links = li[was_idle]
                flag[idle_links] = True
                newly = np.nonzero(flag)[0]
                flag[idle_links] = False  # reset the scratch buffer
                if newly.size > 1:
                    np.minimum.at(
                        first_at, idle_links,
                        np.nonzero(was_idle)[0].astype(np.int64),
                    )
                    newly = newly[np.argsort(first_at[newly], kind="stable")]
                    first_at[idle_links] = n_links_sentinel
                active = np.concatenate([active, newly])

        if _prof is not None:
            # Arrival-phase timing wraps admit(); combining time booked
            # inside it is subtracted so the phase buckets stay disjoint.
            _admit_raw = admit

            def admit(batch: np.ndarray, t: int):
                _a0 = wall_time()
                _c_before = _prof.phase_total("combining")
                _admit_raw(batch, t)
                _prof.add_phase(
                    "arrival",
                    (wall_time() - _a0)
                    - (_prof.phase_total("combining") - _c_before),
                )

        t = 0
        while remaining > 0:
            while pending_times and pending_times[-1] <= t:
                admit(
                    np.asarray(inj_times[pending_times.pop()], dtype=np.int64), t
                )
            if remaining == 0:
                break
            if t >= max_steps:
                break
            if (
                not active.size
                and not pending_times
                and (fc is None or not fc.escape_at)
            ):
                raise RuntimeError(
                    f"{remaining} packets undeliverable: network drained at t={t}"
                )

            fault_blocked_step = False
            f_any = False
            if link_faults is not None:
                parts = link_faults.parts_at(fault_base + t)
                if parts != f_last_parts:
                    fstatic, fextra = parts
                    f_flags[f_cur] = False
                    lis: list[int] = []
                    if fstatic or fextra:
                        if f_code_li is None:
                            f_code_li = {}
                            codes = (link_src * num_nodes + link_dst).tolist()
                            for li, code in enumerate(codes):
                                f_code_li.setdefault(code, []).append(li)
                        for u, w in sorted(fstatic):
                            lis.extend(f_code_li.get(u * num_nodes + w, ()))
                        for u, w in fextra:
                            lis.extend(f_code_li.get(u * num_nodes + w, ()))
                    f_cur = np.asarray(lis, dtype=np.int64)
                    f_flags[f_cur] = True
                    f_last_parts = parts
                f_any = f_cur.size > 0

            _tx0 = wall_time() if _prof is not None else 0.0
            _esc_dt = 0.0
            # Transmission: every active link pops the head of its
            # highest nonempty class (lazy walk-down of stale maxima;
            # the loop narrows to the still-stale subset, so total work
            # is amortized by pushes, not classes x active links).
            if n_classes > 1 and active.size:
                cls = cls_max[active]
                vli = active * n_classes + cls
                stale = np.nonzero(counts[vli] == 0)[0]
                while stale.size:
                    cls[stale] -= 1
                    vli[stale] -= 1
                    stale = stale[counts[vli[stale]] == 0]
                cls_max[active] = cls
            else:
                vli = active
            heads = q_head[vli]
            if capacity is None:
                if f_any and active.size:
                    keep = ~f_flags[active]
                    nblocked = int(active.size) - int(keep.sum())
                else:
                    nblocked = 0
                if nblocked:
                    # Fault-blocked links hold their queues this step;
                    # the unblocked subset transmits exactly as below.
                    fault_stalls += nblocked
                    fault_blocked_step = True
                    vli_s = vli[keep]
                    heads_s = heads[keep]
                    act_s = active[keep]
                    nxt = q_next[heads_s]
                    q_head[vli_s] = nxt
                    q_tail[vli_s[nxt < 0]] = -1
                    if counts is not None:
                        counts[vli_s] -= 1
                    if combine:
                        vc_pop = vc_mat[heads_s, pos[heads_s]]
                        mine = host_at[vc_pop] == heads_s
                        host_at[vc_pop[mine]] = -1
                    q_len[act_s] -= 1
                    np.subtract.at(node_load, link_src[act_s], 1)
                    pos[heads_s] += 1
                    arrivals = heads_s
                    active = active[q_len[active] > 0]
                else:
                    nxt = q_next[heads]
                    q_head[vli] = nxt
                    q_tail[vli[nxt < 0]] = -1
                    if counts is not None:
                        counts[vli] -= 1
                    if combine:
                        # A departing host releases its combine-code
                        # residency.
                        vc_pop = vc_mat[heads, pos[heads]]
                        mine = host_at[vc_pop] == heads
                        host_at[vc_pop[mine]] = -1
                    ql_after = q_len[active] - 1
                    q_len[active] = ql_after
                    np.subtract.at(node_load, link_src[active], 1)
                    pos[heads] += 1
                    arrivals = heads
                    active = active[ql_after > 0]
            else:
                # ---- constrained transmission: batch credit accounting.
                # Escape subphase first, exactly like the reference
                # engine: occupants advance in occupancy order (absolute
                # priority on their next link); `used` then blocks the
                # bulk heads of those links.
                esc_arrivals: list[int] = []
                used: set[int] = set()
                reserved: dict[int, int] = {}
                if fc is not None and fc.escape_at:
                    # node_load is static for the whole subphase (pops
                    # and enqueues happen later), so gather the target
                    # loads once instead of per-occupant scalar reads.
                    # CreditState's dict ops are inlined: this loop runs
                    # once per occupant per step.
                    _esc0 = wall_time() if _prof is not None else 0.0
                    esc_at = fc.escape_at
                    esc_next = fc.escape_next
                    stalls = 0
                    ehops = 0
                    esc_snapshot = list(esc_at.items())
                    nls = [esc_next[el] for el, _ in esc_snapshot]
                    load_at = node_load[link_dst[nls]].tolist() if nls else []
                    for (el, i), nl, ld in zip(esc_snapshot, nls, load_at):
                        if f_any and f_flags[nl]:
                            fault_stalls += 1
                            fault_blocked_step = True
                            continue
                        if nl in used:
                            stalls += 1
                            continue
                        w = link_dst_l[nl]
                        if dest_l[i] != w:
                            if ld + reserved.get(w, 0) < capacity:
                                reserved[w] = reserved.get(w, 0) + 1
                            elif nl not in esc_at:
                                ehops += 1
                                pending_escape[i] = nl
                            else:
                                stalls += 1
                                continue
                        used.add(nl)
                        del esc_at[el]
                        del esc_next[el]
                        esc_arrivals.append(i)
                    fc.credits_stalled += stalls
                    fc.escape_hops += ehops
                    if esc_arrivals:
                        pos[np.asarray(esc_arrivals, dtype=np.int64)] += 1
                    if _prof is not None:
                        _esc_dt = wall_time() - _esc0
                        _prof.add_phase("escape", _esc_dt)
                # Bulk subphase, vectorized: a link is **sure** to
                # transmit when its head exits at the target (capacity
                # exemption) or when the target has room for every
                # comer this step no matter the order — `node_load`
                # only falls and `reserved` grows at most by the other
                # non-exempt in-links, so
                # ``load + reserved + incoming_nonexempt <= capacity``
                # is order-independent.  Everything else is contended
                # and replayed scalar in activation order below.
                if active.size:
                    w_arr = link_dst[active]
                    dec = dest_arr[heads] == w_arr  # exempt heads
                    fb = None
                    if f_any:
                        fb = f_flags[active]
                        nb = int(fb.sum())
                        if nb:
                            # A blocked wire never transmits, exempt head
                            # or not; counted as fault stalls, never as
                            # credit stalls (reference order: the fault
                            # check precedes every other stall reason).
                            fault_stalls += nb
                            fault_blocked_step = True
                            dec &= ~fb
                        else:
                            fb = None
                    if used:
                        used_list = sorted(used)
                        used_flag[used_list] = True
                        blocked = used_flag[active]
                        used_flag[used_list] = False
                        if fb is not None:
                            blocked &= ~fb
                        fc.credits_stalled += int(blocked.sum())
                        nonex = ~dec & ~blocked
                    else:
                        blocked = None
                        nonex = ~dec
                    if fb is not None:
                        nonex &= ~fb
                    tgt = w_arr[nonex]
                    np.add.at(inc_np, tgt, 1)
                    budget_at_w = node_load[w_arr] + inc_np[w_arr]
                    inc_np[tgt] = 0
                    if reserved:
                        for wn, v in reserved.items():
                            res_np[wn] = v
                        budget_at_w += res_np[w_arr]
                        for wn in reserved:
                            res_np[wn] = 0
                    fine = budget_at_w <= capacity
                    contended = nonex & ~fine
                    dec |= fine
                    if blocked is not None:
                        dec &= ~blocked
                    if fb is not None:
                        dec &= ~fb
                    c_idx = np.nonzero(contended)[0]
                    if c_idx.size:
                        # Sure links settle before the scalar walk; the
                        # only effect they have on a contended link is a
                        # departure out of its (congested) target — a
                        # rank query "sure links with src == w before
                        # position p", answered for all contended links
                        # with two vectorized searchsorteds.
                        c_links = active[c_idx]
                        c_w = w_arr[c_idx]
                        c_heads = heads[c_idx]
                        c_src = link_src[c_links]
                        c_load = node_load[c_w]
                        s_idx = np.nonzero(dec)[0]
                        a1 = np.int64(active.size + 1)
                        if s_idx.size:
                            s_key = link_src[active[s_idx]] * a1 + s_idx
                            s_key.sort()
                            c_sdep = np.searchsorted(
                                s_key, c_w * a1 + c_idx
                            ) - np.searchsorted(s_key, c_w * a1)
                        else:
                            c_sdep = np.zeros(c_idx.size, dtype=np.int64)
                        c_w_l = c_w.tolist()
                        c_src_l = c_src.tolist()
                        res_l = res_list
                        dep_l = dep_list
                        if reserved:
                            for wn, v in reserved.items():
                                res_l[wn] = v
                        esc_at = fc.escape_at if fc is not None else None
                        stalls = 0
                        ehops = 0
                        c_dec = []
                        c_append = c_dec.append
                        for li, wn, src, h, sd, ld in zip(
                            c_links.tolist(),
                            c_w_l,
                            c_src_l,
                            c_heads.tolist(),
                            c_sdep.tolist(),
                            c_load.tolist(),
                        ):
                            if ld - sd - dep_l[wn] + res_l[wn] < capacity:
                                res_l[wn] += 1
                                dep_l[src] += 1
                                c_append(True)
                            elif esc_at is not None and li not in esc_at:
                                # Credit-starved head takes the escape
                                # buffer of the link it crosses.
                                ehops += 1
                                pending_escape[h] = li
                                dep_l[src] += 1
                                c_append(True)
                            else:
                                stalls += 1
                                c_append(False)
                        if fc is not None:
                            fc.credits_stalled += stalls
                            fc.escape_hops += ehops
                        # Reset the touched per-node counters.
                        for wn in c_w_l:
                            res_l[wn] = 0
                        for src in c_src_l:
                            dep_l[src] = 0
                        if reserved:
                            for wn in reserved:
                                res_l[wn] = 0
                        dec[c_idx] = c_dec
                    t_sel = np.nonzero(dec)[0]
                    if t_sel.size:
                        tr = active[t_sel]
                        vli_t = vli[t_sel]
                        heads_t = heads[t_sel]
                        nxt = q_next[heads_t]
                        q_head[vli_t] = nxt
                        q_tail[vli_t[nxt < 0]] = -1
                        if counts is not None:
                            counts[vli_t] -= 1
                        if combine:
                            vc_pop = vc_mat[heads_t, pos[heads_t]]
                            mine = host_at[vc_pop] == heads_t
                            host_at[vc_pop[mine]] = -1
                        q_len[tr] -= 1
                        np.subtract.at(node_load, link_src[tr], 1)
                        pos[heads_t] += 1
                        bulk_arrivals = heads_t
                        active = active[q_len[active] > 0]
                    else:
                        bulk_arrivals = empty_i64
                else:
                    bulk_arrivals = empty_i64
                if esc_arrivals:
                    arrivals = np.concatenate(
                        [np.asarray(esc_arrivals, dtype=np.int64), bulk_arrivals]
                    )
                else:
                    arrivals = bulk_arrivals
                if (
                    not arrivals.size
                    and not pending_times
                    and not fault_blocked_step
                ):
                    # No transmission, no future injections, and nothing
                    # held back by a (possibly transient) fault: the
                    # state is provably static forever.  Report instead
                    # of spinning (the reference engine's detector).
                    if _prof is not None:
                        _prof.add_phase(
                            "transmission", wall_time() - _tx0 - _esc_dt
                        )
                    if _rec is not None:
                        _rec.record(
                            "engine_step",
                            virtual_clock=t,
                            arrivals=0,
                            active_links=int(active.size),
                            remaining=remaining,
                            fault_stalls=fault_stalls,
                        )
                    deadlocked = True
                    break

            if _prof is not None:
                _prof.add_phase("transmission", wall_time() - _tx0 - _esc_dt)
            if _rec is not None:
                _rec.record(
                    "engine_step",
                    virtual_clock=t,
                    arrivals=int(arrivals.size),
                    active_links=int(active.size),
                    remaining=remaining,
                    fault_stalls=fault_stalls,
                )
            t += 1
            if capacity is not None and pending_escape:
                # Escape landings occupy their buffer instead of
                # enqueueing; occupancy order is arrival order, exactly
                # the reference engine's place() order.
                _el0 = wall_time() if _prof is not None else 0.0
                pe = list(pending_escape)
                pend_flag[pe] = True
                pmask = pend_flag[arrivals]
                pend_flag[pe] = False
                landed = arrivals[pmask]
                esc_at = fc.escape_at
                esc_next = fc.escape_next
                for i, nl in zip(
                    landed.tolist(), link_mat[landed, pos[landed]].tolist()
                ):
                    el = pending_escape.pop(i)
                    esc_at[el] = i
                    esc_next[el] = nl
                arrivals = arrivals[~pmask]
                if _prof is not None:
                    _prof.add_phase("escape", wall_time() - _el0)
            if arrivals.size:
                admit(arrivals, t)

        completed = remaining == 0
        track = self.track_paths
        tkey = trace_key if trace_key is not None else node_key
        children_map: dict[int, list[int]] = {}
        if combine:
            # Absorbed packets arrive when their absorption root does
            # (the deliver cascade), and hosts get their children lists
            # in absorption order.
            parent_l = parent.tolist()
            arrived_l0 = arrived.tolist()
            for j, par in enumerate(parent_l):
                if par >= 0:
                    root = par
                    while parent_l[root] >= 0:
                        root = parent_l[root]
                    arrived[j] = arrived_l0[root]
            for hs, ch in child_pairs:
                for h, c in zip(hs.tolist(), ch.tolist()):
                    children_map.setdefault(h, []).append(c)
        pos_l = pos.tolist()
        arrived_l = arrived.tolist()
        node_vals = path_arr[np.arange(n), pos].tolist()
        path_rows = path_arr.tolist() if track else None
        combined_l = combined_arr.tolist() if combine else None
        if spawn_mode:
            # Never-triggered packets were never part of the run; stats
            # cover roots (input order) then spawned packets in spawn
            # order — the reference engine's dynamic append order.
            sel = np.nonzero(is_root)[0].tolist() + spawn_seq
            inj_l = injected_at_arr.tolist()
        else:
            sel = range(n)
            inj_l = None
        # Note: without combining, combined/children keep their
        # Packet-constructor defaults — matching the reference engine,
        # which also only touches them through combining.
        stats_packets = []
        for i in sel:
            p = all_packets[i]
            stats_packets.append(p)
            k = pos_l[i]
            a = arrived_l[i]
            nv = node_vals[i]
            p.hops = k
            p.arrived_at = None if a < 0 else a
            p.node = node_key(k, nv) if node_key is not None else nv
            if inj_l is not None:
                p.injected_at = inj_l[i]
            if combine:
                p.combined = combined_l[i]
                ch = children_map.get(i)
                p.children = [all_packets[j] for j in ch] if ch else None
            if track:
                path = path_rows[i]
                if tkey is not None:
                    p.trace = [tkey(j, path[j]) for j in range(k + 1)]
                else:
                    p.trace = path[: k + 1]
        stats = collect_stats(
            stats_packets,
            steps=t,
            max_queue=max_queue,
            completed=completed,
            combines=combines,
            max_node_load=max_node_load,
            credits_stalled=fc.credits_stalled if fc is not None else 0,
            escape_hops=fc.escape_hops if fc is not None else 0,
            fault_stalls=fault_stalls,
            run_mode=self.last_run_mode,
        )
        if deadlocked:
            err = DeadlockError(
                stats,
                detail=no_progress_detail(t, remaining, int(active.size), fc),
            )
            if _obs is not None:
                err.flight_tail = _obs.flight_tail()
            raise err
        if not completed and raise_on_timeout:
            raise RoutingTimeout(stats)
        return stats

    @staticmethod
    def _intern_path(
        path: list[int],
        link_of: dict[int, int],
        link_src: list[int],
        link_dst: list[int],
        num_nodes: int,
    ) -> list[int]:
        """Dense link index per hop of *path*, growing the intern tables."""
        row = []
        append = row.append
        prev = path[0]
        for nxt in path[1:]:
            code = prev * num_nodes + nxt
            li = link_of.get(code)
            if li is None:
                li = link_of[code] = len(link_src)
                link_src.append(prev)
                link_dst.append(nxt)
            append(li)
            prev = nxt
        return row
