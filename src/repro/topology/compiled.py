"""Integer-compiled topologies: the data layer of the fast path.

The reference engine discovers each hop by calling ``next_hop`` /
``out_neighbors`` / ``unique_next`` per packet per step.  At interesting
scales that per-hop topology math (and, for leveled networks, tuple
hashing) dominates the run time.  This module precompiles whole packet
populations' trajectories with a handful of vectorized operations:

* :class:`CompiledLeveledTopology` — dense integer form of a
  :class:`LeveledNetwork` (both passes of Algorithm 2.1);
* :class:`CompiledMesh2D` — the 3-stage randomized mesh trajectories of
  §3.4 (and their furthest-destination-first priorities) plus greedy
  dimension-order paths, as padded matrices + lengths;
* :func:`linear_paths`, :func:`hypercube_paths`,
  :func:`shuffle_unique_paths`, :func:`star_paths` — the linear array,
  Valiant–Brebner bit-fixing, d-way-shuffle digit-insertion, and n-star
  greedy cycle-algorithm itineraries.

Leveled compilation in detail:

* every engine position gets a flat **node id** — position k on a
  packet's 2L-hop journey lies in "unrolled column" k (the two passes of
  Algorithm 2.1 laid end to end, with the last column of pass 1
  identified with the first column of pass 2, exactly the paper's
  wrap-around), so ``id = k * N + row`` with k in [0, 2L];
* per-level **out-neighbor tables** (``(N, d)`` arrays) replace
  ``out_neighbors`` calls, so a pre-drawn coin becomes one array gather;
* :meth:`build_paths` rolls a whole packet population's trajectories
  forward level by level with ``unique_next_batch`` — the entire routing
  plan for N packets is produced by ~2L vectorized operations.

The plan is then replayed by :class:`repro.routing.fast_engine.FastPathEngine`,
which never touches the topology again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.topology.leveled import LeveledNetwork
from repro.topology.star import perm_rank_array, perm_unrank_array


class CompiledLeveledTopology:
    """Dense integer view of a :class:`LeveledNetwork` (both passes)."""

    def __init__(self, net: LeveledNetwork) -> None:
        # Note: nets with uniform_out_degree=False compile fine for
        # node-mode routing (unique-path arithmetic only); out_table —
        # needed by coin mode — raises for them via out_neighbor_table.
        self.net = net
        self.L = net.num_levels
        self.N = net.column_size
        #: one unrolled column per path position 0..2L
        self.num_node_ids = (2 * self.L + 1) * self.N
        self._out_tables: dict[int, np.ndarray] = {}

    # ---- id <-> key ----------------------------------------------------
    def out_table(self, level: int) -> np.ndarray:
        table = self._out_tables.get(level)
        if table is None:
            table = self._out_tables[level] = self.net.out_neighbor_table(level)
        return table

    def encode_key(self, key: tuple[int, int, int]) -> int:
        """(pass, column, row) -> node id.

        The wrap identification makes this well defined: ``(0, L, r)``
        and ``(1, 0, r)`` are the same physical node and map to the same
        id ``L * N + r``.
        """
        pass_idx, col, row = key
        return (pass_idx * self.L + col) * self.N + row

    def node_key(self, position: int, node_id: int) -> tuple[int, int, int]:
        """Node-style key at a path *position*: what ``packet.node`` holds.

        The reference engine rewrites the wrap node to its pass-2 alias
        before enqueueing, so position L decodes to ``(1, 0, row)``.
        """
        row = node_id - position * self.N
        if position < self.L:
            return (0, position, row)
        return (1, position - self.L, row)

    def trace_key(self, position: int, node_id: int) -> tuple[int, int, int]:
        """Trace-style key: what ``packet.trace`` records at *position*.

        Traces capture the node key *before* the wrap rewrite, so
        position L decodes to ``(0, L, row)``.
        """
        row = node_id - position * self.N
        if position <= self.L:
            return (0, position, row)
        return (1, position - self.L, row)

    def reply_key(self, _position: int, node_id: int) -> tuple[int, int, int]:
        """Position-independent decode for reply-phase paths.

        Reply paths walk traces in reverse, so positions no longer track
        columns.  Trace keys never contain ``(1, 0, row)`` (the wrap is
        recorded as ``(0, L, row)``), which makes the decode unambiguous.
        """
        col_idx, row = divmod(node_id, self.N)
        if col_idx <= self.L:
            return (0, col_idx, row)
        return (1, col_idx - self.L, row)

    # ---- trajectory compilation ----------------------------------------
    def build_paths(
        self,
        source_rows: Sequence[int],
        dests: Sequence[int],
        *,
        coins: np.ndarray | None = None,
        inters: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Compile every packet's full 2L-hop node-id trajectory.

        Phase 1 either follows pre-drawn *coins* (an ``(n, L)`` array of
        bridge choices, Algorithm 2.1) or the unique path to a chosen
        intermediate row per packet (*inters*, Algorithms 2.2/2.3);
        phase 2 always follows the unique path to ``dests``.  Returns an
        ``(n, 2L + 1)`` node-id matrix (row i is packet i's itinerary;
        every leveled trajectory has the same length, so there is no
        padding).
        """
        if (coins is None) == (inters is None):
            raise ValueError("need exactly one of coins= or inters=")
        L, N = self.L, self.N
        rows = np.asarray(source_rows, dtype=np.int64)
        n = len(rows)
        cols = np.empty((n, 2 * L + 1), dtype=np.int64)
        cols[:, 0] = rows
        if coins is not None:
            for level in range(L):
                rows = self.out_table(level)[rows, coins[:, level]]
                cols[:, level + 1] = rows
        else:
            inters_arr = np.asarray(inters, dtype=np.int64)
            for level in range(L):
                rows = self.net.unique_next_batch(level, rows, inters_arr)
                cols[:, level + 1] = rows
        dests_arr = np.asarray(dests, dtype=np.int64)
        for level in range(L):
            rows = self.net.unique_next_batch(level, rows, dests_arr)
            cols[:, L + 1 + level] = rows
        if not np.array_equal(rows, dests_arr):
            bad = int(np.nonzero(rows != dests_arr)[0][0])
            raise RuntimeError(
                f"packet {bad} finished pass 2 at row {int(rows[bad])} "
                f"!= dest {int(dests_arr[bad])}"
            )
        ids = cols + (np.arange(2 * L + 1, dtype=np.int64) * N)[None, :]
        return ids

    # ---- arithmetic link ids -------------------------------------------
    # Crossing k runs from unrolled column k to column k + 1, and a
    # uniform-degree node has exactly d out-links, so directed link
    # (u, v) gets the dense id ``u * d + j`` (j = v's index in u's
    # out-neighbor table) with no interning pass — the fast engine's
    # np.unique over a whole trajectory matrix is its most expensive
    # setup step at scale.  The id space doubles as the escape-slot
    # layout of ``flow_control="credit"``: every directed link owns one
    # escape buffer, keyed by this id in the constrained batch mode.
    # The wrap aliasing is inherited from the node ids themselves:
    # ``(0, L, r)`` and ``(1, 0, r)`` share id ``L * N + r``, so
    # capacity accounting (and the link ids built from it) sees one
    # physical node per wrap pair with no extra alias table.

    def link_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(link_src, link_dst)`` tables for the arithmetic ids.

        Sized ``2L * N * d`` (last-column ids have no out-links).
        Parallel links — two out-table slots of one node naming the same
        neighbor — keep only their first slot's id in use
        (:meth:`link_matrix` resolves every crossing to the first
        matching slot, mirroring how the reference engine's ``(u, w)``
        keys collapse parallel links); the duplicate ids exist in the
        table but are never referenced.  Requires uniform out-degree.
        """
        cached = getattr(self, "_link_arrays", None)
        if cached is None:
            L, N, d = self.L, self.N, self.net.degree
            dst_cols = []
            for k in range(2 * L):
                level = k if k < L else k - L
                dst_cols.append((k + 1) * N + self.out_table(level))
            dst = np.concatenate(dst_cols, axis=0).reshape(-1)
            src = np.repeat(np.arange(2 * L * N, dtype=np.int64), d)
            cached = self._link_arrays = (src, dst.astype(np.int64))
        return cached

    def link_matrix(self, ids: np.ndarray) -> np.ndarray:
        """Arithmetic link id per hop of a compiled trajectory matrix."""
        L, N, d = self.L, self.N, self.net.degree
        ids = np.asarray(ids, dtype=np.int64)
        out = np.empty((ids.shape[0], 2 * L), dtype=np.int64)
        for k in range(2 * L):
            level = k if k < L else k - L
            rows = ids[:, k] - k * N
            nxt_rows = ids[:, k + 1] - (k + 1) * N
            j = np.argmax(
                self.out_table(level)[rows] == nxt_rows[:, None], axis=1
            )
            out[:, k] = ids[:, k] * d + j
        return out


def compile_leveled(net: LeveledNetwork) -> CompiledLeveledTopology:
    """Compiled view of *net*, cached on the network instance."""
    compiled = getattr(net, "_compiled_topology", None)
    if compiled is None:
        compiled = CompiledLeveledTopology(net)
        net._compiled_topology = compiled
    return compiled


# ======================================================================
# Flat-topology trajectory builders (mesh, linear array, hypercube,
# shuffle, star).  These produce padded rectangular matrices: row i repeats
# packet i's destination past position ``lengths[i]``, which the fast
# engine never traverses (it delivers at ``path_lengths``).  Keeping the
# matrix rectangular lets one np.unique intern every link at C speed.
# ======================================================================


@dataclass
class TrajectoryPlan:
    """A compiled routing plan for one packet population.

    ``ids[i, k]`` is the node id of packet i at position k; positions
    beyond ``lengths[i]`` repeat the destination (padding).
    ``priorities[i, k]``, when compiled, is the §3.4
    furthest-destination-first priority of packet i's k-th link crossing
    — the distance left in its current stage, exactly the value the
    reference :class:`~repro.routing.mesh_router.MeshRouter` computes at
    push time.
    """

    ids: np.ndarray
    lengths: np.ndarray
    priorities: np.ndarray | None = None


class CompiledMesh2D:
    """Vectorized trajectory compiler for a :class:`Mesh2D`.

    The 3-stage randomized route of §3.4 (Theorem 3.1) — column to a
    random row, row to the destination column, column to the destination
    row — is a pure function of (source, random row, destination), so a
    whole population's trajectories fall out of a few broadcast clips:
    position k's row/column is the stage-wise saturating walk
    ``start + clip(k - stage_offset, 0, stage_len) * step``.  Greedy
    dimension-order (column-then-row) paths are the degenerate plan with
    an empty stage 0 (the random row equals the source row).
    """

    def __init__(self, mesh) -> None:
        self.mesh = mesh

    def three_stage(
        self,
        sources: Sequence[int],
        dests: Sequence[int],
        inter_rows: Sequence[int] | None = None,
        *,
        with_priorities: bool = False,
    ) -> TrajectoryPlan:
        """Compile 3-stage (or, with ``inter_rows=None``, greedy XY) paths.

        ``inter_rows`` holds each packet's pre-drawn stage-0 random row
        i'; omitting it pins i' to the source row, which degenerates the
        plan to the deterministic dimension-order baseline.
        """
        cols_n = self.mesh.cols
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(dests, dtype=np.int64)
        r0, c0 = np.divmod(src, cols_n)
        dr, dc = np.divmod(dst, cols_n)
        ir = r0 if inter_rows is None else np.asarray(inter_rows, dtype=np.int64)
        la = np.abs(ir - r0)
        sa = np.sign(ir - r0)
        lb = np.abs(dc - c0)
        sb = np.sign(dc - c0)
        lc = np.abs(dr - ir)
        sc = np.sign(dr - ir)
        lengths = la + lb + lc
        maxlen = int(lengths.max()) if src.size else 0
        k = np.arange(maxlen + 1, dtype=np.int64)[None, :]
        # ids accumulated in place: row*cols + col with one live temporary.
        ids = np.clip(k, 0, la[:, None])
        ids *= sa[:, None]
        seg = np.clip(k - (la + lb)[:, None], 0, lc[:, None])
        seg *= sc[:, None]
        ids += seg
        ids += r0[:, None]
        ids *= cols_n
        np.clip(k - la[:, None], 0, lb[:, None], out=seg)
        seg *= sb[:, None]
        ids += seg
        ids += c0[:, None]
        priorities = None
        if with_priorities:
            # Priority of link crossing k = distance left in the stage
            # containing k: la-k in stage 0, (la+lb)-k in stage 1,
            # (la+lb+lc)-k in stage 2 — empty stages skip naturally.
            kk = np.arange(maxlen, dtype=np.int64)[None, :]
            ab = (la + lb)[:, None]
            priorities = np.where(
                kk < la[:, None],
                la[:, None] - kk,
                np.where(kk < ab, ab - kk, lengths[:, None] - kk),
            )
            # Entries past a packet's length are never pushed; clamp them
            # so packed heap keys stay well-formed anyway.
            priorities = np.maximum(priorities, 0)
        return TrajectoryPlan(ids, lengths, priorities)


    # ---- arithmetic link ids -----------------------------------------
    # A mesh node has at most 4 out-links, so directed link (u, v) gets
    # the dense id ``u * 4 + direction`` with no interning pass at all —
    # the fast engine's np.unique over a whole trajectory matrix is the
    # single most expensive setup step at scale, and meshes don't need it.
    _DIR_EAST, _DIR_WEST, _DIR_SOUTH, _DIR_NORTH = 0, 1, 2, 3

    def link_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (link_src, link_dst) tables for the 4N arithmetic ids.

        Boundary directions that have no physical link get ids too; they
        are never referenced by a real trajectory, so their dst entries
        are only placeholders.
        """
        cached = getattr(self, "_link_arrays", None)
        if cached is None:
            num = self.mesh.num_nodes
            src = np.repeat(np.arange(num, dtype=np.int64), 4)
            delta = np.tile(
                np.asarray([1, -1, self.mesh.cols, -self.mesh.cols]), num
            )
            dst = np.clip(src + delta, 0, num - 1)
            cached = self._link_arrays = (src, dst)
        return cached

    def link_matrix(self, ids: np.ndarray) -> np.ndarray:
        """Arithmetic link id per hop of a padded trajectory matrix."""
        cols = self.mesh.cols
        u = ids[:, :-1]
        diff = ids[:, 1:] - u
        direction = np.zeros_like(diff)
        direction[diff == -1] = self._DIR_WEST
        direction[diff == cols] = self._DIR_SOUTH
        direction[diff == -cols] = self._DIR_NORTH
        return u * 4 + direction


def compile_mesh(mesh) -> CompiledMesh2D:
    """Compiled view of *mesh*, cached on the mesh instance."""
    compiled = getattr(mesh, "_compiled_topology", None)
    if compiled is None:
        compiled = CompiledMesh2D(mesh)
        mesh._compiled_topology = compiled
    return compiled


def linear_paths(sources: Sequence[int], dests: Sequence[int]) -> TrajectoryPlan:
    """Monotone walks on a linear array, as a padded plan."""
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(dests, dtype=np.int64)
    lengths = np.abs(dst - src)
    step = np.sign(dst - src)
    maxlen = int(lengths.max()) if src.size else 0
    k = np.arange(maxlen + 1, dtype=np.int64)[None, :]
    ids = src[:, None] + np.clip(k, 0, lengths[:, None]) * step[:, None]
    return TrajectoryPlan(ids, lengths)


def compact_paths(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove in-place repeats from each row of a trajectory matrix.

    Phase-structured builders (e.g. two-phase bit fixing) emit one column
    per potential hop, so packets that finish a phase early repeat their
    position mid-row; the engine would traverse those repeats as
    self-loop links.  This squeezes every row to its true itinerary and
    re-pads at the end with the destination, returning ``(ids, lengths)``.
    """
    n, width = arr.shape
    if width == 0:
        raise ValueError("trajectory matrix needs at least one column")
    keep = np.ones(arr.shape, dtype=bool)
    keep[:, 1:] = arr[:, 1:] != arr[:, :-1]
    idx = np.cumsum(keep, axis=1) - 1
    lengths = idx[:, -1].copy()
    maxlen = int(lengths.max()) if n else 0
    out = np.repeat(arr[:, -1][:, None], maxlen + 1, axis=1)
    rows = np.broadcast_to(np.arange(n)[:, None], arr.shape)
    out[rows[keep], idx[keep]] = arr[keep]
    return out, lengths


def hypercube_paths(
    n_dims: int,
    sources: Sequence[int],
    dests: Sequence[int],
    inters: Sequence[int] | None = None,
) -> TrajectoryPlan:
    """Valiant–Brebner e-cube itineraries on the binary n-cube.

    Phase 1 (when ``inters`` is given) fixes differing bits
    lowest-dimension first toward the random intermediate, phase 2
    continues to the destination — the same order as
    :meth:`Hypercube.route_next`, vectorized one dimension at a time.
    """
    cur = np.asarray(sources, dtype=np.int64).copy()
    columns = [cur.copy()]
    targets = ([] if inters is None else [inters]) + [dests]
    for target in targets:
        target = np.asarray(target, dtype=np.int64)
        for _ in range(n_dims):
            diff = cur ^ target
            cur = cur ^ (diff & -diff)
            columns.append(cur.copy())
    ids, lengths = compact_paths(np.stack(columns, axis=1))
    return TrajectoryPlan(ids, lengths)


def shuffle_unique_paths(
    shuffle, sources: Sequence[int], targets: "list[Sequence[int]]"
) -> np.ndarray:
    """Digit-insertion itineraries on the d-way shuffle, one per packet.

    Hop k of a unique-path phase inserts the target's k-th least
    significant digit at the front (§2.3.5), so each phase is n
    vectorized shift-and-insert operations; consecutive equal nodes are
    *real* self-loop hops in this model (the reference engine routes
    through them), so the matrix is exact — no compaction, no padding.
    """
    d, msb = shuffle.d, shuffle.num_nodes // shuffle.d
    cur = np.asarray(sources, dtype=np.int64)
    columns = [cur]
    for target in targets:
        target = np.asarray(target, dtype=np.int64)
        for k in range(shuffle.n):
            cur = cur // d + ((target // d**k) % d) * msb
            columns.append(cur)
    return np.stack(columns, axis=1)


def star_paths(
    star, sources: Sequence[int], targets: "list[Sequence[int]]"
) -> TrajectoryPlan:
    """Greedy cycle-algorithm itineraries on the n-star, as a padded plan.

    Each entry of *targets* is one phase (``[inters, dests]`` for the
    two-phase Valiant route, ``[dests]`` for plain greedy).  Labels are
    carried as a ``(P, n)`` array: per phase the relative permutation
    ``rel = dest^{-1} ∘ cur`` is formed once, and every round picks the
    move of :func:`repro.topology.star.greedy_move_to_identity` for all
    packets at once, swaps columns 0 and j of both ``cur`` and ``rel``
    (SWAP_j acts on positions, so ``rel`` stays in step), and re-ranks
    the packets that moved — exactly :meth:`StarGraph.route_next`'s
    walk.  The cycle algorithm is minimal, so ``diameter`` rounds finish
    every phase.
    """
    n = star.n
    ranks = np.asarray(sources, dtype=np.int64)
    cur = perm_unrank_array(ranks, n)
    positions = np.broadcast_to(np.arange(n, dtype=np.int64), cur.shape)
    off_place = np.arange(1, n, dtype=np.int64)
    columns = [ranks]
    for target in targets:
        target = np.asarray(target, dtype=np.int64)
        inv = np.empty_like(cur)
        np.put_along_axis(inv, perm_unrank_array(target, n), positions, axis=1)
        rel = np.take_along_axis(inv, cur, axis=1)
        for _ in range(star.diameter):
            front = rel[:, 0]
            stray = rel[:, 1:] != off_place
            j = np.where(
                front != 0,
                front,
                np.where(stray.any(axis=1), stray.argmax(axis=1) + 1, 0),
            )
            moving = np.flatnonzero(j)
            if not moving.size:
                break
            jm = j[moving]
            for arr in (cur, rel):
                head = arr[moving, 0].copy()
                arr[moving, 0] = arr[moving, jm]
                arr[moving, jm] = head
            ranks = ranks.copy()
            ranks[moving] = perm_rank_array(cur[moving])
            columns.append(ranks)
        if not np.array_equal(ranks, target):
            bad = int(np.flatnonzero(ranks != target)[0])
            raise RuntimeError(
                f"packet {bad} stopped at node {int(ranks[bad])} "
                f"!= target {int(target[bad])}"
            )
    ids, lengths = compact_paths(np.stack(columns, axis=1))
    return TrajectoryPlan(ids, lengths)
