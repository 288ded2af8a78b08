"""The n-star graph (Definitions 2.4-2.5; Akers, Harel & Krishnamurthy).

Nodes are the n! permutations of the symbols ``0..n-1`` (the paper uses
``1..n``); node u is adjacent to ``SWAP_j(u)`` for ``j = 1..n-1``, where
``SWAP_j`` exchanges the symbol in position 0 with the symbol in position j.
Degree n-1, diameter ``floor(3(n-1)/2)`` — sub-logarithmic in N = n!, which
is what makes the paper's emulation result interesting.

Permutations are encoded as dense ids via the Lehmer code so the routing
engine sees plain integers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.topology.base import Topology


@lru_cache(maxsize=32)
def _factorials(n: int) -> tuple[int, ...]:
    f = [1] * (n + 1)
    for i in range(1, n + 1):
        f[i] = f[i - 1] * i
    return tuple(f)


def perm_rank(perm: Sequence[int]) -> int:
    """Lehmer-code rank of *perm* (a permutation of 0..n-1) in [0, n!)."""
    n = len(perm)
    fact = _factorials(n)
    available = list(range(n))
    rank = 0
    for i, p in enumerate(perm):
        idx = available.index(p)
        rank += idx * fact[n - 1 - i]
        available.pop(idx)
    return rank


def perm_unrank(rank: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`perm_rank`."""
    fact = _factorials(n)
    if not 0 <= rank < fact[n]:
        raise ValueError(f"rank {rank} out of range [0, {fact[n]})")
    available = list(range(n))
    out = []
    for i in range(n):
        f = fact[n - 1 - i]
        idx, rank = divmod(rank, f)
        out.append(available.pop(idx))
    return tuple(out)


def perm_rank_array(perms: np.ndarray) -> np.ndarray:
    """Row-wise :func:`perm_rank` of a ``(P, n)`` array of permutations.

    Lehmer digit i counts the later symbols smaller than symbol i, so
    the rank is n-1 vectorized compare-and-count passes.
    """
    perms = np.asarray(perms, dtype=np.int64)
    n = perms.shape[1]
    fact = _factorials(n)
    ranks = np.zeros(perms.shape[0], dtype=np.int64)
    for i in range(n - 1):
        smaller = (perms[:, i + 1 :] < perms[:, i : i + 1]).sum(axis=1)
        ranks += smaller * fact[n - 1 - i]
    return ranks


def perm_unrank_array(ranks: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`perm_rank_array`: a ``(P, n)`` array of labels.

    The Lehmer digits are read off with divmods; the permutation is
    rebuilt right to left, each digit taking its value and bumping every
    later symbol that is not smaller than it.
    """
    fact = _factorials(n)
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size and not (0 <= ranks.min() and ranks.max() < fact[n]):
        raise ValueError(f"ranks out of range [0, {fact[n]})")
    perms = np.empty((ranks.size, n), dtype=np.int64)
    for i in range(n):
        perms[:, i] = (ranks // fact[n - 1 - i]) % (n - i)
    for i in range(n - 2, -1, -1):
        suffix = perms[:, i + 1 :]
        suffix += suffix >= perms[:, i : i + 1]
    return perms


def swap_j(perm: tuple[int, ...], j: int) -> tuple[int, ...]:
    """SWAP_j (Definition 2.4): exchange positions 0 and j (1 <= j < n)."""
    if not 1 <= j < len(perm):
        raise ValueError(f"j={j} out of range [1, {len(perm)})")
    lst = list(perm)
    lst[0], lst[j] = lst[j], lst[0]
    return tuple(lst)


def star_distance_to_identity(perm: Sequence[int]) -> int:
    """Exact star-graph distance from *perm* to the identity.

    Classical formula (Akers & Krishnamurthy): write the permutation as a
    product of cycles; with m = number of non-fixed symbols and k = number of
    nontrivial cycles, the distance is ``m + k`` when position 0 is fixed and
    ``m + k - 2`` when position 0 lies on a nontrivial cycle.
    """
    n = len(perm)
    seen = [False] * n
    m = 0
    k = 0
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        k += 1
        cur = start
        while not seen[cur]:
            seen[cur] = True
            m += 1
            cur = perm[cur]
    if m == 0:
        return 0
    return m + k - (2 if perm[0] != 0 else 0)


def greedy_move_to_identity(perm: tuple[int, ...]) -> int:
    """The j of the next SWAP_j on a minimal path from *perm* to identity.

    The "cycle algorithm": if the front symbol s = perm[0] is not 0, send it
    home (SWAP_s); otherwise bring any out-of-place symbol to the front
    (smallest such position, for determinism).  Returns 0 when perm is the
    identity (no move).
    """
    s = perm[0]
    if s != 0:
        return s
    for j in range(1, len(perm)):
        if perm[j] != j:
            return j
    return 0


class StarGraph(Topology):
    """The n-star graph S_n."""

    name = "star"

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("star graph needs n >= 2")
        self.n = n
        self._fact = _factorials(n)
        self._num_nodes = self._fact[n]

    # ---- Topology interface -------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def degree(self) -> int:
        return self.n - 1

    @property
    def diameter(self) -> int:
        return (3 * (self.n - 1)) // 2

    def neighbors(self, v: int) -> list[int]:
        perm = perm_unrank(v, self.n)
        return [perm_rank(swap_j(perm, j)) for j in range(1, self.n)]

    def label(self, v: int) -> tuple[int, ...]:
        return perm_unrank(v, self.n)

    def node_id(self, label: Sequence[int]) -> int:
        return perm_rank(tuple(label))

    # ---- routing -------------------------------------------------------
    def _relative(self, cur: tuple[int, ...], dest: tuple[int, ...]) -> tuple[int, ...]:
        """dest^{-1} ∘ cur: the permutation that must be sorted to identity.

        SWAP_j acts on positions, i.e. neighbors are cur∘τ_{0j}; composing
        with dest^{-1} on the left commutes with that action, so routing
        cur → dest is the same move sequence as routing rel → identity.
        """
        inv = [0] * self.n
        for pos, sym in enumerate(dest):
            inv[sym] = pos
        return tuple(inv[s] for s in cur)

    def route_next(self, cur: int, dest: int) -> int:
        if cur == dest:
            return cur
        cur_p = perm_unrank(cur, self.n)
        dest_p = perm_unrank(dest, self.n)
        rel = self._relative(cur_p, dest_p)
        j = greedy_move_to_identity(rel)
        if j == 0:
            return cur
        return perm_rank(swap_j(cur_p, j))

    def distance(self, u: int, v: int) -> int:
        rel = self._relative(perm_unrank(u, self.n), perm_unrank(v, self.n))
        return star_distance_to_identity(rel)

    # ---- substructure (Definition 2.6, used by the logical network) ----
    def stage_subgraph_key(self, v: int, i: int) -> tuple[int, ...]:
        """The last i symbols of node v's label.

        All nodes sharing this key form one i-th stage subgraph G^i (an
        (n-i)-star).  ``i = 0`` gives the whole graph.
        """
        if not 0 <= i < self.n:
            raise ValueError(f"stage i={i} out of range [0, {self.n})")
        return perm_unrank(v, self.n)[self.n - i :]

    def critical_point(self, v: int, i: int) -> int:
        """The critical point of v at stage i (§2.3.4).

        At stage i the G^i's partition G^{i-1}; node v's unique neighbor
        lying in a *different* G^i is ``SWAP_{n-i}(v)`` (the swap that
        changes the i-th symbol from the end).
        """
        if not 1 <= i < self.n:
            raise ValueError(f"stage i={i} out of range [1, {self.n})")
        perm = perm_unrank(v, self.n)
        return perm_rank(swap_j(perm, self.n - i))
