"""Correctness checks on the program's outputs.

Each check returns a list of failure messages (empty means it passed)
so the benchmark can report every failure at once and the tests can
feed each check a deliberately corrupted output.
"""

from __future__ import annotations


def apply_writes(oracle: dict, writes) -> None:
    """Apply one PRAM step's writes to *oracle* as a sequential PRAM would.

    Every emulator in the benchmark runs ``WritePolicy.ARBITRARY``,
    which the repo resolves deterministically: the lowest processor id
    wins, ties between one processor's writes going to the smallest
    value.
    """
    winners: dict[int, tuple] = {}
    for w in writes:
        cand = (w.pid, w.value)
        cur = winners.get(w.addr)
        if cur is None or cand < cur:
            winners[w.addr] = cand
    for addr, (_pid, value) in winners.items():
        oracle[addr] = value


def memory_failures(memory, oracle: dict) -> list[str]:
    """The emulator's final shared memory equals the sequential oracle."""
    bad = [
        addr
        for addr in range(memory.size)
        if memory.read(addr) != oracle.get(addr, 0)
    ]
    if not bad:
        return []
    a = bad[0]
    return [
        f"shared memory differs from the sequential oracle at {len(bad)} "
        f"cells (first: cell {a} holds {memory.read(a)!r}, "
        f"oracle {oracle.get(a, 0)!r})"
    ]


def route_failures(stats) -> list[str]:
    """One routing run completed and delivered every packet."""
    if stats.completed and stats.delivered == stats.total_packets:
        return []
    return [
        f"{stats.run_mode or 'engine'} run: completed={stats.completed}, "
        f"delivered {stats.delivered} of {stats.total_packets} packets"
    ]


def destination_failures(packets) -> list[str]:
    """Every packet ended at its destination."""
    if not packets:
        return ["no packets were routed"]
    off = [p for p in packets if p.node != p.dest or not p.delivered]
    if not off:
        return []
    p = off[0]
    return [
        f"{len(off)} packets off their destination "
        f"(first: packet {p.pid} at {p.node!r}, destination {p.dest!r})"
    ]


def conservation_failures(report) -> list[str]:
    """Exact global and per-tenant conservation of requests."""
    out = []
    deficit = report.conservation_deficit()
    if deficit:
        out.append(f"global conservation deficit {deficit}")
    for tenant, d in sorted(report.tenant_conservation_deficits().items()):
        if d:
            out.append(f"tenant {tenant!r} conservation deficit {d}")
    return out


def emulator_failures(emulator) -> list[str]:
    """The emulator checks its own replies (built with ``validate=True``)."""
    return [] if emulator.validate else ["emulator built without validate=True"]


def agreement_failures(reference: dict, other: dict, label: str) -> list[str]:
    """Two passes report identical deterministic metrics."""
    return [
        f"{label}: {key} is {other.get(key)!r}, expected {value!r}"
        for key, value in reference.items()
        if other.get(key) != value
    ]
