"""Per-thread record rings: the storage the Tracer and the EventLog share.

Each recording thread appends to its own fixed-capacity :class:`Ring`,
with no lock on the append path; the owner's lock is taken only when a
thread's ring is first registered and when records are collected.  A
full ring overwrites its oldest record and counts the drop, so recording
is bounded-memory and truncation is never silent.
"""

from __future__ import annotations

import threading
from typing import Any, Callable


class Ring:
    """One thread's overwrite-oldest record ring with drop counting."""

    __slots__ = ("tid", "records", "head", "dropped", "capacity")

    def __init__(self, tid: int, capacity: int) -> None:
        self.tid = tid
        self.capacity = capacity
        self.records: list[Any] = []
        self.head = 0  # next overwrite position once the ring is full
        self.dropped = 0

    def append(self, record: Any) -> None:
        if len(self.records) < self.capacity:
            self.records.append(record)
        else:
            self.records[self.head] = record
            self.head = (self.head + 1) % self.capacity
            self.dropped += 1

    def ordered(self) -> list[Any]:
        if self.dropped == 0:
            return list(self.records)
        return self.records[self.head :] + self.records[: self.head]

    def reset(self) -> None:
        self.records.clear()
        self.head = 0
        self.dropped = 0


class ThreadRings:
    """The per-thread rings of one recorder, registered under its lock.

    Args:
        capacity: records each thread's ring keeps.
        lock: the owning recorder's ordered lock; it guards the ring
            registry (registration, collection, ``dropped``, ``clear``).
        ring_type: the :class:`Ring` subclass to create per thread.
    """

    def __init__(
        self, capacity: int, lock: Any, ring_type: type[Ring] = Ring
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._lock = lock
        self._ring_type = ring_type
        self._rings: list[Ring] = []
        self._tls = threading.local()

    def local(self) -> Any:
        """The calling thread's ring, registered on first use."""
        ring = getattr(self._tls, "ring", None)
        if ring is None:
            ring = self._ring_type(threading.get_ident(), self._capacity)
            with self._lock:
                self._rings.append(ring)
            self._tls.ring = ring
        return ring

    def rings(self) -> list[Any]:
        """Every registered ring (a snapshot of the registry)."""
        with self._lock:
            return list(self._rings)

    def collect(self, key: Callable[[Any], float]) -> list[Any]:
        """Every retained record across all threads, stably sorted by
        ``key`` (a thread's equal-key records keep their order)."""
        records: list[Any] = []
        for ring in self.rings():
            records.extend(ring.ordered())
        records.sort(key=key)
        return records

    @property
    def dropped(self) -> int:
        """Records lost to ring overwrites, across all threads."""
        with self._lock:
            return sum(ring.dropped for ring in self._rings)

    def clear(self) -> None:
        """Drop every retained record and reset drop counts."""
        with self._lock:
            for ring in self._rings:
                ring.reset()
