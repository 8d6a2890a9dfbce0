"""Contended resources: bounded CPU pools and an async FIFO mutex.

``CpuResource`` models a VM's vCPUs: at most ``workers`` jobs execute
simultaneously; excess jobs queue FIFO.  This is what makes throughput
saturate — the mechanism behind every knee in the paper's figures (a ZooKeeper
leader runs out of CPU, a compute node runs out of CPU, ...).
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.sim.core import Future, SimError, Simulator, Timeout

__all__ = ["CpuResource", "Mutex"]


class CpuResource:
    """A pool of ``workers`` identical execution slots with a FIFO queue."""

    __slots__ = (
        "sim", "workers", "name", "_free", "_waiters", "jobs_completed",
        "slow_factor",
    )

    def __init__(self, sim: Simulator, workers: int, name: str = "cpu"):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.sim = sim
        self.workers = workers
        self.name = name
        self._free = workers
        self._waiters: deque[Future] = deque()
        self.jobs_completed = 0
        #: Gray-failure dilation: every job's service time is multiplied by
        #: this factor (1.0 = healthy; set by the chaos controller).
        self.slow_factor = 1.0

    def acquire(self) -> Future:
        """A future that resolves when a slot is granted to the caller."""
        fut = self.sim.event(name=(self.name, "acquire"))
        if self._free > 0:
            self._free -= 1
            fut.resolve()
        else:
            self._waiters.append(fut)
        return fut

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().resolve()
        else:
            if self._free >= self.workers:
                raise SimError(f"{self.name}: release without acquire")
            self._free += 1

    def run(self, service_time: float) -> Generator:
        """Process fragment: occupy one slot for ``service_time`` seconds."""
        if self.slow_factor != 1.0:
            service_time *= self.slow_factor
        yield self.acquire()
        try:
            yield Timeout(service_time)
            self.jobs_completed += 1
        finally:
            self.release()


class Mutex:
    """An async mutual-exclusion lock (FIFO hand-off).

    Compute nodes use one mutex per WAL to serialize their own conditional
    appends: without it, a group-commit flush and a reconfiguration
    transaction could race on the same expected LSN and produce a spurious
    local CAS failure that looks like a cross-node modification.
    """

    __slots__ = ("sim", "name", "_locked", "_waiters")

    def __init__(self, sim: Simulator, name: str = "mutex"):
        self.sim = sim
        self.name = name
        self._locked = False
        self._waiters: deque[Future] = deque()

    def acquire(self) -> Future:
        fut = self.sim.event(name=(self.name, "acquire"))
        if not self._locked:
            self._locked = True
            fut.resolve()
        else:
            self._waiters.append(fut)
        return fut

    def release(self) -> None:
        if not self._locked:
            raise SimError(f"{self.name}: release without acquire")
        if self._waiters:
            self._waiters.popleft().resolve()
        else:
            self._locked = False
