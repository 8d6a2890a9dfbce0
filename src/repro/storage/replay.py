"""Asynchronous log replay (§3.1, §5).

Committed transactions send only updates to the WAL; the replay service
materialises them into the page store after a configurable lag, "eliminating
the need to write back dirty pages from compute nodes".  ``wait_applied``
implements the blocking read used by GetPage@LSN: "if the requested data has a
stale LSN, the storage node waits for log replay before replying".
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.sim.core import Future, Simulator
from repro.storage.log import LogRecord, SharedLog
from repro.storage.pagestore import PageStore

__all__ = ["MAX_WAITERS_PER_LOG", "ReplayInterrupted", "ReplayService"]

#: Upper bound on queued ``wait_applied`` futures per log.  A waiter beyond
#: this bound fails immediately instead of accumulating without limit (a
#: crashed writer would otherwise strand every queued reader forever).
MAX_WAITERS_PER_LOG = 4096


class ReplayInterrupted(RuntimeError):
    """A ``wait_applied`` future failed: the awaited LSN can no longer be
    produced (its writer crashed before appending) or the per-log waiter
    bound was exceeded."""


class ReplayService:
    """Applies each log's records to the page store ``lag`` seconds after append."""

    def __init__(self, sim: Simulator, pagestore: PageStore, lag: float = 0.002):
        self.sim = sim
        self.pagestore = pagestore
        self.lag = lag
        # (log_name, lsn) waiters, resolved once applied_lsn >= lsn.
        self._waiters: Dict[str, List[Tuple[int, Future]]] = defaultdict(list)
        self.waiters_failed = 0

    def track(self, log: SharedLog) -> None:
        """Subscribe to a log; every new record is replayed after ``lag``."""
        log.subscribe(lambda record: self._schedule(log.name, record))

    def _schedule(self, log_name: str, record: LogRecord) -> None:
        # Fire-and-forget timer: replay entries are never cancelled.
        self.sim.timer(self.lag, self._apply, log_name, record)

    def _apply(self, log_name: str, record: LogRecord) -> None:
        # Appends are scheduled in order and the heap is FIFO at equal times,
        # so records arrive here in LSN order.
        self.pagestore.apply(log_name, record)
        applied = self.pagestore.applied_lsn[log_name]
        waiters = self._waiters[log_name]
        still_waiting = []
        for lsn, fut in waiters:
            if lsn <= applied:
                fut.resolve(applied)
            else:
                still_waiting.append((lsn, fut))
        self._waiters[log_name] = still_waiting

    def wait_applied(self, log_name: str, lsn: int) -> Future:
        """A future resolving once replay of ``log_name`` reaches ``lsn``."""
        fut = self.sim.event(name=("replay", log_name, lsn))
        if self.pagestore.applied_lsn[log_name] >= lsn:
            fut.resolve(self.pagestore.applied_lsn[log_name])
        elif len(self._waiters[log_name]) >= MAX_WAITERS_PER_LOG:
            self.waiters_failed += 1
            fut.fail(ReplayInterrupted(
                f"{log_name}: waiter bound ({MAX_WAITERS_PER_LOG}) exceeded"
            ))
        else:
            self._waiters[log_name].append((lsn, fut))
        return fut

    def fail_waiters(self, log_name: str, beyond_lsn: int) -> int:
        """Fail waiters for LSNs that can no longer be produced.

        Called when ``log_name``'s writer crashes: every record up to the
        log's current end (``beyond_lsn``) will still replay normally, but a
        waiter past it was waiting on an append that died with the writer —
        without this it would leak forever.  Returns the number failed.
        """
        waiters = self._waiters.get(log_name)
        if not waiters:
            return 0
        keep: List[Tuple[int, Future]] = []
        failed = 0
        for lsn, fut in waiters:
            if lsn > beyond_lsn:
                failed += 1
                if not fut.done:
                    fut.fail(ReplayInterrupted(
                        f"{log_name}: writer crashed before lsn {lsn} "
                        f"(end_lsn={beyond_lsn})"
                    ))
            else:
                keep.append((lsn, fut))
        self._waiters[log_name] = keep
        self.waiters_failed += failed
        return failed
