"""Group commit (§5).

"We leverage group commit to reduce the storage access overhead by batching
log records from multiple transactions and committing them through a single
log operation."  Submitted records accumulate while a flush RPC is in flight;
each flush performs one (conditional) ``append_batch`` against the node's WAL
under the node's log gate, so group commit and reconfiguration transactions
never race on the same expected LSN locally — a genuine CAS failure therefore
always means a *cross-node* modification.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.sim.core import Future
from repro.storage.log import AppendResult, RecordKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.node import ComputeNode

__all__ = ["GroupCommitter"]


class GroupCommitter:
    """Batches commit records for one WAL and flushes them with Append@LSN."""

    __slots__ = (
        "node", "log_name", "max_batch", "conditional", "_pending",
        "_wakeup", "_running", "_proc", "batches_flushed",
        "records_flushed", "cas_failures",
    )

    def __init__(
        self,
        node: "ComputeNode",
        log_name: str,
        max_batch: int = 64,
        conditional: bool = True,
    ):
        self.node = node
        self.log_name = log_name
        self.max_batch = max_batch
        #: Marlin uses conditional appends (TryLog); converged baselines own
        #: their WALs exclusively and append unconditionally.
        self.conditional = conditional
        self._pending: List[Tuple[str, RecordKind, tuple, Future]] = []
        self._wakeup: Optional[Future] = None
        self._running = False
        self._proc = None
        self.batches_flushed = 0
        self.records_flushed = 0
        self.cas_failures = 0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        # A restart (``ComputeNode.unfreeze``) begins clean.  A record
        # submitted while stopped — by a process in the instants between the
        # crash and its next yield — is a dead node's work and never reaches
        # the WAL; the wake-up future the killed loop was parked on is dead.
        self._pending.clear()
        self._wakeup = None
        self._proc = self.node.sim.spawn(
            self._flush_loop(), name=f"group-commit:{self.log_name}", daemon=True
        )

    def stop(self) -> None:
        self._running = False
        if self._proc is not None:
            self._proc.kill()
            self._proc = None
        for _txn, _kind, _entries, fut in self._pending:
            if not fut.done:
                fut.fail(RuntimeError("group committer stopped"))
        self._pending.clear()

    def submit(self, txn_id: str, kind: RecordKind, entries: tuple) -> Future:
        """Enqueue one record; the future resolves with its AppendResult."""
        fut = self.node.sim.event(name=("gc", txn_id))
        self._pending.append((txn_id, kind, entries, fut))
        if self._wakeup is not None and not self._wakeup.done:
            self._wakeup.resolve()
        return fut

    def _flush_loop(self):
        while self._running:
            if not self._pending:
                self._wakeup = self.node.sim.event(name=("gc-wake", self.log_name))
                yield self._wakeup
                continue
            batch = self._pending[: self.max_batch]
            del self._pending[: len(batch)]
            yield from self._flush(batch)

    def _flush(self, batch):
        node = self.node
        gate = node.log_gate(self.log_name)
        tracer = node.tracer
        sid = 0
        if tracer is not None:
            sid = tracer.begin(
                node.address, "gc_flush",
                args={"log": self.log_name, "batch": len(batch)},
            )
        yield gate.acquire()
        try:
            expected = node.lsn_tracker.get(self.log_name) if self.conditional else None
            bodies = [(txn, kind, entries) for txn, kind, entries, _fut in batch]
            result: AppendResult = yield node.storage_call(
                "append_batch", self.log_name, bodies, expected, log=self.log_name
            )
            node.lsn_tracker[self.log_name] = result.lsn
            self.batches_flushed += 1
            if result.ok:
                self.records_flushed += len(batch)
                # Replication rides the flush batch (piggyback ships exactly
                # this batch; sync_quorum blocks the acks below on follower
                # acks — commit futures resolve only after the quorum).
                if node.replicator is not None:
                    yield from node.replicator.on_wal_append(
                        node, result.lsn, bodies
                    )
            else:
                self.cas_failures += 1
            if sid:
                tracer.end(sid, {"ok": int(result.ok)})
                sid = 0
            for _txn, _kind, _entries, fut in batch:
                if not fut.done:
                    fut.resolve(result)
        finally:
            gate.release()
            if sid:
                tracer.end(sid)
