"""Two-phase locking: NO_WAIT for user transactions, waiting for reconfig.

"By default, all transactions follow serializable isolation through the
NO_WAIT protocol which avoids deadlocks": a conflicting user lock request
aborts the requester immediately instead of blocking.  Reconfiguration
transactions, however, *wait* — §4.4.1: "an ongoing user transaction on N2
holds a write lock on G3, blocking the MigrationTxn from acquiring its
required write lock until the user transaction commits" — via
:meth:`LockTable.acquire_async`, which queues FIFO with a timeout (the
deadlock bound).  Queued waiters also block new NO_WAIT acquisitions, so a
migration cannot be starved by a stream of user readers.

Lock keys are opaque tuples — user records lock ``(table, key)``, GTable
entries lock ``("gtable", gid)``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["LockConflict", "LockTable"]


class LockConflict(Exception):
    """NO_WAIT: raised instead of blocking on a conflicting lock."""

    def __init__(self, key, holders: Set[str]):
        super().__init__(f"lock conflict on {key!r}, held by {sorted(holders)}")
        self.key = key
        self.holders = set(holders)


class _Lock:
    """One key's lock state.  No ``__init__``: a user transaction creates
    and drops one per key it touches, so the two creation sites fill the
    slots inline instead of paying a frame per lock."""

    __slots__ = (
        "exclusive",
        "holders",
        #: FIFO deque of (txn_id, exclusive, future) waiting-mode requests;
        #: ``None`` until a waiter arrives (most locks never see one).
        "waiters",
    )


class LockTable:
    """Per-node lock manager.  Shared/exclusive modes, strict 2PL release."""

    __slots__ = (
        "sim", "_locks", "_held_by_txn", "conflicts", "acquisitions",
        "waits", "tracer", "track", "_wait_spans",
    )

    def __init__(self, sim=None):
        self.sim = sim
        self._locks: Dict[object, _Lock] = {}
        #: txn -> the keys it holds, in acquisition order.  A key is added
        #: exactly when the txn joins ``holders``, so the list is duplicate-
        #: free, and ``release_all`` wakes waiters in an order that is a
        #: function of the run (a set of ``(str, int)`` keys would follow
        #: the interpreter's string-hash seed).
        self._held_by_txn: Dict[str, List[object]] = {}
        self.conflicts = 0
        self.acquisitions = 0
        self.waits = 0
        #: Optional :class:`repro.obs.Tracer` + track name (the owning
        #: node's address), attached by the cluster alongside ``node.tracer``.
        self.tracer = None
        self.track = ""
        #: Open lock-wait spans keyed by waiter future (traced runs only;
        #: stays empty — one falsy check — when tracing is off).
        self._wait_spans: Dict[object, int] = {}

    def acquire(self, txn_id: str, key: object, exclusive: bool) -> None:
        """Grant the lock or raise :class:`LockConflict` (NO_WAIT)."""
        self.acquire_all(txn_id, ((key, exclusive),))

    def acquire_all(
        self, txn_id: str, requests: Iterable[Tuple[object, bool]]
    ) -> None:
        """NO_WAIT-acquire a transaction's ordered ``(key, exclusive)`` requests.

        Grants in order and raises :class:`LockConflict` at the first request
        that cannot be granted; the grants made before it stay held, for the
        caller's :meth:`release_all`.  The same key may repeat (re-entrant,
        S -> X upgrade for a sole holder).
        """
        locks = self._locks
        granted: List[object] = []
        count = 0
        try:
            for key, exclusive in requests:
                lock = locks.get(key)
                if lock is None:
                    lock = locks[key] = _Lock()
                    lock.exclusive = exclusive
                    lock.holders = {txn_id}
                    lock.waiters = None
                    granted.append(key)
                else:
                    holders = lock.holders
                    if txn_id in holders:
                        if exclusive and not lock.exclusive:
                            # Upgrade S -> X permitted only for a sole holder.
                            if len(holders) > 1 or lock.waiters:
                                raise LockConflict(key, holders - {txn_id})
                            lock.exclusive = True
                    elif lock.waiters or (
                        holders and (exclusive or lock.exclusive)
                    ):
                        raise LockConflict(
                            key, holders or {w[0] for w in lock.waiters}
                        )
                    else:
                        lock.exclusive = exclusive
                        holders.add(txn_id)
                        granted.append(key)
                count += 1
        except LockConflict:
            self.conflicts += 1
            raise
        finally:
            self.acquisitions += count
            if granted:
                self._held_by_txn.setdefault(txn_id, []).extend(granted)

    def acquire_async(
        self,
        txn_id: str,
        key: object,
        exclusive: bool,
        timeout: Optional[float] = None,
    ):
        """Waiting-mode acquisition (reconfiguration transactions).

        Returns a future that resolves when the lock is granted, or fails
        with :class:`LockConflict` if ``timeout`` elapses first (bounding any
        cross-node wait cycle).  Requires a simulator-backed lock table.
        """
        if self.sim is None:
            raise RuntimeError("acquire_async needs LockTable(sim=...)")
        fut = self.sim.event(name=("lock", key))
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = _Lock()
            lock.exclusive = False
            lock.holders = set()
            lock.waiters = None
        compatible = txn_id in lock.holders or (
            not lock.waiters
            and not (lock.holders and (exclusive or lock.exclusive))
        )
        if compatible and txn_id in lock.holders and exclusive and not lock.exclusive:
            compatible = len(lock.holders) == 1 and not lock.waiters
        if compatible:
            if txn_id in lock.holders:
                if exclusive:
                    lock.exclusive = True
                self.acquisitions += 1
            else:
                self._grant(lock, txn_id, key, exclusive)
            fut.resolve()
            return fut
        entry = (txn_id, exclusive, fut)
        if lock.waiters is None:
            lock.waiters = deque()
        lock.waiters.append(entry)
        self.waits += 1
        tracer = self.tracer
        if tracer is not None:
            wsid = tracer.begin(
                self.track, "lock_wait",
                args={"txn": txn_id, "key": str(key)},
            )
            if wsid:
                self._wait_spans[fut] = wsid
        if timeout is not None:
            def expire():
                if not fut.done:
                    try:
                        lock.waiters.remove(entry)
                    except ValueError:
                        pass
                    self.conflicts += 1
                    if self._wait_spans:
                        wsid = self._wait_spans.pop(fut, None)
                        if wsid:
                            self.tracer.end(wsid, {"outcome": "timeout"})
                    fut.fail(LockConflict(key, lock.holders))
            # Fire-and-forget timer; ``expire`` no-ops if the wait already ended.
            self.sim.timer(timeout, expire)
        return fut

    def _grant(self, lock: _Lock, txn_id: str, key: object, exclusive: bool) -> None:
        lock.exclusive = exclusive
        lock.holders.add(txn_id)
        self._held_by_txn.setdefault(txn_id, []).append(key)
        self.acquisitions += 1

    def _wake_waiters(self, key: object, lock: _Lock) -> None:
        while lock.waiters:
            txn_id, exclusive, fut = lock.waiters[0]
            if fut.done:  # timed out; drop
                lock.waiters.popleft()
                continue
            if lock.holders and (exclusive or lock.exclusive):
                break
            lock.waiters.popleft()
            self._grant(lock, txn_id, key, exclusive)
            if self._wait_spans:
                wsid = self._wait_spans.pop(fut, None)
                if wsid:
                    self.tracer.end(wsid, {"outcome": "granted"})
            fut.resolve()
            if exclusive:
                break

    def release_all(self, txn_id: str) -> None:
        """Strict 2PL: drop every lock the transaction holds (commit/abort),
        in the order it acquired them."""
        locks = self._locks
        for key in self._held_by_txn.pop(txn_id, ()):
            lock = locks.get(key)
            if lock is None:
                continue
            holders = lock.holders
            holders.discard(txn_id)
            # Remaining holders of a shared lock keep it shared.
            lock.exclusive = False
            if lock.waiters:
                self._wake_waiters(key, lock)
            if not holders and not lock.waiters:
                del locks[key]

    def holders(self, key: object) -> Set[str]:
        lock = self._locks.get(key)
        return set(lock.holders) if lock else set()

    def is_exclusive(self, key: object) -> bool:
        lock = self._locks.get(key)
        return bool(lock and lock.exclusive)

    def held_by(self, txn_id: str) -> Set[object]:
        return set(self._held_by_txn.get(txn_id, ()))

    def holding_txns(self) -> Set[str]:
        """Transaction ids currently holding at least one lock."""
        return set(self._held_by_txn)

    def waiting(self, key: object) -> int:
        lock = self._locks.get(key)
        return len(lock.waiters) if lock and lock.waiters else 0

    def clear(self) -> None:
        """Drop all state (node crash: in-memory locks are lost)."""
        for key, lock in list(self._locks.items()):
            for txn_id, _exclusive, fut in lock.waiters or ():
                if not fut.done:
                    if self._wait_spans:
                        wsid = self._wait_spans.pop(fut, None)
                        if wsid:
                            self.tracer.end(wsid, {"outcome": "cleared"})
                    fut.fail(LockConflict(key, set()))
        self._locks.clear()
        self._held_by_txn.clear()
        self._wait_spans.clear()
