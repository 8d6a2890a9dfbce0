"""Write-ahead logs with conditional append (*Append@LSN*, §4.3.1).

``SharedLog`` is the ground truth of the database.  Its LSN is the number of
records appended so far; ``append(..., expected_lsn)`` succeeds only when the
log end equals the expectation — the compare-and-swap primitive that all of
MarlinCommit's cross-node conflict detection reduces to.

Record kinds implement the commit protocol's log vocabulary:

* ``COMMIT_DATA`` — a one-phase-commit record: its updates are final the
  moment the append succeeds.
* ``VOTE_YES`` — a two-phase-commit participant vote carrying that
  participant's redo updates; provisional until a decision record lands.
* ``DECISION_COMMIT`` / ``DECISION_ABORT`` — terminal outcome for a 2PC
  transaction id; replay applies or discards the buffered ``VOTE_YES``
  updates accordingly.
* ``TXN_BEGIN`` — a participant durably joined a distributed transaction
  (its branch is staged).  A ``TXN_BEGIN`` with no later vote or decision
  marks a branch that died before voting; recovery may safely claim an
  abort for it (the coordinator cannot have committed without the vote).
* ``PREPARE`` — the coordinator's intent record, written to its own GLog
  before it gathers votes; carries the full participant-log list so a
  restarted coordinator knows which transactions to re-resolve.
* ``TXN_END`` — the coordinator finished dispatching decisions.  Purely
  advisory: it bounds the set of transactions recovery re-examines; a
  missing ``TXN_END`` only costs an idempotent re-resolution.

``TXN_BEGIN``/``PREPARE``/``TXN_END`` carry no redo updates, so replay
treats them as LSN-advancing no-ops.

This module is also the one place a record's *meaning* is read.  Every
reader — the page store, follower replica tails, node views, recovery and
the invariant checkers — goes through the same three rules:

* :func:`fold` — how ``Put`` / ``Delete`` / ``Increment`` change a table;
* :class:`Redo` — when a record's updates apply: ``COMMIT_DATA`` at once,
  ``VOTE_YES`` buffered until its txn's decision commits (or drops) them;
* :func:`decisions` — the log-once rule: a txn's *first* decision record is
  its outcome in that log, whatever racing resolvers appended later.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

__all__ = [
    "AppendResult",
    "Delete",
    "Increment",
    "LogRecord",
    "Put",
    "RecordKind",
    "Redo",
    "SharedLog",
    "decisions",
    "fold",
]


def _same_kind_eq(self, other) -> bool:
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _same_kind_ne(self, other) -> bool:
    return not _same_kind_eq(self, other)


def _class_distinct(cls):
    """The three update kinds are tuple-backed records (a txn stages one per
    write and the WAL retains them all), but equality stays class-distinct:
    a ``Put`` never equals an ``Increment`` with the same fields, nor a bare
    tuple — plain tuple equality would merge them."""
    cls.__eq__ = _same_kind_eq
    cls.__ne__ = _same_kind_ne
    cls.__hash__ = tuple.__hash__
    return cls


@_class_distinct
class Put(NamedTuple):
    """Set ``table[key] = value``."""

    table: str
    key: object
    value: object


@_class_distinct
class Delete(NamedTuple):
    """Remove ``table[key]``."""

    table: str
    key: object


@_class_distinct
class Increment(NamedTuple):
    """Add ``delta`` to the numeric counter at ``table[key]``.

    A blind commutative update: increments merge regardless of order, which
    is what makes transactions composed solely of them invariant-confluent
    (Bailis et al.) and eligible for the coordination-free fast path.  A
    non-numeric existing value is treated as 0 (counter-column semantics).
    """

    table: str
    key: object
    delta: int = 1


Entry = Union[Put, Delete, Increment]


class RecordKind(enum.Enum):
    COMMIT_DATA = "commit-data"
    VOTE_YES = "vote-yes"
    DECISION_COMMIT = "decision-commit"
    DECISION_ABORT = "decision-abort"
    TXN_BEGIN = "txn-begin"
    PREPARE = "prepare"
    TXN_END = "txn-end"


@dataclass(frozen=True)
class LogRecord:
    """One appended record.  ``lsn`` is the log's end LSN *after* this record.

    ``participants`` (present on VOTE_YES records) names every log taking part
    in the 2PC transaction, enabling the Cornus-style termination protocol:
    an in-doubt transaction's outcome is decided by the participant logs
    themselves (all voted yes => committed), never by a blocked coordinator.
    """

    lsn: int
    txn_id: str
    kind: RecordKind
    entries: Tuple[Entry, ...]
    participants: Tuple[str, ...] = ()


class AppendResult(NamedTuple):
    """Outcome of a conditional append: matches the paper's
    ``(status, new_lsn) <- Append(updates, target_lsn)`` signature."""

    ok: bool
    lsn: int


class SharedLog:
    """An append-only log with an atomic conditional-append primitive."""

    def __init__(self, name: str):
        self.name = name
        self.records: List[LogRecord] = []
        self.failed_appends = 0
        #: Observers called with each newly appended record (replay hooks).
        self._listeners: List[Callable[[LogRecord], None]] = []

    @property
    def end_lsn(self) -> int:
        return len(self.records)

    def subscribe(self, listener: Callable[[LogRecord], None]) -> None:
        self._listeners.append(listener)

    def append(
        self,
        txn_id: str,
        kind: RecordKind,
        entries: Tuple[Entry, ...] = (),
        expected_lsn: Optional[int] = None,
        participants: Tuple[str, ...] = (),
    ) -> AppendResult:
        """Append one record; with ``expected_lsn`` set, this is Append@LSN.

        Returns ``(True, new_end_lsn)`` on success.  On a version mismatch
        returns ``(False, current_end_lsn)`` so the caller can refresh its
        tracker and retry — exactly the ETag/If-Match contract of §5.
        """
        if expected_lsn is not None and expected_lsn != self.end_lsn:
            self.failed_appends += 1
            return AppendResult(False, self.end_lsn)
        record = LogRecord(
            lsn=self.end_lsn + 1,
            txn_id=txn_id,
            kind=kind,
            entries=tuple(entries),
            participants=tuple(participants),
        )
        self.records.append(record)
        for listener in self._listeners:
            listener(record)
        return AppendResult(True, self.end_lsn)

    def append_batch(
        self,
        bodies: List[Tuple[str, RecordKind, Tuple[Entry, ...]]],
        expected_lsn: Optional[int] = None,
    ) -> AppendResult:
        """Atomically append several records (group commit, §5).

        All-or-nothing under the same CAS condition as :meth:`append`; records
        receive consecutive LSNs.
        """
        if expected_lsn is not None and expected_lsn != self.end_lsn:
            self.failed_appends += 1
            return AppendResult(False, self.end_lsn)
        for txn_id, kind, entries in bodies:
            self.append(txn_id, kind, entries, expected_lsn=None)
        return AppendResult(True, self.end_lsn)

    def read_from(self, lsn: int) -> List[LogRecord]:
        """All records with LSN strictly greater than ``lsn``."""
        if lsn < 0:
            lsn = 0
        return self.records[lsn:]

    def txn_outcome(self, txn_id: str) -> Tuple[Optional[bool], bool]:
        """``(outcome, voted)`` for ``txn_id``, from one scan of the log.

        ``outcome`` is True committed, False aborted, None open, by the
        log-once rule (:func:`decisions`); ``voted`` says whether a
        ``VOTE_YES`` landed.  Used by the Cornus-style termination protocol
        for in-doubt 2PC transactions: the logs, not the coordinator, are
        the source of truth.
        """
        mine = [record for record in self.records if record.txn_id == txn_id]
        voted = any(record.kind is RecordKind.VOTE_YES for record in mine)
        return decisions(mine).get(txn_id), voted

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SharedLog({self.name!r}, end_lsn={self.end_lsn})"


def fold(entries: Iterable[Entry], table_of: Callable[[str], Optional[dict]]):
    """Apply committed ``entries`` in order.

    ``table_of(name)`` returns the dict holding table ``name``, or None for
    a table the caller does not keep.  It is asked once per entry, so a
    caller whose table dicts get reassigned never folds into a stale one.
    """
    for entry in entries:
        table = table_of(entry.table)
        if table is None:
            continue
        if isinstance(entry, Put):
            table[entry.key] = entry.value
        elif isinstance(entry, Delete):
            table.pop(entry.key, None)
        elif isinstance(entry, Increment):
            current = table.get(entry.key, 0)
            if not isinstance(current, (int, float)):
                current = 0  # counter-column semantics over stale blobs
            table[entry.key] = current + entry.delta
        else:
            raise TypeError(f"unknown log entry {entry!r}")


class Redo:
    """When one log's records take effect: the two-phase redo rule.

    :meth:`feed` each record in LSN order; it returns ``(committed,
    updates)``.  ``COMMIT_DATA`` commits its updates at once; ``VOTE_YES``
    buffers them under its txn; ``DECISION_COMMIT`` commits what its txn
    buffered and ``DECISION_ABORT`` drops it.  Under the log-once rule the
    first decision empties the buffer, so a later conflicting one changes
    nothing.
    """

    __slots__ = ("pending",)

    def __init__(self):
        #: txn id -> updates from its VOTE_YES records, awaiting a decision.
        self.pending: Dict[str, List[Entry]] = {}

    def feed(
        self, txn_id: str, kind: RecordKind, entries: Sequence[Entry]
    ) -> Tuple[bool, Sequence[Entry]]:
        if kind is RecordKind.COMMIT_DATA:
            return True, entries
        if kind is RecordKind.VOTE_YES:
            self.pending.setdefault(txn_id, []).extend(entries)
        elif kind is RecordKind.DECISION_COMMIT:
            return True, self.pending.pop(txn_id, ())
        elif kind is RecordKind.DECISION_ABORT:
            self.pending.pop(txn_id, None)
        return False, ()


def decisions(records: Iterable[LogRecord]) -> Dict[str, bool]:
    """``{txn_id: committed}`` from the first decision record per txn.

    The log-once rule: racing resolvers may append conflicting decisions,
    but every reader agrees on the earliest one.
    """
    decided: Dict[str, bool] = {}
    for record in records:
        kind = record.kind
        if kind is RecordKind.DECISION_COMMIT:
            decided.setdefault(record.txn_id, True)
        elif kind is RecordKind.DECISION_ABORT:
            decided.setdefault(record.txn_id, False)
    return decided
