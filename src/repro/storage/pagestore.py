"""Versioned page store materialised from WALs (§3.1).

The page store holds the authoritative, replayed image of every table.  It
tracks, per log, the highest LSN whose effects are visible (``applied_lsn``);
``GetPage@LSN`` readers wait until replay catches up to their requested
version.  Two-phase records are buffered per transaction and applied or
discarded when the decision record arrives.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.storage.log import Delete, Increment, LogRecord, Put, RecordKind

__all__ = ["PageStore"]


class PageStore:
    """Materialised key-value tables plus per-log replay progress."""

    def __init__(self):
        self._tables: Dict[str, Dict[object, object]] = defaultdict(dict)
        self.applied_lsn: Dict[str, int] = defaultdict(int)
        # txn_id -> list of provisional entries seen in VOTE_YES records,
        # keyed per log so an abort discards only that log's share.
        self._pending: Dict[Tuple[str, str], List] = defaultdict(list)
        self.records_applied = 0

    # -- replay side ---------------------------------------------------------

    def apply(self, log_name: str, record: LogRecord) -> None:
        """Apply one log record in LSN order (called by the replay service)."""
        expected = self.applied_lsn[log_name] + 1
        if record.lsn != expected:
            raise ValueError(
                f"out-of-order replay on {log_name}: got lsn {record.lsn}, "
                f"expected {expected}"
            )
        if record.kind is RecordKind.COMMIT_DATA:
            self._apply_entries(record.entries)
        elif record.kind is RecordKind.VOTE_YES:
            self._pending[(log_name, record.txn_id)].extend(record.entries)
        elif record.kind is RecordKind.DECISION_COMMIT:
            entries = self._pending.pop((log_name, record.txn_id), [])
            self._apply_entries(entries)
        elif record.kind is RecordKind.DECISION_ABORT:
            self._pending.pop((log_name, record.txn_id), None)
        self.applied_lsn[log_name] = record.lsn
        self.records_applied += 1

    def _apply_entries(self, entries) -> None:
        for entry in entries:
            if isinstance(entry, Put):
                self._tables[entry.table][entry.key] = entry.value
            elif isinstance(entry, Delete):
                self._tables[entry.table].pop(entry.key, None)
            elif isinstance(entry, Increment):
                current = self._tables[entry.table].get(entry.key, 0)
                if not isinstance(current, (int, float)):
                    current = 0  # counter-column semantics over stale blobs
                self._tables[entry.table][entry.key] = current + entry.delta
            else:
                raise TypeError(f"unknown log entry {entry!r}")

    # -- read side -----------------------------------------------------------

    def get(self, table: str, key: object, default=None):
        return self._tables[table].get(key, default)

    def contains(self, table: str, key: object) -> bool:
        return key in self._tables[table]

    def snapshot(self, table: str) -> Dict[object, object]:
        """A copy of the table's current materialised contents."""
        return dict(self._tables[table])

    def table_size(self, table: str) -> int:
        return len(self._tables[table])

    def pending_txns(self, log_name: str) -> List[str]:
        """Transaction ids with buffered-but-undecided updates on ``log_name``."""
        return [txn for (log, txn) in self._pending if log == log_name]
