"""Versioned page store materialised from WALs (§3.1).

The page store holds the authoritative, replayed image of every table.  It
tracks, per log, the highest LSN whose effects are visible (``applied_lsn``);
``GetPage@LSN`` readers wait until replay catches up to their requested
version.  What each record does is read from ``storage/log.py``: one
:class:`~repro.storage.log.Redo` per log decides when updates apply
(two-phase votes wait for their decision record, per log, so an abort
discards only that log's share) and :func:`~repro.storage.log.fold`
applies them to every table.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.storage.log import LogRecord, Redo, fold

__all__ = ["PageStore"]


class PageStore:
    """Materialised key-value tables plus per-log replay progress."""

    def __init__(self):
        self._tables: Dict[str, Dict[object, object]] = defaultdict(dict)
        self._table_of = self._tables.__getitem__
        self.applied_lsn: Dict[str, int] = defaultdict(int)
        self._redo: Dict[str, Redo] = defaultdict(Redo)
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
        _, updates = self._redo[log_name].feed(
            record.txn_id, record.kind, record.entries
        )
        if updates:
            fold(updates, self._table_of)
        self.applied_lsn[log_name] = record.lsn
        self.records_applied += 1

    # -- read side -----------------------------------------------------------

    def get(self, table: str, key: object, default=None):
        return self._tables[table].get(key, default)

    def snapshot(self, table: str) -> Dict[object, object]:
        """A copy of the table's current materialised contents."""
        return dict(self._tables[table])
