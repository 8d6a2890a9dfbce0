"""Disaggregated storage substrate (log-as-the-database, §3.1).

Provides the two standard LogDB APIs the paper relies on — ``Append(updates)``
and ``GetPage(pageId, LSN)`` — plus the enhanced conditional append
``Append(updates, LSN)`` (*Append@LSN*) that MarlinCommit is built on, and a
page store materialised by an asynchronous replay service.
"""

from repro.storage.log import (
    AppendResult,
    Delete,
    LogRecord,
    Put,
    RecordKind,
    SharedLog,
)
from repro.storage.pagestore import PageStore
from repro.storage.replay import ReplayService
from repro.storage.service import StorageService

__all__ = [
    "AppendResult",
    "Delete",
    "LogRecord",
    "PageStore",
    "Put",
    "RecordKind",
    "ReplayService",
    "SharedLog",
    "StorageService",
]
