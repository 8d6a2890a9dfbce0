"""The disaggregated storage service actor.

One ``StorageService`` runs per region (the paper co-locates storage with its
region's compute nodes, §6.5).  It owns the WALs (per-node GLogs plus the
global SysLog), the page store and the replay service, and exposes the LogDB
API over RPC:

* ``append(log, txn_id, kind, entries, expected_lsn)`` — Append@LSN,
* ``get_page(table, key, log, lsn)`` — GetPage@LSN (waits for replay),
* ``scan_table`` / ``read_log`` / ``log_end_lsn`` / ``check_lsn`` — metadata
  refresh and recovery reads.

The storage tier is modeled as highly available and horizontally scalable
(requests add latency but never queue), matching the paper's assumption that
only compute nodes fail.  The one fault the chaos engine injects here is a
*stall window* (:meth:`StorageService.stall`): a brownout during which every
request blocks until the window passes — queued IO completing in a burst —
without losing durability.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.sim.core import Simulator, Timeout
from repro.sim.network import Network
from repro.sim.rpc import RpcEndpoint
from repro.storage.log import AppendResult, RecordKind, SharedLog
from repro.storage.pagestore import PageStore
from repro.storage.replay import ReplayService

__all__ = ["StorageService"]

#: Default service-side latencies (seconds); calibrated against Azure Append
#: Blob / Table Storage figures quoted in storage-disaggregation literature.
DEFAULT_APPEND_LATENCY = 0.0012
DEFAULT_READ_LATENCY = 0.0008
DEFAULT_REPLAY_LAG = 0.002


class StorageService:
    """Region-local disaggregated storage with near-storage CAS capability."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str = "storage",
        region: str = "us-west",
        append_latency: float = DEFAULT_APPEND_LATENCY,
        read_latency: float = DEFAULT_READ_LATENCY,
        replay_lag: float = DEFAULT_REPLAY_LAG,
    ):
        self.sim = sim
        self.address = address
        self.region = region
        self.append_latency = append_latency
        self.read_latency = read_latency
        self.logs: Dict[str, SharedLog] = {}
        self.pagestore = PageStore()
        self.replay = ReplayService(sim, self.pagestore, lag=replay_lag)
        self.endpoint = RpcEndpoint(sim, network, address, region)
        self.appends_served = 0
        self.reads_served = 0
        #: Brownout deadline: requests in flight before this time stall.
        self.stalled_until = 0.0
        for method in (
            "append",
            "append_batch",
            "read_log",
            "log_end_lsn",
            "check_lsn",
            "get_page",
            "scan_table",
            "txn_outcome",
        ):
            self.endpoint.register(method, getattr(self, f"_h_{method}"))

    # -- direct (in-process) API, used by tests and bootstrap ----------------

    def create_log(self, name: str) -> SharedLog:
        """Create (or return) a WAL; replay is attached exactly once."""
        log = self.logs.get(name)
        if log is None:
            log = SharedLog(name)
            self.logs[name] = log
            self.replay.track(log)
        return log

    def log(self, name: str) -> SharedLog:
        return self.logs[name]

    # -- fault injection ------------------------------------------------------

    def stall(self, duration: float) -> None:
        """Open (or extend) a brownout window ``duration`` seconds long."""
        self.stalled_until = max(self.stalled_until, self.sim.now + duration)

    def _service_delay(self, base: float) -> float:
        """Base service latency, stretched to the end of any stall window."""
        stall = self.stalled_until - self.sim.now
        return base + stall if stall > 0.0 else base

    # -- RPC handlers ---------------------------------------------------------

    def _h_append(
        self,
        log_name: str,
        txn_id: str,
        kind: RecordKind,
        entries: tuple,
        expected_lsn: Optional[int],
        participants: tuple = (),
    ):
        yield Timeout(self._service_delay(self.append_latency))
        self.appends_served += 1
        result = self.logs[log_name].append(
            txn_id, kind, entries, expected_lsn, participants
        )
        return result

    def _h_append_batch(
        self,
        log_name: str,
        bodies: list,
        expected_lsn: Optional[int],
    ):
        yield Timeout(self._service_delay(self.append_latency))
        self.appends_served += 1
        return self.logs[log_name].append_batch(bodies, expected_lsn)

    def _h_read_log(self, log_name: str, from_lsn: int):
        yield Timeout(self._service_delay(self.read_latency))
        self.reads_served += 1
        return list(self.logs[log_name].read_from(from_lsn))

    def _h_log_end_lsn(self, log_name: str):
        yield Timeout(self._service_delay(self.read_latency))
        return self.logs[log_name].end_lsn

    def _h_check_lsn(self, log_name: str, expected_lsn: int):
        """Read-only CAS probe: (matches, current_lsn).  Used by read-only
        MarlinCommit validation (ScanGTableTxn) which must not advance LSNs."""
        yield Timeout(self._service_delay(self.read_latency))
        current = self.logs[log_name].end_lsn
        return (current == expected_lsn, current)

    def _h_get_page(self, table: str, key: object, log_name: str, lsn: int):
        yield Timeout(self._service_delay(self.read_latency))
        self.reads_served += 1
        yield self.replay.wait_applied(log_name, lsn)
        return self.pagestore.get(table, key)

    def _h_scan_table(self, table: str, log_name: Optional[str], lsn: int):
        yield Timeout(self._service_delay(self.read_latency))
        self.reads_served += 1
        if log_name is not None:
            yield self.replay.wait_applied(log_name, lsn)
        return self.pagestore.snapshot(table)

    def _h_txn_outcome(self, log_name: str, txn_id: str):
        """Termination-protocol probe: (outcome, voted) for ``txn_id``."""
        yield Timeout(self._service_delay(self.read_latency))
        return self.logs[log_name].txn_outcome(txn_id)
