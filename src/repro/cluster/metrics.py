"""Time-bucketed measurement of throughput, latency, aborts, reconfigurations.

Implements the paper's methodology (§6.1.4): throughput and latency are
reported for committed transactions; abort ratio is aborts over attempts per
time bucket; migration progress is tracked so "migration duration" (first to
last MigrationTxn commit) can be reported per run.

Hot-path design: the ``record_*`` hooks run once per simulated transaction,
so they are O(1) with no numpy and no per-sample Python object retention —
samples stream into a :class:`SampleSeries` (packed ``array.array`` buffers:
value + bucket index) and bucket counters are plain int dicts.  The derived
``*_series`` / ``stats`` / ``window`` views do the numpy work once and
memoise the result until the next record invalidates it.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["MetricsCollector", "SampleSeries"]


class SampleSeries:
    """Append-only float samples, each stamped with its time-bucket id.

    The one store behind every sampled measurement (commit latency,
    migration latency, RPO, RTO): ``add`` is two packed appends, ``stats``
    and ``window`` read numpy views built on demand.
    """

    def __init__(self, bucket: float):
        self.bucket = bucket
        self.values = array("d")
        self.buckets = array("q")
        self._grouped: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self.values)

    def add(self, b: int, value: float) -> None:
        """Record ``value`` in bucket id ``b`` (= ``int(t // bucket)``)."""
        self.values.append(value)
        self.buckets.append(b)

    def __getstate__(self):
        # Series cross process boundaries inside their collector; the
        # grouped view is derived data, so drop it rather than ship it.
        state = self.__dict__.copy()
        state["_grouped"] = None
        return state

    def grouped(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(bucket ids, bucket start times, values)`` sorted by bucket id
        (arrival order within a bucket); memoised until the next ``add``.
        Copies, never views: a live view would pin the packed buffers and
        make the next ``add`` raise ``BufferError``."""
        if self._grouped is None or self._grouped[0] != len(self.values):
            ids = np.frombuffer(self.buckets, dtype=np.int64)
            values = np.frombuffer(self.values, dtype=np.float64)
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            self._grouped = (len(values), ids, ids * self.bucket, values[order])
        return self._grouped[1:]

    def window(self, t0: float, t1: float) -> np.ndarray:
        """Samples whose bucket start ``b * bucket`` lies in ``[t0, t1)``."""
        _ids, starts, values = self.grouped()
        lo, hi = np.searchsorted(starts, (t0, t1), side="left")
        return values[lo:hi]

    def stats(self) -> Dict[str, float]:
        if not self.values:
            return {"mean": 0.0, "p50": 0.0, "p99": 0.0}
        arr = np.frombuffer(self.values, dtype=np.float64)
        return {
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p99": float(np.percentile(arr, 99)),
        }


class MetricsCollector:
    """Shared collector; clients and nodes call the ``record_*`` hooks."""

    def __init__(self, bucket: float = 1.0):
        self.bucket = bucket
        self.committed: Dict[int, int] = defaultdict(int)
        self.aborted: Dict[int, int] = defaultdict(int)
        self.abort_reasons: Dict[str, int] = defaultdict(int)
        self.migrations: Dict[int, int] = defaultdict(int)
        #: Commit latency of every committed user transaction.
        self.latency = SampleSeries(bucket)
        self.migration_latency = SampleSeries(bucket)
        #: Replication probes, one sample per completed failover promotion:
        #: acked-but-lost WAL bytes (RPO) and suspicion-to-serving seconds
        #: (RTO).  Empty in replication-off runs — the probes then report
        #: value=None, never a vacuous 0.0.
        self.rpo = SampleSeries(bucket)
        self.rto = SampleSeries(bucket)
        self.failovers: List[Tuple[float, int, int]] = []
        #: (time, node_count) step function for realtime cost integration;
        #: appended in nondecreasing time order (enforced by record_node_count).
        self.node_count_events: List[Tuple[float, int]] = []
        self.first_migration: Optional[float] = None
        self.last_migration: Optional[float] = None
        self.total_committed = 0
        self.total_aborted = 0
        self.total_migrations = 0
        self._version = 0
        self._cache_version = 0
        self._cache: Dict[tuple, object] = {}

    def _bucket(self, t: float) -> int:
        return int(t // self.bucket)

    # -- recording hooks ---------------------------------------------------------

    def record_commit(self, t: float, latency: float) -> None:
        b = int(t // self.bucket)
        self.committed[b] += 1
        self.latency.add(b, latency)
        self.total_committed += 1
        self._version += 1

    def record_abort(self, t: float, reason: str = "unknown") -> None:
        self.aborted[int(t // self.bucket)] += 1
        self.abort_reasons[reason] += 1
        self.total_aborted += 1
        self._version += 1

    def record_migration(self, t: float, latency: Optional[float] = None) -> None:
        self.migrations[self._bucket(t)] += 1
        self.total_migrations += 1
        if self.first_migration is None or t < self.first_migration:
            self.first_migration = t
        if self.last_migration is None or t > self.last_migration:
            self.last_migration = t
        if latency is not None:
            self.migration_latency.add(self._bucket(t), latency)
        self._version += 1

    def record_failover(self, t: float, dead_id: int, granules: int) -> None:
        self.failovers.append((t, dead_id, granules))

    def record_rpo(self, t: float, nbytes: float) -> None:
        """Acked-but-lost WAL bytes measured at one failover promotion."""
        self.rpo.add(self._bucket(t), nbytes)

    def record_rto(self, t: float, seconds: float) -> None:
        """Suspicion-to-first-serving latency of one failover promotion."""
        self.rto.add(self._bucket(t), seconds)

    def record_node_count(self, t: float, count: int) -> None:
        events = self.node_count_events
        if events and t < events[-1][0]:
            raise ValueError(
                f"node-count event at t={t} arrived after t={events[-1][0]}; "
                "record_node_count requires nondecreasing times"
            )
        events.append((t, count))

    def __getstate__(self):
        # Collectors cross process boundaries in parallel sweeps; the memo
        # cache holds derived series, so drop it rather than ship (or
        # deep-copy) what the receiver can rebuild.
        state = self.__dict__.copy()
        state["_cache"] = {}
        return state

    # -- derived series ------------------------------------------------------------

    def _cached(self, key: tuple, builder):
        # The whole cache is dropped on the first lookup after any record,
        # so stale entries (e.g. for superseded ``until`` values) never pile
        # up across a long run.
        if self._cache_version != self._version:
            self._cache.clear()
            self._cache_version = self._version
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = builder()
        return hit

    def _series(self, counters: Dict[int, int], until: float) -> List[Tuple[float, float]]:
        last = max(int(until // self.bucket), max(counters, default=0))
        return [
            (b * self.bucket, counters.get(b, 0) / self.bucket)
            for b in range(0, last + 1)
        ]

    def throughput_series(self, until: float) -> List[Tuple[float, float]]:
        """Committed transactions per second, per bucket."""
        return self._cached(
            ("tput", until), lambda: self._series(self.committed, until)
        )

    def migration_series(self, until: float) -> List[Tuple[float, float]]:
        return self._cached(
            ("migr", until), lambda: self._series(self.migrations, until)
        )

    def abort_ratio_series(self, until: float) -> List[Tuple[float, float]]:
        """Aborts / attempts per bucket (the paper's Abort Ratio axis)."""
        return self._cached(
            ("abort", until), lambda: self._abort_ratio_series(until)
        )

    def _abort_ratio_series(self, until: float) -> List[Tuple[float, float]]:
        last = max(
            int(until // self.bucket),
            max(self.committed, default=0),
            max(self.aborted, default=0),
        )
        out = []
        for b in range(0, last + 1):
            commits = self.committed.get(b, 0)
            aborts = self.aborted.get(b, 0)
            total = commits + aborts
            out.append((b * self.bucket, aborts / total if total else 0.0))
        return out

    def latency_series(self, until: float, pct: float = 50.0) -> List[Tuple[float, float]]:
        return self._cached(
            ("lat", until, pct), lambda: self._latency_series(until, pct)
        )

    def _latency_series(self, until: float, pct: float) -> List[Tuple[float, float]]:
        buckets, _starts, values = self.latency.grouped()
        newest = int(buckets[-1]) if len(buckets) else -1
        last = max(int(until // self.bucket), newest)
        starts = np.searchsorted(buckets, np.arange(0, last + 2))
        out = []
        for b in range(0, last + 1):
            lo, hi = starts[b], starts[b + 1]
            point = float(np.percentile(values[lo:hi], pct)) if hi > lo else 0.0
            out.append((b * self.bucket, point))
        return out

    # -- summary statistics ----------------------------------------------------------

    @property
    def migration_duration(self) -> float:
        """First-to-last migration commit (the paper's migration duration)."""
        if self.first_migration is None or self.last_migration is None:
            return 0.0
        return self.last_migration - self.first_migration

    def migration_latency_stats(self) -> Dict[str, float]:
        return self.migration_latency.stats()

    def latency_stats(self) -> Dict[str, float]:
        return self.latency.stats()

    def abort_ratio(self) -> float:
        total = self.total_committed + self.total_aborted
        return self.total_aborted / total if total else 0.0

    def node_seconds(self, until: float) -> float:
        """Integral of the node-count step function over [0, until].

        ``node_count_events`` is append-only in time order (see
        :meth:`record_node_count`), so no sort is needed here.
        """
        events = self.node_count_events
        if not events:
            return 0.0
        area = 0.0
        for (t0, n0), (t1, _n1) in zip(events, events[1:]):
            area += n0 * (min(t1, until) - min(t0, until))
        last_t, last_n = events[-1]
        if until > last_t:
            area += last_n * (until - last_t)
        return area
