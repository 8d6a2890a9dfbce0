"""What a finished cell is and how it is read: ``RunResult`` + the probe table.

``run_spec`` builds one ``RunResult``; ``run_cells``, ``ProcessPoolRunner``,
``ResultCache``, ``Grid.run``, ``Sweep.run`` and the CLI all hand the same
type back whether the cell ran in this process, in a pool worker or came out
of the cache.  The only difference is ``cluster``: present on a cell executed
in this process, ``None`` once the result has been pickled (the live cluster
is generator-laden and never crosses a process or cache boundary) — so
*pickling is detaching*, and everything a figure reads is computed from what
survives it.

An SLO probe kind is one :data:`PROBES` row — how to read a value off a
finished run over a ``[t0, t1)`` window, whether the threshold is a ceiling or
a floor, and what an empty window reads.  ``ProbeSpec`` takes its valid kinds
from the table and the runner evaluates through it, so a new kind is one row
here plus its row in EXPERIMENTS.md's ``ProbeSpec`` table, which mirrors it.
Windows select whole metric buckets by their start time
(``t0 <= b * bucket < t1``), for sample series and counters alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cluster.cost import CostReport
from repro.cluster.metrics import MetricsCollector

__all__ = ["PROBES", "Probe", "ProbeResult", "RunResult"]


@dataclass
class ProbeResult:
    """One evaluated SLO probe: measured value vs. threshold.

    For series probes (``ProbeSpec.every``), ``series`` holds one
    ``(window_start, value, ok)`` entry per sub-window and
    ``violation_fraction`` is the share of *measured* windows that violated
    the threshold — the "violation fraction over time" view of an SLO; the
    top-level ``value`` / ``ok`` stay the whole-window verdict.  A probe
    that measured nothing (e.g. ``migration_latency`` over a cell with no
    recorded migrations) reports ``value=None`` / ``violation_fraction=None``
    — "unmeasured", deliberately distinct from a measured 0.0.
    """

    name: str
    kind: str
    value: Optional[float]
    threshold: float
    ok: bool
    series: Optional[List[Tuple[float, Optional[float], bool]]] = None
    violation_fraction: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "name": self.name,
            "kind": self.kind,
            "value": self.value,
            "threshold": self.threshold,
            "ok": self.ok,
        }
        if self.series is not None:
            out["series"] = [[t, v, ok] for t, v, ok in self.series]
            out["violation_fraction"] = self.violation_fraction
        return out


@dataclass
class RunResult:
    """Everything measured in one run of one spec."""

    system: str
    duration: float
    spec: Any  # the cell's ScenarioSpec
    metrics: MetricsCollector
    #: Priced once, at the end of the run, from the config's rate card.
    cost: Optional[CostReport] = None
    scale_summaries: List[dict] = field(default_factory=list)
    probes: List[ProbeResult] = field(default_factory=list)
    #: Action-specific outputs (e.g. ``membership_churn`` statistics).
    extras: Dict[str, Any] = field(default_factory=dict)
    #: Detached :class:`repro.obs.TraceData` (plain data, pickles fine)
    #: when the spec enabled tracing; ``None`` otherwise.
    trace: Any = None
    #: The live cluster, on a cell executed in this process only.
    cluster: Any = None

    #: Distinguishes results from ``CellFailure`` without isinstance.
    ok = True

    def __getstate__(self):
        state = self.__dict__.copy()
        state["cluster"] = None
        return state

    @property
    def migration_duration(self) -> float:
        return self.metrics.migration_duration

    @property
    def slo_ok(self) -> bool:
        return all(p.ok for p in self.probes)

    def throughput_series(self):
        return self.metrics.throughput_series(self.duration)

    def migration_series(self):
        return self.metrics.migration_series(self.duration)

    def abort_series(self):
        return self.metrics.abort_ratio_series(self.duration)

    def latency_series(self, pct=50.0):
        return self.metrics.latency_series(self.duration, pct=pct)

    def summary(self) -> Dict[str, Any]:
        """JSON-ready digest (what the CLI prints for spec-file runs)."""
        m = self.metrics
        return {
            "name": self.spec.name,
            "system": self.system,
            "seed": self.spec.seed,
            "duration_s": self.duration,
            "committed": m.total_committed,
            "aborted": m.total_aborted,
            "abort_ratio": m.abort_ratio(),
            "migrations": m.total_migrations,
            "migration_duration_s": m.migration_duration,
            "failovers": len(m.failovers),
            "latency_p99_s": m.latency_stats()["p99"],
            "cost_per_mtxn_usd": self.cost.cost_per_million_txns,
            "slo_ok": self.slo_ok,
            "probes": [p.to_dict() for p in self.probes],
            "extras": self.extras,
        }


class Probe(NamedTuple):
    """One probe kind (a :data:`PROBES` row)."""

    #: ``read(result, probe, t0, t1)`` -> the measured value, or ``None``
    #: when the window holds nothing to measure.
    read: Callable[..., Optional[float]]
    #: Verdict: ``value >= threshold`` (a floor) instead of ``<=`` (a ceiling).
    floor: bool
    #: What an empty window reads.  ``None`` is "unmeasured" (``ok`` stays
    #: true, series windows leave the violation denominator): a 0.0 there
    #: would read as "instant failover" / "zero loss" in cells where no
    #: failover ever ran — the vacuous-SLO footgun.
    empty: Optional[float]


def _samples(store: str, reduce: Callable) -> Callable:
    """Reader over one ``MetricsCollector`` sample series."""

    def read(result, probe, t0, t1):
        samples = getattr(result.metrics, store).window(t0, t1)
        return float(reduce(samples, probe)) if len(samples) else None

    return read


def _percentile(samples, probe):
    return np.percentile(samples, probe.pct)


def _worst(samples, probe):
    # One lossy (or slow) failover is a violation even when siblings in the
    # same window were clean.
    return samples.max()


def _throughput(result, t0, t1):
    return [v for t, v in result.throughput_series() if t0 <= t < t1]


def _mean_throughput(result, probe, t0, t1):
    points = _throughput(result, t0, t1)
    return float(np.mean(points)) if points else None


def _longest_outage(result, probe, t0, t1):
    points = _throughput(result, t0, t1)
    if not points:
        return None
    longest = current = 0.0
    for tps in points:
        current = current + result.metrics.bucket if tps == 0 else 0.0
        longest = max(longest, current)
    return longest


def _abort_ratio(result, probe, t0, t1):
    m = result.metrics
    commits, aborts = (
        sum(c for b, c in counts.items() if t0 <= b * m.bucket < t1)
        for counts in (m.committed, m.aborted)
    )
    total = commits + aborts
    return aborts / total if total else None


def _counter(result, probe, t0, t1):
    # A whole-run ``Cluster.stats()`` value; windows do not apply (counters
    # are not bucketed).
    return float(result.extras["counters"][probe.counter])


#: kind -> how it is read, ceiling or floor, what an empty window reads.
PROBES: Dict[str, Probe] = {
    "latency": Probe(_samples("latency", _percentile), False, 0.0),
    "throughput_floor": Probe(_mean_throughput, True, 0.0),
    "abort_ceiling": Probe(_abort_ratio, False, 0.0),
    "unavailability": Probe(_longest_outage, False, 0.0),
    "migration_latency": Probe(
        _samples("migration_latency", _percentile), False, None
    ),
    "counter_max": Probe(_counter, False, 0.0),
    "counter_min": Probe(_counter, True, 0.0),
    "rpo_bytes": Probe(_samples("rpo", _worst), False, None),
    "rto_s": Probe(_samples("rto", _worst), False, None),
}
