"""Deterministic observability: tracing, flight recorder, exporters.

See OBSERVABILITY.md for the span model and how the pieces connect:

* :class:`Tracer` / :class:`TraceData` — sim-time span recorder with
  bounded per-track flight-recorder rings (:mod:`repro.obs.tracer`);
* Chrome trace-event export + schema validation
  (:mod:`repro.obs.export`), also runnable as
  ``python -m repro.obs TRACE.json``;
* assertion forensics (:mod:`repro.obs.forensics`).
"""

from repro.obs.export import (
    chrome_trace,
    trace_json,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.forensics import (
    fault_log_lines,
    flight_recorder_lines,
    forensic_report,
    forensics,
)
from repro.obs.tracer import TraceData, Tracer, span_summary

__all__ = [
    "TraceData",
    "Tracer",
    "chrome_trace",
    "fault_log_lines",
    "flight_recorder_lines",
    "forensic_report",
    "forensics",
    "span_summary",
    "trace_json",
    "validate_chrome_trace",
    "write_chrome_trace",
]
