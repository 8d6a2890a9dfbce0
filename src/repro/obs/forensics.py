"""Failure forensics: flight-recorder + fault-log timelines on assert.

Turns a bare "invariant violated at quiescence" into a causal timeline.
Wrap invariant checks in :func:`forensics`; when an
:class:`~repro.core.invariants.InvariantViolation` (or any assertion)
escapes, the re-raised error carries:

* the chaos controller's ``fault_log`` (every inject/clear with sim time),
* the tail of every per-track flight-recorder ring (the last N span
  events each node recorded before the check ran — FSM edges, fault-point
  fires, WAL appends, RPC serves).

Both sources are optional: with no chaos controller and no tracer the
report says so instead of silently attaching nothing, so a test author
knows to enable tracing to get the timeline.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional

from repro.core.invariants import InvariantViolation

__all__ = [
    "fault_log_lines",
    "flight_recorder_lines",
    "forensic_report",
    "forensics",
]


def _fmt_args(args) -> str:
    if not args:
        return ""
    return " " + " ".join(f"{k}={args[k]}" for k in sorted(args))


def flight_recorder_lines(tracer, tail: Optional[int] = None) -> List[str]:
    """Render every flight-recorder ring as ``time kind name`` lines.

    ``tracer`` may be a live :class:`~repro.obs.tracer.Tracer` or a
    detached :class:`~repro.obs.tracer.TraceData` — both expose ``rings``.
    """
    lines: List[str] = []
    for track in sorted(tracer.rings):
        entries = list(tracer.rings[track])
        if tail is not None:
            entries = entries[-tail:]
        lines.append(f"-- flight recorder [{track}] "
                     f"(last {len(entries)} events) --")
        for t, kind, name, args in entries:
            lines.append(f"  {t:>12.6f}  {kind:<7} {name}{_fmt_args(args)}")
    return lines


def fault_log_lines(chaos) -> List[str]:
    """Render a :class:`ChaosController` ``fault_log`` as timeline lines."""
    lines = [f"-- chaos fault log ({len(chaos.fault_log)} entries) --"]
    for t, phase, event in chaos.fault_log:
        lines.append(f"  {t:>12.6f}  {phase:<7} {event!r}")
    return lines


def forensic_report(cluster, tail: Optional[int] = 40) -> str:
    """Build the combined timeline for ``cluster`` (may be multi-line '')."""
    lines: List[str] = ["=== forensics ==="]
    chaos = cluster._chaos
    if chaos is not None and chaos.fault_log:
        lines.extend(fault_log_lines(chaos))
    tracer = cluster.tracer
    if tracer is not None:
        lines.extend(flight_recorder_lines(tracer, tail=tail))
    else:
        lines.append("(tracing off — attach a Tracer / set TraceSpec for a "
                     "flight-recorder timeline)")
    return "\n".join(lines)


@contextmanager
def forensics(cluster, tail: Optional[int] = 40):
    """Context manager: annotate escaping assertions with the timeline.

    Re-raises the same exception class (``InvariantViolation`` stays an
    ``InvariantViolation``) with the forensic report appended to the
    message, chaining the original for the traceback.
    """
    try:
        yield
    except AssertionError as exc:
        cls = InvariantViolation if isinstance(exc, InvariantViolation) \
            else AssertionError
        raise cls(f"{exc}\n{forensic_report(cluster, tail=tail)}") from exc
