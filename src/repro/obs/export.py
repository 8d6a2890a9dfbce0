"""Trace exporters: Chrome trace-event JSON (Perfetto-loadable) + validation.

The exporter emits the JSON *object* flavour of the trace-event format —
``{"traceEvents": [...]}`` — which both ``chrome://tracing`` and
https://ui.perfetto.dev load directly.  One thread track per sim track
(node / storage / detector / chaos), named via ``"M"`` metadata events.
Sim seconds map to trace microseconds, so a 3.5 s simulated run renders
as a 3.5 s timeline.

Everything is deterministic: track ids come from sorted track names,
events keep their recorded order, and serialisation uses sorted keys and
fixed separators — two identically-seeded traced runs produce
byte-identical files (CI asserts this).
"""

from __future__ import annotations

import json
from typing import List

from repro.obs.tracer import TraceData

__all__ = ["chrome_trace", "trace_json", "validate_chrome_trace",
           "write_chrome_trace"]

#: Single sim process: every track is a thread of one synthetic process.
_PID = 1

_ALLOWED_PH = {"B", "E", "X", "i", "I", "M", "C"}


def _us(t: float) -> float:
    """Sim seconds -> trace microseconds (rounded to 1/1000 µs)."""
    return round(t * 1e6, 3)


def chrome_trace(trace: TraceData) -> dict:
    """Build the Chrome trace-event JSON object for ``trace``.

    Spans become ``"X"`` (complete) events at their begin time; spans
    still open at detach (timeouts, crash windows) are closed at
    ``trace.end_time`` and flagged ``"open": 1`` so dangling work is
    visible in the timeline rather than dropped.
    """
    tracks = set(trace.rings)
    for ev in trace.events:
        tracks.add(ev[3] if ev[0] == "B" else ev[1] if ev[0] == "I" else None)
    tracks.discard(None)
    tids = {track: i + 1 for i, track in enumerate(sorted(tracks))}

    out: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": "repro-sim"},
    }]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        out.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
            "args": {"name": track},
        })

    ends = {}
    for ev in trace.events:
        if ev[0] == "E":
            ends[ev[1]] = ev
    for ev in trace.events:
        kind = ev[0]
        if kind == "B":
            _, sid, parent, track, name, t0, args = ev
            end_ev = ends.get(sid)
            merged = {"span": sid, "parent": parent}
            if args:
                merged.update(args)
            if end_ev is not None:
                t1 = end_ev[2]
                if end_ev[3]:
                    merged.update(end_ev[3])
            else:
                t1 = trace.end_time
                merged["open"] = 1
            out.append({
                "name": name, "cat": name.partition(":")[0].partition(".")[0],
                "ph": "X", "pid": _PID, "tid": tids[track],
                "ts": _us(t0), "dur": _us(t1 - t0), "args": merged,
            })
        elif kind == "I":
            _, track, name, t, args = ev
            out.append({
                "name": name, "cat": name.partition(":")[0].partition(".")[0],
                "ph": "i", "s": "t", "pid": _PID, "tid": tids[track],
                "ts": _us(t), "args": dict(args) if args else {},
            })
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def trace_json(trace: TraceData) -> str:
    """Canonical (byte-stable) JSON serialisation of the Chrome trace."""
    return json.dumps(
        chrome_trace(trace), sort_keys=True, separators=(",", ":")
    ) + "\n"


def write_chrome_trace(trace: TraceData, path) -> str:
    """Write the canonical Chrome trace JSON to ``path``; returns the blob."""
    blob = trace_json(trace)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(blob)
    return blob


def validate_chrome_trace(data) -> List[str]:
    """Schema-check a loaded trace JSON object; returns error strings.

    Checks the subset of the trace-event format Perfetto relies on:
    top-level shape, per-event required fields by phase, and that every
    thread track referenced by a span/instant carries a ``thread_name``
    metadata event (the "one track per node" contract).
    """
    errors: List[str] = []
    if not isinstance(data, dict):
        return ["top level must be a JSON object"]
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents must be a non-empty list"]
    named_tids = set()
    used_tids = set()
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _ALLOWED_PH:
            errors.append(f"{where}: bad ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            errors.append(f"{where}: missing/non-string name")
        if not isinstance(ev.get("pid"), int) or not isinstance(
                ev.get("tid"), int):
            errors.append(f"{where}: pid/tid must be integers")
            continue
        if ph == "M":
            args = ev.get("args")
            if ev.get("name") == "thread_name":
                if not (isinstance(args, dict)
                        and isinstance(args.get("name"), str)):
                    errors.append(f"{where}: thread_name needs args.name")
                else:
                    named_tids.add(ev["tid"])
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: X event needs non-negative dur")
        used_tids.add(ev["tid"])
    for tid in sorted(used_tids - named_tids):
        errors.append(f"tid {tid} has events but no thread_name metadata")
    return errors
