"""Deterministic span tracer + per-track flight recorder.

Design constraints (see OBSERVABILITY.md):

* **Keyed by sim time only.**  Every event carries ``sim.now`` — no wall
  clock, no RNG, no ``id()``-derived identifiers.  Two identically-seeded
  runs with tracing ON produce byte-identical traces.
* **Purely observational.**  Recording is a synchronous list append: the
  tracer never spawns processes, arms timers or touches the simulator's
  RNG, so enabling tracing does not perturb the event stream — a traced
  seeded run executes the exact same schedule as an untraced one.
* **Zero overhead when off.**  Call sites hold a ``tracer`` attribute that
  defaults to ``None`` and guard with a single ``if tracer is not None``,
  the same idiom as the chaos hooks (``fault_point``) and
  ``node.metrics``.

Span model
----------

A *span* is an interval on a *track* (one track per node / storage /
detector / chaos controller, keyed by RPC address).  ``begin`` returns an
integer span id (0 = "not recorded", accepted everywhere as a no-op
handle, so filtered-out spans cost nothing downstream); ``end`` closes
it.  ``instant`` records a point event (FSM edges, chaos inject/clear,
fault-point fires).  Parent links are explicit — propagated through the
RPC ``_PendingCall`` path and transaction contexts — because sim
processes interleave on one interpreter thread, so an ambient
"current span" stack would attribute children to the wrong parent.

The *flight recorder* is a bounded per-track ring (``ring_size`` most
recent events) consulted by :mod:`repro.obs.forensics` when an invariant
check fails: the tail of each ring is a causal timeline of what the node
did last.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["TraceData", "Tracer", "span_summary"]


@dataclass
class TraceData:
    """Picklable snapshot of a finished trace.

    This is what crosses the process-pool boundary inside a pickled
    ``RunResult`` and what the exporters consume.  Event tuples:

    * ``("B", sid, parent, track, name, t, args)`` — span begin
    * ``("E", sid, t, args)`` — span end
    * ``("I", track, name, t, args)`` — instant event
    """

    events: List[tuple] = field(default_factory=list)
    #: track -> most recent ring entries ``(t, kind, name, detail)``.
    rings: Dict[str, List[tuple]] = field(default_factory=dict)
    #: spans never closed (timeouts, crashes): sid -> (track, name, t0).
    open_spans: Dict[int, tuple] = field(default_factory=dict)
    #: sim time at detach — exporters close dangling spans here.
    end_time: float = 0.0


class Tracer:
    """Records spans and instants synchronously, keyed by sim time."""

    __slots__ = (
        "sim", "events", "prefixes", "ring_size", "rings", "_open", "_next_id",
    )

    def __init__(self, sim, ring_size: int = 256,
                 prefixes: Optional[Sequence[str]] = None):
        self.sim = sim
        self.events: List[tuple] = []
        #: Optional name-prefix filter: spans/instants whose name does not
        #: start with one of these are dropped.
        self.prefixes: Optional[Tuple[str, ...]] = (
            tuple(prefixes) if prefixes else None
        )
        self.ring_size = ring_size
        self.rings: Dict[str, deque] = {}
        self._open: Dict[int, tuple] = {}
        self._next_id = 1

    # -- recording ---------------------------------------------------------

    def begin(self, track: str, name: str, parent: int = 0,
              args: Optional[dict] = None) -> int:
        """Open a span; returns its id (0 if filtered out — a no-op handle)."""
        p = self.prefixes
        if p is not None and not name.startswith(p):
            return 0
        sid = self._next_id
        self._next_id = sid + 1
        t = self.sim.now
        self.events.append(("B", sid, parent, track, name, t, args))
        self._open[sid] = (track, name, t)
        self._ring(track).append((t, "begin", name, args))
        return sid

    def end(self, sid: int, args: Optional[dict] = None) -> None:
        """Close a span opened by :meth:`begin`. ``end(0)`` is a no-op."""
        if not sid:
            return
        t = self.sim.now
        self.events.append(("E", sid, t, args))
        opened = self._open.pop(sid, None)
        if opened is not None:
            self._ring(opened[0]).append((t, "end", opened[1], args))

    def instant(self, track: str, name: str,
                args: Optional[dict] = None) -> None:
        """Record a point event on ``track``."""
        p = self.prefixes
        if p is not None and not name.startswith(p):
            return
        t = self.sim.now
        self.events.append(("I", track, name, t, args))
        self._ring(track).append((t, "instant", name, args))

    def _ring(self, track: str) -> deque:
        ring = self.rings.get(track)
        if ring is None:
            ring = self.rings[track] = deque(maxlen=self.ring_size)
        return ring

    # -- snapshot ----------------------------------------------------------

    def detach(self) -> TraceData:
        """Freeze the trace into a picklable :class:`TraceData`.

        The tracer drops its simulator reference implicitly (the snapshot
        carries plain data only), so the result crosses process-pool and
        cache boundaries.
        """
        return TraceData(
            events=self.events,
            rings={track: list(ring) for track, ring in self.rings.items()},
            open_spans=dict(self._open),
            end_time=self.sim.now,
        )


def span_summary(trace: TraceData) -> Dict[str, dict]:
    """Aggregate total duration + count per span name.

    Dangling spans (never closed — timeouts, crashed nodes) are counted
    with ``end_time`` as their close, so time lost in a crash window is
    visible rather than silently dropped.
    """
    ends: Dict[int, float] = {}
    for ev in trace.events:
        if ev[0] == "E":
            ends[ev[1]] = ev[2]
    agg: Dict[str, List[float]] = {}
    for ev in trace.events:
        if ev[0] != "B":
            continue
        _, sid, _parent, _track, name, t0, _args = ev
        t1 = ends.get(sid, trace.end_time)
        cell = agg.get(name)
        if cell is None:
            cell = agg[name] = [0, 0.0]
        cell[0] += 1
        cell[1] += t1 - t0
    return {
        name: {"count": cell[0], "total_s": cell[1]}
        for name, cell in sorted(agg.items())
    }
