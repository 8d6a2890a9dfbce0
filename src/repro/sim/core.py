"""Discrete-event simulation kernel.

The kernel executes *processes* — plain Python generators — against a
three-queue scheduler.  A process advances by yielding:

* :class:`Timeout` — resume after a simulated delay,
* :class:`Future` — resume when the future resolves (or re-raise its failure),
* another :class:`Process` — resume when that process finishes,
* ``None`` — yield control and resume on the next event cycle.

Sub-protocols compose with ``yield from``; the sub-generator's ``return`` value
becomes the value of the ``yield from`` expression.

Three-queue scheduler design
----------------------------

The program schedules through two verbs: :meth:`Simulator.timer`
(fire-and-forget: network delivery, storage latency, process ``Timeout``,
lock waits, replay) and :meth:`Simulator.timer_token` (cancellable through
a caller-provided token: the RPC layer's timeouts).  The dominant event
class is the *same-time* callback — every future resolution
(``Future._flush``), process spawn, process kill, bare ``yield None`` and
zero-delay timer.  Pushing those through a binary heap pays an O(log n)
comparison chain per event for entries that by construction always sort at
the front, so the scheduler keeps three structures:

* **ready queue** — a FIFO ``deque`` of ``(fn, args)`` entries for
  callbacks at the *current* simulated time, appended in O(1).  No entry
  carries a cancellation slot: a zero-delay ``timer_token`` appends
  ``(_unless_cancelled, (token, fn, args))``, which checks its token when
  it runs.
* **fire-and-forget timer heap** — 4-tuples ``(when, seq, fn, args)``, fed
  by :meth:`Simulator.timer`.  Entries are never cancelled, so the pop needs
  no flag check.
* **cancellable timer heap** — 5-tuples ``(when, seq, token, fn, args)``,
  fed by :meth:`Simulator.timer_token`.  Cancellation flips
  ``token.cancelled``; the entry is lazily discarded when popped.

The two heaps are kept apart because their traffic differs.  Seed 1, heap
sizes sampled every 0.05 sim-s:

    workload              timer     timer_token  fire-and-forget  cancellable  of which
                          pushes    pushes       median / max     median       cancelled
    ycsb_steady           158 307   10 194       16 / 135         1 013        981
    tpcc_2pc              165 683    8 063       20 / 71          1 223        1 186
    scaleout_ctl, marlin   98 951    9 000       64 / 95          2 406        2 347

RPC timeouts are almost all cancelled (the reply wins) yet stay in their
heap until their time comes, so one merged heap would push every
fire-and-forget timer through a heap about 60x larger.

Both heaps share one ``seq`` counter, so merging their heads by ``(when,
seq)`` reproduces exactly the global order of a single combined heap.

Ordering guarantees (identical to the classic single-heap kernel):

1. Events execute in nondecreasing time order; ties execute in scheduling
   (sequence) order.
2. Every timer-heap entry for time ``T`` was scheduled *before* the clock
   reached ``T`` (anything scheduled at ``T`` for ``T`` goes to the ready
   queue), so at time ``T`` the heaps' remaining ``T``-entries all precede
   every ready-queue entry in sequence order.  The pop rule — drain heap
   entries with ``when == now`` (earlier ``(when, seq)`` head of the two
   heaps first) before the ready queue, otherwise run the ready queue before
   advancing the clock — therefore reproduces exactly the global ``(time,
   seq)`` order of the old kernel, and a seeded run produces a bit-identical
   event trace either way.
3. The clock only advances when the ready queue is empty.

All resumptions pass through the scheduler, so a run is fully deterministic
for a given seed and spawn order.  ``run()`` and ``run_until()`` share one
inlined event loop (no per-event ``step()`` call); ``step()`` remains the
single-event entry point with identical pop order.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional, Union

__all__ = [
    "Future",
    "Process",
    "ProcessCrashed",
    "ProcessKilled",
    "SimError",
    "Simulator",
    "Timeout",
    "all_of",
]

#: Scheduling in the past is tolerated up to this much floating-point slop.
_PAST_SLOP = 1e-12

#: A process or future name: a string, or a tuple of parts (names, or the
#: ints and lock keys a site already holds) joined with "." only when
#: somebody reads it (error messages, ``repr``) — the per-spawn and
#: per-operation paths hand over parts instead of formatting a string nobody
#: will look at.
Name = Union[str, tuple]


def _join_name(name: Name) -> str:
    if type(name) is str:
        return name
    if type(name) is tuple:
        return ".".join(map(_join_name, name))
    return str(name)


class SimError(Exception):
    """Base class for simulation kernel errors."""


class ProcessKilled(SimError):
    """Raised inside a process that was killed via :meth:`Process.kill`."""


class ProcessCrashed(SimError):
    """Raised out of :meth:`Simulator.run` when a process died unexpectedly."""

    def __init__(self, process: "Process", exc: BaseException):
        super().__init__(f"process {process.name!r} crashed: {exc!r}")
        self.process = process
        self.exc = exc


class Timeout:
    """Yield value that suspends a process for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class Future:
    """A one-shot container for a value (or failure) produced later.

    Completion callbacks are never run inline: they are pushed onto the
    simulator's ready queue, which keeps resumption order deterministic and
    stack depth bounded.
    """

    __slots__ = ("_sim", "_done", "_value", "_exc", "_callbacks", "_name")

    def __init__(self, sim: "Simulator", name: Name = ""):
        self._sim = sim
        self._done = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: list[Callable[["Future"], None]] = []
        self._name = name

    @property
    def name(self) -> str:
        return _join_name(self._name)

    @property
    def done(self) -> bool:
        return self._done

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    def result(self) -> Any:
        """Return the value, raising the failure if the future failed."""
        if not self._done:
            raise SimError(f"future {self.name!r} is not done")
        if self._exc is not None:
            raise self._exc
        return self._value

    def resolve(self, value: Any = None) -> None:
        if self._done:
            raise SimError(f"future {self.name!r} resolved twice")
        self._done = True
        self._value = value
        if self._callbacks:
            self._flush()

    def fail(self, exc: BaseException) -> None:
        if self._done:
            raise SimError(f"future {self.name!r} resolved twice")
        self._done = True
        self._exc = exc
        if self._callbacks:
            self._flush()

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        if self._done:
            self._sim._ready.append((fn, (self,)))
        else:
            self._callbacks.append(fn)

    def _flush(self) -> None:
        ready = self._sim._ready
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            ready.append((fn, (self,)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self._done:
            state = f"failed({self._exc!r})" if self._exc else f"done({self._value!r})"
        return f"Future({self.name!r}, {state})"


class Process:
    """A running generator coroutine.

    ``process.result`` is a :class:`Future` resolved with the generator's
    return value, or failed with the escaping exception.  An exception that
    escapes a process also crashes the whole simulation run (fail-fast), unless
    the process was spawned with ``daemon=True`` or killed deliberately.

    Lifetime invariant: every *unfinished* process is strongly reachable from
    its simulator (``Simulator._spawned``); a finished one is reachable only
    from whoever still holds it.  A process enters the registries in
    ``__init__`` and leaves them at its single exit, :meth:`_finish` — return,
    kill and crash alike — so a run's live heap tracks the work in flight,
    not everything it ever ran.  ``owner``, when given, is one more registry
    of the same shape (an insertion-ordered dict of unfinished processes) kept
    by whoever must be able to kill its processes as a group, in spawn order.
    """

    __slots__ = ("sim", "gen", "_name", "result", "daemon", "_finished", "_owner")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator,
        name: Name = "",
        daemon: bool = False,
        owner: Optional[dict] = None,
    ):
        if type(gen) is not GeneratorType:
            raise SimError(f"spawn() needs a generator, got {type(gen).__name__}")
        self.sim = sim
        self.gen = gen
        self._name = name = name or gen.__name__
        self.daemon = daemon
        self.result = Future(sim, (name, "result"))
        self._finished = False
        self._owner = owner
        sim._spawned[self] = None
        if owner is not None:
            owner[self] = None
        sim._ready.append((self._step, (None, None)))

    @property
    def name(self) -> str:
        return _join_name(self._name)

    def kill(self) -> None:
        """Throw :class:`ProcessKilled` into the process at the current time."""
        if not self._finished:
            self.sim._ready.append((self._step, (None, ProcessKilled(self.name))))

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._finished:
            return
        try:
            if exc is not None:
                yielded = self.gen.throw(exc)
            else:
                yielded = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except ProcessKilled as killed:
            self._finish(None, killed.with_traceback(None))
            return
        except BaseException as err:  # detlint: ok(DET108) — the kernel's own crash trap: records the failure on result and reports non-daemon crashes; this is the dispatcher below the coroutines, not a coroutine
            self._finish(None, err.with_traceback(err.__traceback__.tb_next))
            if not self.daemon:
                self.sim._report_crash(self, err)
            return
        # Exact-type dispatch: nothing subclasses the yieldable types.
        handler = _DISPATCH.get(yielded.__class__)
        if handler is not None:
            handler(self, yielded)
        else:
            self._step(None, SimError(f"process yielded unsupported value {yielded!r}"))

    def _finish(self, value: Any, exc: Optional[BaseException]) -> None:
        """The one exit: leave the registries, then settle ``result``.

        De-registration is inline on purpose — a done-callback would be one
        more ready-queue entry per process, which moves ``events_executed``.
        The owner may have dropped the process already (a group kill clears
        its registry before the kills are delivered), hence the tolerant pop.

        A failure arrives with :meth:`_step`'s own traceback entry dropped:
        that frame holds this process, whose ``result`` is about to hold the
        exception, so keeping it would make every failed process a reference
        cycle only the cyclic collector could free.  The coroutine's frames
        stay on the traceback.  A kill arrives with no traceback at all: the
        process was suspended, not failing, and the frames it was suspended
        in may hold the future it waited on, whose never-run resume callback
        holds this process.
        """
        self._finished = True
        del self.sim._spawned[self]
        if self._owner is not None:
            self._owner.pop(self, None)
        if exc is None:
            self.result.resolve(value)
        else:
            self.result.fail(exc)

    # -- yield dispatch ------------------------------------------------------

    def _on_timeout(self, yielded: "Timeout") -> None:
        self.sim.timer(yielded.delay, self._step, None, None)

    def _on_future(self, yielded: "Future") -> None:
        if yielded._done:
            self.sim._ready.append((self._resume_from_future, (yielded,)))
        else:
            yielded._callbacks.append(self._resume_from_future)

    def _on_process(self, yielded: "Process") -> None:
        self._on_future(yielded.result)

    def _on_none(self, yielded: None) -> None:
        self.sim._ready.append((self._step, (None, None)))

    def _resume_from_future(self, fut: Future) -> None:
        if fut._exc is not None:
            self._step(None, fut._exc)
        else:
            self._step(fut._value, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Process({self.name!r}, finished={self._finished})"


#: Exact-type yield dispatch; any other yielded value crashes the process.
_DISPATCH: dict = {
    Timeout: Process._on_timeout,
    Future: Process._on_future,
    Process: Process._on_process,
    type(None): Process._on_none,
}


def _unless_cancelled(token: Any, fn: Callable, args: tuple) -> None:
    """A zero-delay :meth:`Simulator.timer_token` entry: run unless cancelled."""
    if not token.cancelled:
        fn(*args)


class Simulator:
    """The event loop: a FIFO ready queue plus two lazily-merged timer heaps.

    See the module docstring for the scheduler design and its ordering
    guarantees.  ``now`` only advances when the ready queue is empty.
    """

    def __init__(self, seed: int = 0):
        #: FIFO of (fn, args) at the current simulated time.
        self._ready: deque = deque()
        #: Fire-and-forget heap of (when, seq, fn, args); never cancelled.
        self._timers: list = []
        #: Cancellable heap of (when, seq, token, fn, args); token is any
        #: caller-provided object with a ``cancelled`` flag.
        self._cancellable: list = []
        #: One counter for both heaps, so their heads merge by (when, seq).
        self._seq = itertools.count(1)
        self._now = 0.0
        self.rng = random.Random(seed)
        self._crash: Optional[ProcessCrashed] = None
        self.events_executed = 0
        #: Every *unfinished* process, in spawn order (insertion-ordered dict
        #: used as a set; a process adds itself at spawn and removes itself
        #: in ``Process._finish``).  A suspended generator that became
        #: unreachable mid-run (e.g. its resume future died with a crashed
        #: endpoint) would otherwise be reclaimed by the *cyclic* GC, whose
        #: collection points depend on process-global allocation counters —
        #: and the ``GeneratorExit`` cleanup it throws runs ``finally:`` side
        #: effects at those nondeterministic times.  Keeping suspended
        #: processes reachable defers all such cleanup to simulator teardown.
        #: A finished process has no frame left to finalise, so it needs no
        #: protection and is reachable only from whoever still holds it.
        self._spawned: dict = {}

    @property
    def now(self) -> float:
        return self._now

    # -- scheduling ---------------------------------------------------------

    def timer(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay``; not cancellable.

        A non-positive ``delay`` lands on the ready queue, preserving the
        invariant that the heaps only hold strictly-future entries.
        """
        if delay > 0.0:
            _heappush(self._timers, (self._now + delay, next(self._seq), fn, args))
        else:
            if delay < -_PAST_SLOP:
                raise SimError(f"cannot schedule in the past: delay {delay}")
            self._ready.append((fn, args))

    def timer_token(self, delay: float, token: Any, fn: Callable, *args: Any) -> None:
        """Cancellable timer with a caller-provided ``token``.

        ``token`` is any object with a mutable ``cancelled`` attribute; the
        caller flips it to cancel, up to the moment the entry runs (a
        zero-delay entry included).  A layer that already keeps per-operation
        state (e.g. the RPC pending-call record) thereby doubles as its own
        cancellation handle.
        """
        if delay > 0.0:
            _heappush(
                self._cancellable,
                (self._now + delay, next(self._seq), token, fn, args),
            )
        else:
            if delay < -_PAST_SLOP:
                raise SimError(f"cannot schedule in the past: delay {delay}")
            self._ready.append((_unless_cancelled, (token, fn, args)))

    def spawn(
        self,
        gen: Generator,
        name: Name = "",
        daemon: bool = False,
        owner: Optional[dict] = None,
    ) -> Process:
        """Start ``gen`` as a process.

        ``owner`` is an optional dict the process also keeps itself in while
        unfinished (see :class:`Process`), for callers that kill their
        processes as a group.
        """
        return Process(self, gen, name, daemon, owner)

    def event(self, name: Name = "") -> Future:
        return Future(self, name)

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Run one event; return False if all three queues are empty."""
        ready = self._ready
        fnf = self._timers
        canc = self._cancellable
        while True:
            # Heap entries at the current time were scheduled before the
            # clock reached it, so they precede every ready entry (see the
            # module docstring's ordering argument).  The two heaps share one
            # seq counter, so the earlier (when, seq) head is the global one.
            if fnf:
                heap = canc if (canc and canc[0] < fnf[0]) else fnf
            elif canc:
                heap = canc
            else:
                heap = None
            if heap is not None and (not ready or heap[0][0] <= self._now):
                entry = _heappop(heap)
                if heap is fnf:
                    when, _seq, fn, args = entry
                else:
                    when, _seq, token, fn, args = entry
                    if token.cancelled:
                        continue
                self._now = when
            elif ready:
                fn, args = ready.popleft()
            else:
                return False
            self.events_executed += 1
            fn(*args)
            if self._crash is not None:
                crash, self._crash = self._crash, None
                raise crash
            return True

    def _next_event_time(self) -> Optional[float]:
        """Time of the next *live* entry in pop order, ``None`` if there is none.

        Cancelled cancellable-heap tops are popped here — the loops would
        discard them anyway, and a cancelled timer at the heap top must not
        pass for a pending event.  Off the hot path: only :meth:`run_until`
        asks, to word its failure.
        """
        canc = self._cancellable
        while canc and canc[0][2].cancelled:
            _heappop(canc)
        fnf = self._timers
        if fnf:
            t = fnf[0][0]
            if canc and canc[0][0] < t:
                t = canc[0][0]
        elif canc:
            t = canc[0][0]
        else:
            t = None
        if t is not None and t <= self._now:
            return t
        if self._ready:
            return self._now
        return t

    def _run(self, bound: float, stop: Optional[Future]) -> None:
        """The inlined event loop behind :meth:`run` and :meth:`run_until`.

        Same pop order as :meth:`step` (which stays the one-event reference),
        without the per-event method call and with the executed-event count
        batched into one update.  Returns when the queues drain, when the
        next live event lies after ``bound``, or once ``stop`` is done.
        Cancelled heads are discarded before the bound check, so what is left
        at the front afterwards is live (:meth:`run_until` tells "drained"
        from "not done by" on that).
        """
        if self._now > bound or (stop is not None and stop._done):
            return
        ready = self._ready
        fnf = self._timers
        canc = self._cancellable
        executed = 0
        try:
            while True:
                if fnf:
                    heap = canc if (canc and canc[0] < fnf[0]) else fnf
                elif canc:
                    heap = canc
                else:
                    heap = None
                if heap is not None and (not ready or heap[0][0] <= self._now):
                    if heap is fnf:
                        if heap[0][0] > bound:
                            break
                        when, _seq, fn, args = _heappop(heap)
                    else:
                        head = heap[0]
                        if head[2].cancelled:
                            _heappop(heap)
                            continue
                        if head[0] > bound:
                            break
                        when, _seq, _token, fn, args = _heappop(heap)
                    self._now = when
                elif ready:
                    fn, args = ready.popleft()
                else:
                    break
                executed += 1
                fn(*args)
                if self._crash is not None:
                    crash, self._crash = self._crash, None
                    raise crash
                if stop is not None and stop._done:
                    break
        finally:
            self.events_executed += executed

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queues drain or sim time passes ``until``."""
        self._run(float("inf") if until is None else until, None)
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_until(self, fut: Future, limit: Optional[float] = None) -> Any:
        """Run until ``fut`` resolves; return its value (or raise its failure)."""
        self._run(float("inf") if limit is None else limit, fut)
        if not fut._done:
            if self._next_event_time() is None:
                raise SimError(f"event heap drained before {fut.name!r} resolved")
            raise SimError(f"future {fut.name!r} not done by t={limit}")
        return fut.result()

    def _report_crash(self, process: Process, exc: BaseException) -> None:
        if self._crash is None:
            self._crash = ProcessCrashed(process, exc)


def all_of(sim: Simulator, futures: Iterable[Future]) -> Future:
    """A future resolving with the list of all values (fails on first failure)."""
    futures = list(futures)
    gathered = Future(sim, name="all_of")
    if not futures:
        gathered.resolve([])
        return gathered
    values: list[Any] = [None] * len(futures)
    left = [len(futures)]

    def on_done(index: int, fut: Future) -> None:
        if gathered._done:
            return  # already failed; ignore completions arriving late
        if fut._exc is not None:
            gathered.fail(fut._exc)
            return
        values[index] = fut._value
        left[0] -= 1
        if left[0] == 0:
            gathered.resolve(values)

    for i, fut in enumerate(futures):
        fut.add_done_callback(lambda f, i=i: on_done(i, f))
    return gathered
