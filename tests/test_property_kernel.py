"""Property test: the split-heap kernel vs a single-heap reference model.

The split scheduler (ready queue + fire-and-forget heap + cancellable heap,
one shared seq counter) claims to execute *exactly* the global ``(time,
scheduling-seq)`` order of the classic single-heap kernel.  The reference
model here IS that classic kernel, reduced to its ordering essence: every
scheduling — zero delays included — takes a ``(when, seq)`` ticket into one
binary heap, pops run in ``(when, seq)`` order, cancellation is a lazy flag.
Hypothesis drives both kernels with the same randomized program of
interleaved ``timer(0)`` / ``timer`` / ``timer_token`` / ``timer_token(0)``
/ ``cancel`` operations issued from *inside* callbacks (heavy on time ties,
so the heap-vs-ready merge rule is actually exercised), and the execution
traces must match event for event.
"""

import itertools
import random
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.core import SimError, Simulator

#: Small discrete delays, repeated values on purpose: ties between heap
#: entries and ready entries at the same instant are the interesting case.
DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 2.5)

KINDS = ("timer0", "timer", "timer_token", "timer_token0")


class Token:
    """A ``timer_token`` cancellation token, shared by both kernels."""

    cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceKernel:
    """The classic single-heap scheduler, stripped to its ordering contract."""

    def __init__(self):
        self._heap = []
        self._seq = itertools.count(1)
        self.now = 0.0

    def _push(self, when, fn):
        token = Token()
        heappush(self._heap, (when, next(self._seq), token, fn))
        return token

    def timer(self, delay, fn):
        self._push(self.now + delay, fn)
        return None

    def timer_token(self, delay, fn):
        return self._push(self.now + delay, fn)

    def run(self):
        while self._heap:
            when, _seq, token, fn = heappop(self._heap)
            if token.cancelled:
                continue
            self.now = when
            fn()


class KernelAdapter:
    """The real :class:`Simulator` behind the reference's driving surface."""

    def __init__(self):
        self.sim = Simulator(seed=0)

    @property
    def now(self):
        return self.sim.now

    def timer(self, delay, fn):
        self.sim.timer(delay, fn)
        return None

    def timer_token(self, delay, fn):
        token = Token()
        self.sim.timer_token(delay, token, fn)
        return token

    def run(self):
        self.sim.run()


def drive(kernel, seed: int, n_initial: int, budget: int = 120):
    """Run one randomized program against ``kernel``; return its trace.

    The program itself is derived from ``random.Random(seed)`` draws made
    inside callbacks, so two kernels produce the same program if and only if
    they execute callbacks in the same order — divergence shows up as a
    trace mismatch either way.
    """
    rng = random.Random(seed)
    trace = []
    tokens = []
    state = {"left": budget, "label": 0}

    def schedule_random():
        if state["left"] <= 0:
            return
        state["left"] -= 1
        state["label"] += 1
        label = state["label"]
        kind = rng.choice(KINDS)
        delay = rng.choice(DELAYS)

        def cb(label=label):
            trace.append((label, kernel.now))
            for _ in range(rng.randrange(3)):
                schedule_random()
            if tokens and rng.random() < 0.3:
                tokens[rng.randrange(len(tokens))].cancel()

        if kind == "timer0":
            token = kernel.timer(0.0, cb)
        elif kind == "timer":
            token = kernel.timer(delay, cb)
        elif kind == "timer_token":
            token = kernel.timer_token(delay, cb)
        else:
            token = kernel.timer_token(0.0, cb)
        if token is not None:
            tokens.append(token)

    for _ in range(n_initial):
        schedule_random()
    kernel.run()
    return trace


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_initial=st.integers(1, 6))
def test_split_heap_matches_single_heap_reference(seed, n_initial):
    reference = drive(ReferenceKernel(), seed, n_initial)
    actual = drive(KernelAdapter(), seed, n_initial)
    assert actual == reference


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_step_matches_inlined_run(seed):
    """`step()` (the one-event entry point) pops in the same order as the
    inlined `run()` loop."""
    run_trace = drive(KernelAdapter(), seed, 3)

    class StepAdapter(KernelAdapter):
        def run(self):
            while self.sim.step():
                pass

    step_trace = drive(StepAdapter(), seed, 3)
    assert step_trace == run_trace


def reference_run_until(sim, fut, limit=None):
    """``Simulator.run_until`` as it was before it moved onto the inlined
    loop — one ``_next_event_time`` probe and one ``step`` per event — kept
    here as the reference model."""
    while not fut.done:
        if limit is not None:
            t_next = sim._next_event_time()
            if t_next is not None and t_next > limit:
                raise SimError(f"future {fut.name!r} not done by t={limit}")
        if not sim.step():
            raise SimError(f"event heap drained before {fut.name!r} resolved")
    return fut.result()


class RunUntilAdapter(KernelAdapter):
    """Drives the program through a ``run_until`` implementation, then drains
    what it left behind with ``run()`` so the queue state is compared too."""

    def __init__(self, run_until, stop_at, limit):
        super().__init__()
        self._run_until = run_until
        self._limit = limit
        self.stop = self.sim.event("stop")
        if stop_at is not None:
            self.sim.timer(stop_at, self.stop.resolve, "stopped")

    def run(self):
        try:
            outcome = ("ok", self._run_until(self.sim, self.stop, self._limit))
        except SimError as err:
            outcome = ("error", str(err))
        self.at_stop = (outcome, self.sim.now, self.sim.events_executed)
        self.sim.run()
        self.at_end = (self.sim.now, self.sim.events_executed)


TIMES = st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.5, 4.0, 7.5, 100.0))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_initial=st.integers(0, 4),
    stop_at=st.none() | TIMES,
    limit=st.none() | TIMES,
)
def test_run_until_matches_step_loop_reference(seed, n_initial, stop_at, limit):
    """The inlined ``run_until`` agrees with the old probe-and-step loop on
    event order, final ``now``, executed count and raise/no-raise (message
    included), on schedules with cancelled timers and limits — and leaves the
    queues in a state that drains identically."""
    reference = RunUntilAdapter(reference_run_until, stop_at, limit)
    actual = RunUntilAdapter(Simulator.run_until, stop_at, limit)
    assert drive(actual, seed, n_initial) == drive(reference, seed, n_initial)
    assert actual.at_stop == reference.at_stop
    assert actual.at_end == reference.at_end


def cancelled():
    token = Token()
    token.cancel()
    return token


class TestRunUntilLimit:
    """The limit check sees live events only."""

    def test_only_cancelled_entries_beyond_the_limit_is_drained(self):
        sim = Simulator()
        fut = sim.event("target")
        sim.timer_token(5.0, cancelled(), lambda: None)
        with pytest.raises(SimError, match="drained before 'target'"):
            sim.run_until(fut, limit=1.0)

    def test_live_event_beyond_the_limit_is_not_run(self):
        sim = Simulator()
        fut = sim.event("target")
        seen = []
        sim.timer_token(0.5, cancelled(), lambda: None)
        sim.timer(5.0, seen.append, "late")
        with pytest.raises(SimError, match="'target' not done by t=1.0"):
            sim.run_until(fut, limit=1.0)
        assert seen == [] and sim.now == 0.0 and sim.events_executed == 0

    def test_already_done_future_runs_nothing(self):
        sim = Simulator()
        fut = sim.event()
        fut.resolve(7)
        sim.timer(0.0, lambda: None)
        assert sim.run_until(fut) == 7
        assert sim.events_executed == 0


class TestTimerToken:
    """Unit coverage for the caller-token cancellable timer."""

    def test_fires_after_its_delay(self):
        sim = Simulator()
        seen = []
        sim.timer_token(1.5, Token(), seen.append, "fired")
        sim.run()
        assert seen == ["fired"]
        assert sim.now == 1.5

    def test_cancelled_token_suppresses_the_callback(self):
        sim = Simulator()
        seen = []
        token = Token()
        sim.timer_token(1.0, token, seen.append, "no")
        sim.timer(2.0, seen.append, "yes")
        token.cancel()
        sim.run()
        assert seen == ["yes"]

    def test_past_due_lands_on_the_ready_queue(self):
        sim = Simulator()
        seen = []
        token = Token()
        sim.timer_token(0.0, token, seen.append, "now")
        sim.run()
        assert seen == ["now"]
        assert sim.now == 0.0

    def test_cancellable_and_fnf_heaps_merge_by_seq(self):
        """Same-time entries across the two heaps run in scheduling order."""
        sim = Simulator()
        order = []
        sim.timer_token(1.0, Token(), order.append, "cancellable-first")
        sim.timer(1.0, order.append, "fnf-second")
        sim.timer_token(1.0, Token(), order.append, "token-third")
        sim.timer(1.0, order.append, "fnf-fourth")
        sim.run()
        assert order == [
            "cancellable-first", "fnf-second", "token-third", "fnf-fourth"
        ]
