"""Unit tests for the discrete-event simulation kernel."""

import gc
import weakref

import pytest

from repro.sim.core import (
    ProcessCrashed,
    ProcessKilled,
    SimError,
    Simulator,
    Timeout,
    all_of,
)


@pytest.fixture
def sim():
    return Simulator(seed=42)


class Token:
    """A ``timer_token`` cancellation token."""

    cancelled = False


class TestScheduling:
    def test_now_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timer_runs_at_correct_time(self, sim):
        seen = []
        sim.timer(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.timer(2.0, lambda: order.append("b"))
        sim.timer(1.0, lambda: order.append("a"))
        sim.timer(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_schedule_order(self, sim):
        order = []
        for tag in ("first", "second", "third"):
            sim.timer(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_cannot_schedule_in_past(self, sim):
        sim.timer(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.timer(-4.0, lambda: None)
        with pytest.raises(SimError):
            sim.timer_token(-4.0, Token(), lambda: None)

    def test_run_until_time_stops_early(self, sim):
        seen = []
        sim.timer(1.0, lambda: seen.append("early"))
        sim.timer(10.0, lambda: seen.append("late"))
        sim.run(until=5.0)
        assert seen == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert seen == ["early", "late"]

    def test_run_until_not_overshot_by_cancelled_heap_top(self, sim):
        """A cancelled timer at the heap top must not drag the clock past
        ``until`` (the pre-PR-2 seed-kernel overshoot; ROADMAP trade-off)."""
        seen = []
        cancelled = Token()
        sim.timer_token(5.0, cancelled, lambda: seen.append("cancelled"))
        sim.timer(20.0, lambda: seen.append("late"))
        cancelled.cancelled = True
        sim.run(until=10.0)
        assert seen == []
        assert sim.now == 10.0
        sim.run()
        assert seen == ["late"]
        assert sim.now == 20.0

    def test_run_until_not_overshot_by_cancelled_ready_entry(self, sim):
        seen = []
        token = Token()

        def schedule_and_cancel():
            sim.timer_token(0.0, token, lambda: seen.append("x"))
            token.cancelled = True

        sim.timer(1.0, lambda: seen.append("early"))
        sim.timer(9.0, schedule_and_cancel)
        sim.timer(20.0, lambda: seen.append("late"))
        sim.run(until=10.0)
        assert seen == ["early"]
        assert sim.now == 10.0

    def test_run_until_limit_honours_cancellation_pruning(self, sim):
        """run_until's deadline probe must also skip cancelled heap tops."""
        fut = sim.event(name="target")
        token = Token()
        sim.timer(3.0, setattr, token, "cancelled", True)
        sim.timer_token(4.0, token, lambda: None)
        sim.timer(8.0, fut.resolve)
        assert sim.run_until(fut, limit=8.0) is None
        assert sim.now == 8.0

    def test_nested_scheduling(self, sim):
        seen = []
        sim.timer(1.0, lambda: sim.timer(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]

    def test_events_executed_counter(self, sim):
        for _ in range(5):
            sim.timer(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestProcesses:
    def test_process_returns_value(self, sim):
        def proc():
            yield Timeout(1.0)
            return 99

        p = sim.spawn(proc())
        assert sim.run_until(p.result) == 99
        assert sim.now == 1.0

    def test_timeout_sequencing(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield Timeout(0.5)
            trace.append(sim.now)
            yield Timeout(0.25)
            trace.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert trace == [0.0, 0.5, 0.75]

    def test_yield_none_resumes_same_time(self, sim):
        trace = []

        def proc():
            yield None
            trace.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert trace == [0.0]

    def test_wait_on_future(self, sim):
        fut = sim.event()
        got = []

        def proc():
            value = yield fut
            got.append(value)

        sim.spawn(proc())
        sim.timer(2.0, fut.resolve, "hello")
        sim.run()
        assert got == ["hello"]

    def test_wait_on_already_done_future(self, sim):
        fut = sim.event()
        fut.resolve("ready")
        got = []

        def proc():
            got.append((yield fut))

        sim.spawn(proc())
        sim.run()
        assert got == ["ready"]

    def test_failed_future_raises_in_process(self, sim):
        fut = sim.event()
        caught = []

        def proc():
            try:
                yield fut
            except ValueError as exc:
                caught.append(str(exc))

        sim.spawn(proc())
        sim.timer(1.0, fut.fail, ValueError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_wait_on_process(self, sim):
        def inner():
            yield Timeout(2.0)
            return "inner-done"

        got = []

        def outer():
            value = yield sim.spawn(inner())
            got.append((value, sim.now))

        sim.spawn(outer())
        sim.run()
        assert got == [("inner-done", 2.0)]

    def test_yield_from_composition(self, sim):
        def sub(x):
            yield Timeout(1.0)
            return x * 2

        result = []

        def main():
            a = yield from sub(3)
            b = yield from sub(a)
            result.append(b)

        sim.spawn(main())
        sim.run()
        assert result == [12]
        assert sim.now == 2.0

    def test_unhandled_exception_crashes_run(self, sim):
        def bad():
            yield Timeout(1.0)
            raise RuntimeError("kaboom")

        sim.spawn(bad())
        with pytest.raises(ProcessCrashed) as excinfo:
            sim.run()
        assert isinstance(excinfo.value.exc, RuntimeError)

    def test_daemon_exception_does_not_crash_run(self, sim):
        def bad():
            yield Timeout(1.0)
            raise RuntimeError("quiet")

        p = sim.spawn(bad(), daemon=True)
        sim.run()
        assert isinstance(p.result.exception, RuntimeError)

    def test_kill_process(self, sim):
        cleaned = []

        def proc():
            try:
                yield Timeout(100.0)
            except ProcessKilled:
                cleaned.append(sim.now)
                raise

        p = sim.spawn(proc())
        sim.timer(1.0, p.kill)
        sim.run()
        assert cleaned == [1.0]
        assert isinstance(p.result.exception, ProcessKilled)

    def test_kill_finished_process_is_noop(self, sim):
        def proc():
            yield Timeout(1.0)
            return 1

        p = sim.spawn(proc())
        sim.run()
        p.kill()
        sim.run()
        assert p.result.result() == 1

    @pytest.mark.parametrize("not_a_generator", [42, lambda: None, iter([1])])
    def test_spawn_requires_generator(self, sim, not_a_generator):
        with pytest.raises(SimError, match="spawn\\(\\) needs a generator"):
            sim.spawn(not_a_generator)
        assert not sim._spawned

    def test_yield_bad_value_crashes(self, sim):
        def proc():
            yield 42

        sim.spawn(proc())
        with pytest.raises(ProcessCrashed):
            sim.run()

    def test_two_processes_interleave(self, sim):
        trace = []

        def proc(name, step):
            for _ in range(3):
                yield Timeout(step)
                trace.append((name, sim.now))

        sim.spawn(proc("a", 1.0))
        sim.spawn(proc("b", 1.5))
        sim.run()
        # At t=3.0 both resume; b scheduled its resumption first (at t=1.5),
        # so FIFO tie-breaking runs b before a.
        assert trace == [
            ("a", 1.0),
            ("b", 1.5),
            ("a", 2.0),
            ("b", 3.0),
            ("a", 3.0),
            ("b", 4.5),
        ]


class TestProcessLifecycle:
    """Every unfinished process is strongly reachable from its simulator; a
    finished one is reachable only from whoever still holds it."""

    def test_registry_holds_the_suspended_and_lets_the_finished_go(self, sim):
        def worker(delay):
            yield Timeout(delay)

        gens = [worker(1.0) for _ in range(50)] + [worker(10.0) for _ in range(3)]
        refs = [weakref.ref(gen) for gen in gens]
        for gen in gens:
            sim.spawn(gen)
        del gens, gen
        assert len(sim._spawned) == 53
        sim.run(until=5.0)
        gc.collect()
        assert len(sim._spawned) == 3
        assert all(not proc.result.done for proc in sim._spawned)
        assert [ref() is None for ref in refs] == [True] * 50 + [False] * 3

    def test_finished_process_stays_usable_while_held(self, sim):
        def worker():
            yield Timeout(1.0)
            return "kept"

        proc = sim.spawn(worker(), name=("parts", "joined", "late"))
        sim.run()
        assert not sim._spawned
        assert proc.result.done and proc.result.result() == "kept"
        assert proc.name == "parts.joined.late"
        assert proc.result.name == "parts.joined.late.result"

    def test_unreachable_suspended_process_is_not_finalised_mid_run(self, sim):
        """Why the registry exists: without it the cyclic GC would throw
        ``GeneratorExit`` into this process at an allocation-dependent time."""
        finalised = []

        def orphan():
            try:
                yield sim.event()  # held by this frame alone: never resolves
            finally:
                finalised.append(sim.now)

        sim.spawn(orphan())
        sim.run()
        gc.collect()
        assert finalised == []
        assert len(sim._spawned) == 1

    def test_killed_and_crashed_processes_leave_the_registries(self, sim):
        owner = {}

        def sleeper():
            yield Timeout(100.0)

        def bad():
            yield Timeout(1.0)
            raise RuntimeError("kaboom")

        victim = sim.spawn(sleeper(), owner=owner)
        quiet = sim.spawn(bad(), daemon=True, owner=owner)
        loud = sim.spawn(bad(), owner=owner)
        assert list(owner) == list(sim._spawned) == [victim, quiet, loud]
        sim.timer(0.5, victim.kill)
        with pytest.raises(ProcessCrashed):
            sim.run()
        assert victim.result.done and quiet.result.done and loud.result.done
        assert not sim._spawned and not owner

    def test_owner_that_already_dropped_the_process_is_tolerated(self, sim):
        owner = {}

        def sleeper():
            yield Timeout(1.0)

        proc = sim.spawn(sleeper(), owner=owner)
        owner.clear()  # what a group kill does before its kills are delivered
        sim.run()
        assert proc.result.done and not sim._spawned


class TestFutures:
    def test_double_resolve_raises(self, sim):
        fut = sim.event()
        fut.resolve(1)
        with pytest.raises(SimError):
            fut.resolve(2)

    def test_result_before_done_raises(self, sim):
        fut = sim.event()
        with pytest.raises(SimError):
            fut.result()

    def test_result_reraises_failure(self, sim):
        fut = sim.event()
        fut.fail(KeyError("missing"))
        with pytest.raises(KeyError):
            fut.result()

    def test_callbacks_run_through_heap(self, sim):
        order = []
        fut = sim.event()
        fut.add_done_callback(lambda f: order.append("cb"))
        fut.resolve()
        order.append("inline")
        sim.run()
        assert order == ["inline", "cb"]

    def test_run_until_failed_future_raises(self, sim):
        fut = sim.event()
        sim.timer(1.0, fut.fail, ValueError("x"))
        with pytest.raises(ValueError):
            sim.run_until(fut)

    def test_run_until_drained_heap_raises(self, sim):
        fut = sim.event()
        with pytest.raises(SimError):
            sim.run_until(fut)


class TestCombinators:
    def test_all_of_collects_values(self, sim):
        futs = [sim.event() for _ in range(3)]
        for i, f in enumerate(futs):
            sim.timer(float(3 - i), f.resolve, i * 10)
        gathered = all_of(sim, futs)
        assert sim.run_until(gathered) == [0, 10, 20]

    def test_all_of_empty(self, sim):
        gathered = all_of(sim, [])
        assert sim.run_until(gathered) == []

    def test_all_of_fails_fast(self, sim):
        futs = [sim.event() for _ in range(2)]
        sim.timer(1.0, futs[1].fail, RuntimeError("first"))
        sim.timer(2.0, futs[0].resolve, "late")
        gathered = all_of(sim, futs)
        with pytest.raises(RuntimeError):
            sim.run_until(gathered)


class TestTwoTierScheduler:
    """The ready-queue/timer-heap split must preserve (time, seq) order."""

    def test_heap_entries_at_now_precede_ready_entries(self, sim):
        # Two timers land at t=1.0 (scheduled before the clock got there);
        # the first one issues a zero-delay timer.  The single-heap kernel
        # ran strictly in sequence order: timer1, timer2, then the new entry.
        order = []
        sim.timer(1.0, lambda: (order.append("timer1"),
                                sim.timer(0.0, lambda: order.append("soon"))))
        sim.timer(1.0, lambda: order.append("timer2"))
        sim.run()
        assert order == ["timer1", "timer2", "soon"]

    def test_cancelled_zero_delay_token_does_not_fire(self, sim):
        """A zero-delay ``timer_token`` cancelled before its turn never
        fires; a live one fires in its FIFO position."""
        order = []
        dead, live = Token(), Token()
        sim.timer(0.0, lambda: (order.append("a"), setattr(dead, "cancelled", True)))
        sim.timer_token(0.0, dead, order.append, "cancelled")
        sim.timer_token(0.0, live, order.append, "b")
        sim.timer(0.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 0.0

    def test_timer_fires_at_offset(self, sim):
        seen = []
        sim.timer(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_timer_zero_delay_runs_at_current_time_fifo(self, sim):
        order = []
        sim.timer(0.0, lambda: order.append("timer0"))
        sim.timer_token(0.0, Token(), lambda: order.append("token0"))
        sim.timer(0.0, lambda: order.append("timer0-again"))
        sim.run()
        assert order == ["timer0", "token0", "timer0-again"]
        assert sim.now == 0.0

    def test_timer_negative_delay_raises(self, sim):
        with pytest.raises(SimError):
            sim.timer(-1.0, lambda: None)

    def test_timer_tiny_negative_delay_tolerated(self, sim):
        sim.timer(1.0, lambda: None)
        sim.run()
        seen = []
        sim.timer(-1e-13, lambda: seen.append(sim.now))
        sim.timer_token(-1e-13, Token(), lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.0, 1.0]

    def test_clock_only_advances_when_ready_queue_drained(self, sim):
        order = []

        def at_start():
            order.append(("soon", sim.now))
            sim.timer(0.0, lambda: order.append(("soon2", sim.now)))

        sim.timer(0.0, at_start)
        sim.timer(1.0, lambda: order.append(("timer", sim.now)))
        sim.run()
        assert order == [("soon", 0.0), ("soon2", 0.0), ("timer", 1.0)]


class TestAllOfLateCompletions:
    def test_late_success_after_failure_is_ignored(self, sim):
        futs = [sim.event() for _ in range(2)]
        gathered = all_of(sim, futs)
        sim.timer(1.0, futs[0].fail, RuntimeError("early"))
        sim.timer(2.0, futs[1].resolve, "late")
        with pytest.raises(RuntimeError):
            sim.run_until(gathered)
        sim.run()  # the late resolve must not double-resolve the gather
        assert isinstance(gathered.exception, RuntimeError)

    def test_late_failure_after_failure_is_ignored(self, sim):
        futs = [sim.event() for _ in range(2)]
        gathered = all_of(sim, futs)
        sim.timer(1.0, futs[0].fail, RuntimeError("first"))
        sim.timer(2.0, futs[1].fail, ValueError("second"))
        with pytest.raises(RuntimeError):
            sim.run_until(gathered)
        sim.run()
        assert isinstance(gathered.exception, RuntimeError)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run(seed):
            sim = Simulator(seed=seed)
            trace = []

            def proc():
                for _ in range(20):
                    yield Timeout(sim.rng.random())
                    trace.append(round(sim.now, 9))

            sim.spawn(proc())
            sim.run()
            return trace

        assert run(7) == run(7)
        assert run(7) != run(8)
