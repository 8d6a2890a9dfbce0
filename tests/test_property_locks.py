"""Property-based tests for the lock table (hypothesis).

Invariants checked over random acquire/release traces:

* an exclusive lock never coexists with any other holder,
* shared holders never observe an exclusive flag,
* `held_by` and `holders` stay mutually consistent,
* waiting-mode grants are FIFO and never overlap incompatibly,
* the batch entry point is indistinguishable from the per-key loop it
  replaced on the user-transaction path (differential test).
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.locks import LockConflict, LockTable
from repro.sim.core import Simulator

KEYS = ["a", "b", "c"]
TXNS = [f"t{i}" for i in range(5)]


def check_consistency(locks: LockTable):
    for key in KEYS:
        holders = locks.holders(key)
        if locks.is_exclusive(key):
            assert len(holders) == 1
        for txn in holders:
            assert key in locks.held_by(txn)
    for txn in TXNS:
        for key in locks.held_by(txn):
            assert txn in locks.holders(key)


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["acquire_s", "acquire_x", "release"]),
            st.sampled_from(TXNS),
            st.sampled_from(KEYS),
        ),
        max_size=40,
    )
)
def test_no_wait_trace_invariants(ops):
    locks = LockTable()
    for op, txn, key in ops:
        try:
            if op == "acquire_s":
                locks.acquire(txn, key, exclusive=False)
            elif op == "acquire_x":
                locks.acquire(txn, key, exclusive=True)
            else:
                locks.release_all(txn)
        except LockConflict:
            pass
        check_consistency(locks)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_waiting_mode_grants_are_exclusive(seed):
    """Random mix of NO_WAIT users and waiting reconfig requests."""
    sim = Simulator(seed=seed)
    locks = LockTable(sim)
    rng = random.Random(seed)
    granted_exclusive = {}

    def reconfig(txn, key):
        try:
            yield locks.acquire_async(txn, key, True, timeout=5.0)
        except LockConflict:
            return
        # While we hold X, nobody else may hold anything on key.
        assert locks.holders(key) == {txn}
        from repro.sim.core import Timeout

        yield Timeout(rng.random() * 0.01)
        assert locks.holders(key) == {txn}
        locks.release_all(txn)

    def user(txn, key):
        from repro.sim.core import Timeout

        try:
            locks.acquire(txn, key, exclusive=False)
        except LockConflict:
            return
        yield Timeout(rng.random() * 0.01)
        assert not locks.is_exclusive(key)
        locks.release_all(txn)

    for i in range(20):
        key = rng.choice(KEYS)
        if rng.random() < 0.4:
            sim.timer(
                rng.random() * 0.05,
                lambda i=i, key=key: sim.spawn(
                    reconfig(f"r{i}", key), daemon=True
                ),
            )
        else:
            sim.timer(
                rng.random() * 0.05,
                lambda i=i, key=key: sim.spawn(user(f"u{i}", key), daemon=True),
            )
    sim.run()
    for key in KEYS:
        assert locks.holders(key) == set()


def test_waiter_granted_after_release():
    sim = Simulator()
    locks = LockTable(sim)
    locks.acquire("user", "k", exclusive=False)
    fut = locks.acquire_async("migr", "k", True, timeout=5.0)
    sim.run(until=0.1)
    assert not fut.done
    locks.release_all("user")
    sim.run(until=0.2)
    assert fut.done and fut.exception is None
    assert locks.holders("k") == {"migr"}


def test_waiters_block_new_no_wait_acquires():
    """A queued X waiter fences later NO_WAIT readers (no writer starvation)."""
    sim = Simulator()
    locks = LockTable(sim)
    locks.acquire("user1", "k", exclusive=False)
    locks.acquire_async("migr", "k", True, timeout=5.0)
    with pytest.raises(LockConflict):
        locks.acquire("user2", "k", exclusive=False)


def test_wait_timeout_fails_future():
    sim = Simulator()
    locks = LockTable(sim)
    locks.acquire("user", "k", exclusive=True)
    fut = locks.acquire_async("migr", "k", True, timeout=0.5)
    sim.run(until=1.0)
    assert isinstance(fut.exception, LockConflict)
    # The expired waiter no longer blocks others.
    locks.release_all("user")
    locks.acquire("user2", "k", exclusive=True)


def test_fifo_wakeup_order():
    sim = Simulator()
    locks = LockTable(sim)
    locks.acquire("holder", "k", exclusive=True)
    first = locks.acquire_async("m1", "k", True, timeout=10.0)
    second = locks.acquire_async("m2", "k", True, timeout=10.0)
    locks.release_all("holder")
    sim.run(until=0.1)
    assert first.done and not second.done
    locks.release_all("m1")
    sim.run(until=0.2)
    assert second.done


def test_shared_waiters_granted_together():
    sim = Simulator()
    locks = LockTable(sim)
    locks.acquire("writer", "k", exclusive=True)
    s1 = locks.acquire_async("r1", "k", False, timeout=10.0)
    s2 = locks.acquire_async("r2", "k", False, timeout=10.0)
    locks.release_all("writer")
    sim.run(until=0.1)
    assert s1.done and s2.done
    assert locks.holders("k") == {"r1", "r2"}


def test_clear_fails_pending_waiters():
    sim = Simulator()
    locks = LockTable(sim)
    locks.acquire("holder", "k", exclusive=True)
    fut = locks.acquire_async("migr", "k", True, timeout=10.0)
    locks.clear()
    sim.run(until=0.1)
    assert isinstance(fut.exception, LockConflict)


# -- batch entry point vs per-key acquire (differential) ------------------------

_REQUEST = st.tuples(st.sampled_from(KEYS), st.booleans())
_STEP = st.one_of(
    st.tuples(st.just("batch"), st.sampled_from(TXNS), st.lists(_REQUEST, max_size=6)),
    st.tuples(st.just("acquire"), st.sampled_from(TXNS), _REQUEST),
    st.tuples(st.just("async"), st.sampled_from(TXNS), _REQUEST),
    st.tuples(st.just("release"), st.sampled_from(TXNS), st.none()),
)


def _observe(locks: LockTable, futures):
    return {
        "holders": {key: locks.holders(key) for key in KEYS},
        "exclusive": {key: locks.is_exclusive(key) for key in KEYS},
        "held_by": {txn: locks.held_by(txn) for txn in TXNS},
        "waiting": {key: locks.waiting(key) for key in KEYS},
        "acquisitions": locks.acquisitions,
        "conflicts": locks.conflicts,
        "granted": [fut.done for fut in futures],
    }


def _apply(locks: LockTable, futures, step, batched: bool):
    """Run one step; the ``(key, holders)`` of the conflict it raised, if any."""
    op, txn, arg = step
    try:
        if op == "batch" and batched:
            locks.acquire_all(txn, arg)
        elif op == "batch":
            for key, exclusive in arg:
                locks.acquire(txn, key, exclusive)
        elif op == "acquire":
            locks.acquire(txn, *arg)
        elif op == "async":
            futures.append(locks.acquire_async(txn, *arg))
        else:
            locks.release_all(txn)
    except LockConflict as conflict:
        return conflict.key, conflict.holders
    return None


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_STEP, max_size=30))
# S -> X upgrade inside one batch; a second reader then blocks the upgrade.
@example(steps=[("batch", "t0", [("a", False), ("a", True)]),
                ("acquire", "t1", ("b", False)),
                ("batch", "t2", [("b", False), ("c", True), ("b", True)])])
# Conflict in the middle of a batch: the earlier key stays held until release.
@example(steps=[("acquire", "t1", ("b", True)),
                ("batch", "t0", [("a", True), ("b", False), ("c", True)]),
                ("release", "t0", None)])
# A batch hitting a key with a queued waiter is fenced by the waiter.
@example(steps=[("acquire", "t0", ("a", False)),
                ("async", "t1", ("a", True)),
                ("batch", "t2", [("b", False), ("a", False)]),
                ("release", "t0", None)])
def test_batch_entry_point_matches_per_key_acquire(steps):
    batched, per_key = LockTable(Simulator()), LockTable(Simulator())
    batched_futs, per_key_futs = [], []
    for step in steps:
        raised = _apply(batched, batched_futs, step, batched=True)
        assert raised == _apply(per_key, per_key_futs, step, batched=False)
        assert _observe(batched, batched_futs) == _observe(per_key, per_key_futs)
        check_consistency(batched)
