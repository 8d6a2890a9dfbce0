"""Unit tests for the NO_WAIT 2PL lock table."""

import pytest

from repro.engine.locks import LockConflict, LockTable


@pytest.fixture
def locks():
    return LockTable()


class TestSharedLocks:
    def test_multiple_readers(self, locks):
        locks.acquire("t1", "k", exclusive=False)
        locks.acquire("t2", "k", exclusive=False)
        assert locks.holders("k") == {"t1", "t2"}

    def test_reader_blocks_writer(self, locks):
        locks.acquire("t1", "k", exclusive=False)
        with pytest.raises(LockConflict):
            locks.acquire("t2", "k", exclusive=True)

    def test_reacquire_shared_is_noop(self, locks):
        locks.acquire("t1", "k", exclusive=False)
        locks.acquire("t1", "k", exclusive=False)
        assert locks.holders("k") == {"t1"}


class TestExclusiveLocks:
    def test_writer_blocks_writer(self, locks):
        locks.acquire("t1", "k", exclusive=True)
        with pytest.raises(LockConflict):
            locks.acquire("t2", "k", exclusive=True)

    def test_writer_blocks_reader(self, locks):
        locks.acquire("t1", "k", exclusive=True)
        with pytest.raises(LockConflict):
            locks.acquire("t2", "k", exclusive=False)

    def test_holder_reads_own_exclusive(self, locks):
        locks.acquire("t1", "k", exclusive=True)
        locks.acquire("t1", "k", exclusive=False)  # no conflict
        assert locks.is_exclusive("k")


class TestUpgrades:
    def test_sole_holder_upgrades(self, locks):
        locks.acquire("t1", "k", exclusive=False)
        locks.acquire("t1", "k", exclusive=True)
        assert locks.is_exclusive("k")

    def test_shared_holder_cannot_upgrade_with_others(self, locks):
        locks.acquire("t1", "k", exclusive=False)
        locks.acquire("t2", "k", exclusive=False)
        with pytest.raises(LockConflict):
            locks.acquire("t1", "k", exclusive=True)


class TestRelease:
    def test_release_all_frees_locks(self, locks):
        locks.acquire("t1", "a", exclusive=True)
        locks.acquire("t1", "b", exclusive=False)
        locks.release_all("t1")
        locks.acquire("t2", "a", exclusive=True)
        locks.acquire("t2", "b", exclusive=True)

    def test_release_one_shared_keeps_others(self, locks):
        locks.acquire("t1", "k", exclusive=False)
        locks.acquire("t2", "k", exclusive=False)
        locks.release_all("t1")
        assert locks.holders("k") == {"t2"}
        with pytest.raises(LockConflict):
            locks.acquire("t3", "k", exclusive=True)

    def test_release_unknown_txn_is_noop(self, locks):
        locks.release_all("ghost")

    def test_remaining_shared_lock_not_exclusive(self, locks):
        locks.acquire("t1", "k", exclusive=False)
        locks.acquire("t2", "k", exclusive=False)
        locks.release_all("t1")
        locks.acquire("t3", "k", exclusive=False)  # still shared

    def test_held_by(self, locks):
        locks.acquire("t1", "a", exclusive=True)
        locks.acquire("t1", "b", exclusive=False)
        assert locks.held_by("t1") == {"a", "b"}
        locks.release_all("t1")
        assert locks.held_by("t1") == set()


class TestNoWaitSemantics:
    def test_conflict_counter(self, locks):
        locks.acquire("t1", "k", exclusive=True)
        for _ in range(3):
            with pytest.raises(LockConflict):
                locks.acquire("t2", "k", exclusive=True)
        assert locks.conflicts == 3

    def test_conflict_carries_holders(self, locks):
        locks.acquire("t1", "k", exclusive=True)
        with pytest.raises(LockConflict) as excinfo:
            locks.acquire("t2", "k", exclusive=False)
        assert excinfo.value.holders == {"t1"}
        assert excinfo.value.key == "k"

    def test_failed_acquire_grants_nothing(self, locks):
        locks.acquire("t1", "k", exclusive=True)
        with pytest.raises(LockConflict):
            locks.acquire("t2", "k", exclusive=True)
        locks.release_all("t2")
        assert locks.holders("k") == {"t1"}

    def test_clear_drops_everything(self, locks):
        locks.acquire("t1", "a", exclusive=True)
        locks.clear()
        locks.acquire("t2", "a", exclusive=True)

    def test_tuple_keys(self, locks):
        """GTable entries lock ('gtable', gid) — distinct from record locks."""
        locks.acquire("t1", ("gtable", 5), exclusive=False)
        locks.acquire("t2", ("usertable", 5), exclusive=True)
        with pytest.raises(LockConflict):
            locks.acquire("t3", ("gtable", 5), exclusive=True)


class TestBatchAcquire:
    def test_grants_in_order_and_counts_each_request(self, locks):
        locks.acquire_all("t1", [("a", False), ("b", True), ("a", True), ("b", True)])
        assert locks.held_by("t1") == {"a", "b"}
        assert locks.is_exclusive("a") and locks.is_exclusive("b")
        assert (locks.acquisitions, locks.conflicts) == (4, 0)

    def test_conflict_mid_batch_keeps_earlier_grants(self, locks):
        locks.acquire("other", "b", exclusive=True)
        with pytest.raises(LockConflict) as excinfo:
            locks.acquire_all("t1", [("a", True), ("b", False), ("c", True)])
        assert (excinfo.value.key, excinfo.value.holders) == ("b", {"other"})
        assert locks.held_by("t1") == {"a"}
        assert locks.holders("c") == set()
        assert (locks.acquisitions, locks.conflicts) == (2, 1)
        locks.release_all("t1")
        assert locks.holders("a") == set()

    def test_empty_batch_is_a_noop(self, locks):
        locks.acquire_all("t1", [])
        assert locks.holding_txns() == set()
        assert locks.acquisitions == 0


_WAKE_ORDER = """
from repro.engine.locks import LockTable
from repro.sim.core import Simulator

sim = Simulator()
locks = LockTable(sim)
order = []
for g in (3, 0, 5, 1, 4, 2):
    locks.acquire("user", ("gtable", g), False)
for g in range(6):
    fut = locks.acquire_async(f"m{g}", ("gtable", g), True)
    fut.add_done_callback(lambda _f, g=g: order.append(g))
locks.release_all("user")
sim.run()
print(order)
"""


def test_release_wakes_waiters_in_acquisition_order_under_any_hash_seed():
    """One txn holding S locks on six GTable keys, one X waiter on each: the
    wake order is the order the holder acquired them — not the iteration
    order of a set of ``(str, int)`` keys, which follows PYTHONHASHSEED (a
    set of tuples is invisible to detlint DET102)."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    orders = [
        subprocess.run(
            [sys.executable, "-c", _WAKE_ORDER],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.strip()
        for hash_seed in ("0", "1", "2")
    ]
    assert orders == ["[3, 0, 5, 1, 4, 2]"] * 3
