"""Property-based tests for conditional-append semantics (hypothesis).

The serializability of Marlin's reconfiguration transactions (invariant I1)
reduces to: concurrent conditional appends against the same expectation admit
exactly one winner, and LSNs are dense and monotone.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.log import LogRecord, RecordKind, SharedLog
from repro.storage.pagestore import PageStore
from repro.storage.log import Put


@settings(max_examples=150, deadline=None)
@given(
    attempts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),  # expected_lsn guess
            st.booleans(),                            # conditional?
        ),
        max_size=30,
    )
)
def test_lsn_density_and_cas_exclusion(attempts):
    log = SharedLog("prop")
    for i, (guess, conditional) in enumerate(attempts):
        before = log.end_lsn
        ok, lsn = log.append(
            f"t{i}",
            RecordKind.COMMIT_DATA,
            (),
            expected_lsn=guess if conditional else None,
        )
        if conditional and guess != before:
            assert not ok
            assert lsn == before == log.end_lsn
        else:
            assert ok
            assert lsn == before + 1 == log.end_lsn
    # LSNs are dense: record i has lsn i+1.
    for i, record in enumerate(log.records):
        assert record.lsn == i + 1


@settings(max_examples=60, deadline=None)
@given(
    n_writers=st.integers(min_value=2, max_value=8),
    rounds=st.integers(min_value=1, max_value=10),
)
def test_racing_writers_admit_one_winner_per_round(n_writers, rounds):
    """All writers CAS at the same observed LSN: exactly one wins per round."""
    log = SharedLog("race")
    for _round in range(rounds):
        observed = log.end_lsn
        winners = 0
        for w in range(n_writers):
            ok, _ = log.append(
                f"w{w}", RecordKind.COMMIT_DATA, (), expected_lsn=observed
            )
            winners += int(ok)
        assert winners == 1


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),   # key
            st.integers(min_value=0, max_value=99),  # value
        ),
        min_size=1,
        max_size=25,
    )
)
def test_replay_equals_sequential_application(ops):
    """Replaying the log yields the same table as applying writes in order."""
    log = SharedLog("replay")
    expected = {}
    for i, (key, value) in enumerate(ops):
        log.append(f"t{i}", RecordKind.COMMIT_DATA, (Put("tab", key, value),))
        expected[key] = value
    ps = PageStore()
    for record in log.records:
        ps.apply("replay", record)
    assert ps.snapshot("tab") == expected
