"""Property-based tests for conditional-append semantics (hypothesis).

The serializability of Marlin's reconfiguration transactions (invariant I1)
reduces to: concurrent conditional appends against the same expectation admit
exactly one winner, and LSNs are dense and monotone.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.recovery import analyze
from repro.engine.node import GTABLE
from repro.engine.replication import ReplicaTail, record_bytes
from repro.storage.log import Delete, Put, RecordKind, SharedLog
from repro.storage.pagestore import PageStore
from tests.conftest import make_cluster


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


# -- the readers agree ---------------------------------------------------------

USER = "usertable"

_entry = st.one_of(
    st.builds(
        Put, st.sampled_from((GTABLE, USER)), st.integers(0, 3), st.integers(0, 3)
    ),
    st.builds(Delete, st.sampled_from((GTABLE, USER)), st.integers(0, 3)),
)
_entries = st.lists(_entry, max_size=3).map(tuple)
_decision = st.sampled_from((RecordKind.DECISION_COMMIT, RecordKind.DECISION_ABORT))


@st.composite
def _txn_script(draw):
    """One txn's records in protocol order: a 1PC commit, or an optional
    begin/prepare, at most one vote, any decisions (racing resolvers may
    log conflicting ones) and an optional end."""
    if draw(st.booleans()):
        return [(RecordKind.COMMIT_DATA, draw(_entries))]
    script = []
    if draw(st.booleans()):
        script.append((RecordKind.TXN_BEGIN, ()))
    if draw(st.booleans()):
        script.append((RecordKind.PREPARE, ()))
    if draw(st.booleans()):
        script.append((RecordKind.VOTE_YES, draw(_entries)))
    script += [(kind, ()) for kind in draw(st.lists(_decision, max_size=2))]
    if draw(st.booleans()):
        script.append((RecordKind.TXN_END, ()))
    return script


@st.composite
def _wal(draw):
    """Interleave several txn scripts into one log, keeping each txn's order."""
    scripts = {
        f"t{i}": list(script)
        for i, script in enumerate(draw(st.lists(_txn_script(), max_size=8)))
    }
    log = SharedLog("glog-0")
    while any(scripts.values()):
        txn = draw(st.sampled_from(sorted(t for t, s in scripts.items() if s)))
        kind, entries = scripts[txn].pop(0)
        log.append(txn, kind, entries)
    return log


@functools.cache
def _view_node():
    """One node whose GTable/MTable views each example resets."""
    return make_cluster("marlin", num_nodes=1).nodes[0]


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(log=_wal(), cuts=st.lists(st.integers(1, 4), max_size=40))
def test_wal_readers_agree(log, cuts):
    """Page-store replay, a follower tail fed ship batches and a node view
    folding the committed entries end with one GTable; the outcome probe and
    recovery's scan both follow the first decision per txn."""
    first, voted = {}, set()
    for record in log.records:
        if record.kind is RecordKind.VOTE_YES:
            voted.add(record.txn_id)
        elif record.kind is RecordKind.DECISION_COMMIT:
            first.setdefault(record.txn_id, True)
        elif record.kind is RecordKind.DECISION_ABORT:
            first.setdefault(record.txn_id, False)

    store = PageStore()
    for record in log.records:
        store.apply(log.name, record)

    tail = ReplicaTail(1, 0)
    records, start = log.records, 0
    for size in cuts + [len(records)]:
        batch = records[start:start + size]
        if not batch:
            break
        tail.apply(batch[-1].lsn, tuple(
            (r.txn_id, r.kind, r.entries, record_bytes(r.kind, r.entries))
            for r in batch
        ))
        start += size

    node = _view_node()
    node.gtable, node.mtable = {}, {}
    expected = {GTABLE: {}, USER: {}}
    staged = {}
    for record in log.records:
        txn, kind = record.txn_id, record.kind
        if kind is RecordKind.VOTE_YES:
            staged[txn] = record.entries
            continue
        if kind is RecordKind.COMMIT_DATA:
            entries = record.entries
        elif first.get(txn) and kind is RecordKind.DECISION_COMMIT:
            entries = staged.pop(txn, ())
        else:
            staged.pop(txn, None)
            continue
        node.apply_system_entries(entries)
        for entry in entries:
            if isinstance(entry, Put):
                expected[entry.table][entry.key] = entry.value
            else:
                expected[entry.table].pop(entry.key, None)

    assert store.snapshot(GTABLE) == tail.gtable == node.gtable == expected[GTABLE]
    assert store.snapshot(USER) == expected[USER]
    for txn in {r.txn_id for r in log.records}:
        assert log.txn_outcome(txn) == (first.get(txn), txn in voted)
    assert set(analyze(log.records, log.name).in_doubt) == voted - set(first)
