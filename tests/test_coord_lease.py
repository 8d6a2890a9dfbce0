"""Lease backend: LeaseTable properties, CAS races, seeded replay.

Satellite suite for the lease/TTL coordination tentpole:

- a hypothesis property test driving :class:`repro.coord.lease.LeaseTable`
  against an independently written reference model, asserting the
  exactly-one-holder invariant — validity intervals of *different* holders
  of one lease never overlap, and an expired lease is granted to exactly
  the first claimant;
- an end-to-end race: several live nodes CAS-acquire the same expired
  lease through the RPC service in the same instant; the serialized leader
  pipeline lets exactly one win;
- bit-identical seeded replay of a full lease-mode crash/failover run —
  the backend introduces no hidden nondeterminism (it is ``hash()``-free,
  unlike fdb's salted shard map).
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coord.lease import (
    LEASE_PREFIX,
    LeaseFailureDetector,
    LeaseTable,
    lease_path,
)
from tests.conftest import make_cluster
from tests.test_workload_client import start_clients

settings.register_profile(
    "ci", max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "default", max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# --- property test: LeaseTable vs reference model -------------------------

NAMES = (lease_path(0), lease_path(1), "/lease/other")

#: One program step: (op, name, holder, ttl, dt).  Time only moves forward
#: (dt >= 0), mirroring the simulator clock the service applies ops at.
STEPS = st.tuples(
    st.sampled_from(("acquire", "renew", "release")),
    st.sampled_from(NAMES),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class ReferenceModel:
    """Spec-as-code for the lease semantics, written interval-first.

    Instead of mirroring the dict implementation, the model records every
    holder's validity interval ``[start, end)`` per lease; the table's
    observable results must match what the intervals imply, and the
    intervals themselves must never overlap across holders.
    """

    def __init__(self):
        #: name -> list of (holder, start, end); the last entry is current.
        self.intervals = {}
        #: Intervals closed by an explicit release (the lease is retired, so
        #: a later renew by the old holder must reject with holder=None).
        self.closed = []

    def _current(self, name, now):
        spans = self.intervals.get(name)
        if not spans:
            return None
        holder, _start, end = spans[-1]
        return (holder, end) if end > now else None

    def _holder_record(self, name):
        spans = self.intervals.get(name)
        return spans[-1] if spans else None

    def acquire(self, name, holder, ttl, now):
        live = self._current(name, now)
        if live is not None and live[0] != holder:
            return False, live[0], live[1]
        spans = self.intervals.setdefault(name, [])
        if spans and spans[-1][0] == holder:
            # Refresh: extend (or re-open) the holder's own interval.
            spans[-1] = (holder, spans[-1][1], now + ttl)
        else:
            spans.append((holder, now, now + ttl))
        return True, holder, now + ttl

    def renew(self, name, holder, ttl, now):
        record = self._holder_record(name)
        if record is None or record[0] != holder:
            return False, record[0] if record else None
        spans = self.intervals[name]
        spans[-1] = (holder, record[1], now + ttl)
        return True, holder

    def release(self, name, holder, now):
        record = self._holder_record(name)
        if record is None or record[0] != holder:
            return False
        # Close the interval at the release instant and retire the lease.
        spans = self.intervals.pop(name)
        spans[-1] = (holder, record[1], min(record[2], now))
        self.closed.append((name, spans))
        return True

    def assert_no_overlap(self):
        """Exactly-one-holder: cross-holder intervals never overlap."""
        histories = list(self.intervals.items()) + self.closed
        for name, spans in histories:
            for (h1, _s1, e1), (h2, s2, _e2) in zip(spans, spans[1:]):
                if h1 == h2:
                    continue
                assert e1 <= s2, (
                    f"{name}: holder {h1} valid until {e1} overlaps "
                    f"holder {h2} from {s2}"
                )


class TestLeaseTableProperties:
    @given(steps=st.lists(STEPS, min_size=1, max_size=60))
    def test_table_matches_reference_model(self, steps):
        table = LeaseTable()
        model = ReferenceModel()
        now = 0.0
        for op, name, holder, ttl, dt in steps:
            now += dt
            if op == "acquire":
                got = table.acquire(name, holder, ttl, now)
                want = model.acquire(name, holder, ttl, now)
            elif op == "renew":
                got = table.renew(name, holder, ttl, now)
                want = model.renew(name, holder, ttl, now)
            else:
                got = table.release(name, holder)
                want = model.release(name, holder, now)
            assert got == want, f"{op}({name}, {holder}) at t={now}"
            model.assert_no_overlap()
        # The table's final state agrees with the model's open intervals.
        for name, (holder, expires) in table.snapshot().items():
            record = model._holder_record(name)
            assert record is not None and record[0] == holder
            assert record[2] == expires

    @given(
        ttl=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        gap=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    def test_expiry_boundary_is_half_open(self, ttl, gap):
        """A lease granted at t with ttl is dead at exactly t+ttl (>= not >),
        so back-to-back holders' intervals are [t, t+ttl) half-open."""
        table = LeaseTable()
        granted, *_ = table.acquire("/lease/x", 1, ttl, 0.0)
        assert granted
        at = ttl + gap
        granted, holder, _ = table.acquire("/lease/x", 2, 9.9, at)
        assert granted and holder == 2

    def test_renew_after_takeover_rejects_with_new_holder(self):
        table = LeaseTable()
        table.acquire("/lease/x", 1, 1.0, 0.0)
        table.acquire("/lease/x", 2, 1.0, 2.0)  # expired, successor takes it
        ok, holder = table.renew("/lease/x", 1, 1.0, 2.1)
        assert not ok and holder == 2  # the fencing signal


# --- end-to-end: CAS race through the RPC service -------------------------

class TestLeaseRace:
    def test_exactly_one_claimant_wins_expired_lease(self):
        cluster = make_cluster("lease", num_nodes=3)
        cluster.run(until=0.05)
        name = "/lease/contested"
        # Plant an already-expired lease held by a phantom node 99.
        cluster.service.table.leases[name] = (99, 0.01)
        outcomes = {}

        def racer(nid):
            node = cluster.nodes[nid]
            result = yield from node.runtime.client.acquire_lease(
                node, name, nid, 1.0
            )
            outcomes[nid] = result

        for nid in cluster.live_node_ids():
            cluster.sim.spawn(racer(nid), name=f"racer:{nid}")
        cluster.run(until=1.0)
        assert set(outcomes) == set(cluster.live_node_ids())
        winners = [nid for nid, (granted, *_rest) in outcomes.items() if granted]
        assert len(winners) == 1
        losers = [nid for nid in outcomes if nid not in winners]
        # Every loser was told who won and when that grant expires.
        for nid in losers:
            _granted, holder, expires = outcomes[nid]
            assert holder == winners[0]
            assert expires > cluster.sim.now - 1.0
        assert cluster.service.acquires_granted == 1
        assert cluster.service.acquires_rejected == len(losers)


# --- bit-identical seeded replay ------------------------------------------

def _lease_crash_run(seed):
    """One lease-mode crash/failover run; returns a full behaviour digest."""
    cluster = make_cluster(
        "lease", num_nodes=3, num_keys=2048, keys_per_granule=64,
        seed=seed, failure_detection=True,
    )
    cluster.run(until=0.05)
    _router, clients = start_clients(
        cluster, count=4, seed=seed, incr_fraction=0.2, remote_fraction=0.5
    )
    cluster.run(until=1.0)
    cluster.fail_node(1)
    cluster.run(until=6.0)
    for c in clients:
        c.stop()
    cluster.settle(1.5)
    stats = cluster.failure_detection_stats()
    return {
        "now": cluster.sim.now,
        "committed": cluster.metrics.total_committed,
        "aborted": cluster.metrics.total_aborted,
        "migrations": cluster.metrics.total_migrations,
        "migration_buckets": tuple(sorted(cluster.metrics.migrations.items())),
        "failovers": tuple(cluster.metrics.failovers),
        "stats": tuple(sorted(stats.items())),
        "leases": tuple(sorted(cluster.service.table.snapshot(LEASE_PREFIX).items())),
        "renews": cluster.service.renews_served,
    }


class TestSeededReplay:
    def test_lease_failover_replays_bit_identically(self):
        first = _lease_crash_run(seed=5)
        second = _lease_crash_run(seed=5)
        assert first == second
        # And the run was non-vacuous: the expiry detector actually fenced
        # the dead node and moved its granules.
        assert first["failovers"], "no failover ran"
        assert first["migrations"], "no granules migrated"
        assert first["stats"] != ()

    def test_lease_detector_counters_fire(self):
        """The detectors report the renewal traffic fig7's column reads."""
        cluster = make_cluster(
            "lease", num_nodes=3, failure_detection=True, seed=5
        )
        cluster.run(until=2.0)
        stats = cluster.failure_detection_stats()
        assert stats["renewal_rpcs"] > 0
        assert stats["failovers_started"] == 0
        assert stats["first_failover_s"] is None
        assert all(
            isinstance(d, LeaseFailureDetector)
            for d in cluster.detectors.values()
        )
