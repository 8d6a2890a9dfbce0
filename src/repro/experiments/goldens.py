"""Behavioural goldens + the derived cache epoch.

One module owns every golden the test suite pins a seeded run against:

* :data:`DETERMINISM_GOLDEN` — the kernel-determinism scenario
  (``tests/test_kernel_determinism.py``): exact event count, commit/abort/
  migration totals, final simulated time and ``Cluster.stats()`` of one
  seeded scale-out run.
* :data:`SPEC_PARITY_GOLDENS` — the spec-runner parity scenarios
  (``tests/test_experiment_spec.py``): the fig8 family, fig14 dynamic and
  fig15 stress runs.
* :data:`FIG7_LEASE_GOLDEN` — the lease-mode fig7 crash cell
  (``tests/test_fig7_symmetry.py``): expiry-driven failover under the
  canonical crash+rejoin schedule, including detection latency and renewal
  traffic.
* :data:`FIG17_REPLICATION_GOLDEN` — the replicated lagged-crash cells
  (``tests/test_replication.py``): sync_quorum vs. async promotion under a
  ship-lag window, pinning RPO/RTO and the ship counters.

Centralising them buys the **cache-epoch automation**: the sweep result
cache must be invalidated by exactly the set of changes that alters what a
seeded run produces — which is, by definition, the set of changes that
re-captures these goldens.  :func:`cache_epoch` therefore derives the epoch
as a content hash of this module's golden values; re-capturing the goldens
*is* the epoch bump, and forgetting it is impossible (the parity tests fail
first).

Re-capture procedure (any PR that changes seeded-run behaviour):

1. run the failing determinism/parity tests and copy the actual values
   into this module;
2. done — ``CACHE_EPOCH`` changes automatically with the hash.
"""

from __future__ import annotations

import hashlib
import json

__all__ = [
    "DETERMINISM_GOLDEN",
    "FIG7_LEASE_GOLDEN",
    "FIG17_REPLICATION_GOLDEN",
    "SPEC_PARITY_GOLDENS",
    "cache_epoch",
]

#: run_spec(scale_out_spec("marlin", initial_nodes=2, added_nodes=2,
#: clients=8, granules=64, scale_at=1.0, tail=2.0, seed=3))
DETERMINISM_GOLDEN = {
    "events_executed": 15348,
    "total_committed": 265,
    "total_aborted": 73,
    "total_migrations": 32,
    "final_now": 3.572544273356236,
    #: The non-zero ``Cluster.stats()`` counters of the same run (the key set
    #: is static, so every key left out reads 0).
    "stats": {
        "sim.core.events_executed": 15348, "sim.rpc.requests_served": 2009,
        "sim.network.messages_sent": 3981, "sim.resources.jobs_completed": 305,
        "storage.service.appends_served": 441,
        "storage.service.reads_served": 1085,
        "storage.pagestore.records_applied": 470,
        "engine.locks.acquisitions": 4971, "engine.locks.conflicts": 61,
        "engine.locks.waits": 2,
        "engine.buffer.hits": 5473, "engine.buffer.misses": 1083,
        "engine.group_commit.batches_flushed": 279,
        "engine.group_commit.records_flushed": 305,
        "engine.node.committed": 273, "engine.node.aborted": 73,
        "engine.node.wrong_node": 12, "engine.node.lock_conflicts": 61,
        "core.runtime.reconfig_commits": 34,
        "cluster.metrics.committed": 265, "cluster.metrics.aborted": 73,
        "cluster.metrics.migrations": 32,
    },
}

SPEC_PARITY_GOLDENS = {
    #: family.GRID.run(scale=0.08, seed=11, system=("marlin", "zk-small"),
    #: clients=(10,))
    "family": {
        "marlin": {
            "committed": 1190,
            "aborted": 43,
            "migrations": 496,
            "first_migration": 5.200142544771348,
            "last_migration": 6.334701424738583,
            "duration": 11.334973112785585,
            "lat_mean": 0.0943011043561465,
        },
        "zk-small": {
            "committed": 1381,
            "aborted": 198,
            "migrations": 496,
            "first_migration": 5.591431866813494,
            "last_migration": 8.462466549324414,
            "duration": 13.462730299055718,
            "lat_mean": 0.09629657428228643,
        },
    },
    #: run_spec(fig14.dynamic_spec("marlin", scale=0.12, seed=11))
    "fig14": {
        "duration": 65.0,
        "committed": 5938,
        "aborted": 616,
        "migrations": 1496,
        "first_migration": 10.300308064530274,
        "last_migration": 41.987951813266285,
    },
    #: run_spec(fig15.stress_spec("marlin", 16, interval=1.5, duration=8.0,
    #: seed=11)).extras["membership_churn"]
    "fig15": {
        "offered_tps": 21.333333333333332,
        "achieved_tps": 20.125,
        "efficiency": 0.943359375,
        "mean_latency_s": 0.040174319313766006,
        "p99_latency_s": 0.2247758592837733,
        "retries": 103,
    },
}


#: run_spec(fig7.slo_spec("lease", "crash_restart", scale=0.25, seed=1)):
#: node 1 crashes at t=3, its lease (ttl 1.5) expires, one checker wins the
#: CAS self-promotion and recovers all 100 granules; detection latency is
#: first_failover_s - 3.0.
FIG7_LEASE_GOLDEN = {
    "committed": 1052,
    "aborted": 155,
    "migrations": 100,
    "failovers": 1,
    "migration_p99_s": 2.6857628357567442,
    "first_failover_s": 4.51512726901963,
    "renewal_rpcs": 213,
}


#: run_spec(fig17_replication.replication_spec(cell, "lagged_crash",
#: scale=0.25, seed=1)) for the two cells whose contrast is the figure's
#: finding: a replica-link degradation window (1.5s-2.5s) queues ship lag,
#: then the primary dies at t=3 — sync_quorum promotes with zero lost bytes,
#: async loses exactly the un-shipped tail.  Pins the ship/ack counters too,
#: so any change to replication's seeded behaviour re-captures here (and
#: rotates the cache epoch).
FIG17_REPLICATION_GOLDEN = {
    "sync_q2": {
        "committed": 142,
        "aborted": 19,
        "failovers": 1,
        "promotions": 1,
        "ships": 478,
        "bytes_shipped": 53136,
        "rpo_bytes": 0.0,
        "rto_s": 1.3089310598703134,
    },
    "async": {
        "committed": 435,
        "aborted": 39,
        "failovers": 1,
        "promotions": 1,
        "ships": 1074,
        "bytes_shipped": 159362,
        "rpo_bytes": 2724.0,
        "rto_s": 0.9832130347739323,
    },
}


def cache_epoch() -> str:
    """The result-cache epoch: a content hash of the behavioural goldens.

    Any change to what a seeded run produces re-captures the goldens above,
    which changes this hash, which invalidates every cached sweep cell —
    no manual bump to remember.
    """
    payload = json.dumps(
        {
            "determinism": DETERMINISM_GOLDEN,
            "parity": SPEC_PARITY_GOLDENS,
            "fig7_lease": FIG7_LEASE_GOLDEN,
            "fig17_replication": FIG17_REPLICATION_GOLDEN,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
