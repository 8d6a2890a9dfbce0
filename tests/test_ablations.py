"""Ablations of the design choices the node parameters expose.

The only readers of ``NodeParams.warmup_enabled`` / ``group_commit_batch`` /
``migration_workers`` at a non-default value: each test runs the same seeded
Marlin scale-out twice and asserts the direction the paper argues.

* **Cache warm-up (§4.4.1)** — disabling the Squall-style warm-up scan makes
  migrations commit faster but leaves the destination cold: post-migration
  user transactions pay storage fetches.
* **Group commit (§5)** — batch size 1 vs 64: batching amortizes the
  conditional-append round trip across transactions.
* **Migration workers (§6.1.4)** — Marlin's migration throughput is a
  function of destination-side concurrency (the paper scales concurrency
  with node count): the near-linear lever.
"""

from dataclasses import replace

from repro.experiments.harness import EXP_NODE_PARAMS
from repro.experiments.runner import run_spec
from repro.experiments.spec import scale_out_spec


def run_with(granules, clients, added_nodes=4, **node_params):
    return run_spec(scale_out_spec(
        "marlin",
        initial_nodes=4,
        added_nodes=added_nodes,
        clients=clients,
        granules=granules,
        scale_at=1.0,
        tail=2.0,
        node_params=replace(EXP_NODE_PARAMS, **node_params),
        seed=3,
    ))


def test_warmup_trades_migration_time_for_a_warm_destination():
    warm, cold = (
        run_with(400, clients=24, warmup_enabled=flag) for flag in (True, False)
    )

    def new_node_misses(result):
        return sum(result.cluster.nodes[n].cache.misses for n in range(4, 8))

    # Without warm-up the new nodes fetch pages from storage on demand
    # (2 499 misses against 352) ...
    assert new_node_misses(cold) > new_node_misses(warm)
    # ... and warm-up is the dominant per-migration cost: disabling it
    # shortens the reconfiguration window (0.28 s against 1.01 s).
    assert cold.migration_duration < warm.migration_duration


def test_group_commit_amortizes_storage_appends():
    unbatched, batched = (
        run_with(400, clients=48, added_nodes=0, group_commit_batch=batch)
        for batch in (1, 64)
    )

    def appends(result):
        return result.cluster.storages["us-west"].appends_served

    assert appends(unbatched) > appends(batched)  # 576 against 288


def test_migration_workers_are_the_near_linear_lever():
    def migrations_per_s(result):
        return result.metrics.total_migrations / result.migration_duration

    one, eight = (
        run_with(800, clients=8, migration_workers=workers) for workers in (1, 8)
    )
    assert migrations_per_s(eight) > 3 * migrations_per_s(one)  # 211 against 26
