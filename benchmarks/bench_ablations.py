"""Ablations of the design choices DESIGN.md calls out.

* **Cache warm-up (§4.4.1)** — disabling the Squall-style warm-up scan makes
  migrations commit faster but leaves the destination cold: post-migration
  user transactions pay storage fetches.
* **Group commit (§5)** — batch size 1 vs 64: batching amortizes the
  conditional-append round trip across transactions.
* **Migration workers** — Marlin's migration throughput is a function of
  destination-side concurrency (the paper scales concurrency with node
  count); sweeping workers shows the near-linear lever.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments.harness import EXP_NODE_PARAMS, FigureResult
from repro.experiments.runner import run_spec
from repro.experiments.spec import scale_out_spec
from dataclasses import replace


def test_ablation_cache_warmup(benchmark):
    def run_pair():
        out = {}
        for warmup in (True, False):
            params = replace(EXP_NODE_PARAMS, warmup_enabled=warmup)
            out[warmup] = run_spec(scale_out_spec(
                "marlin",
                initial_nodes=4,
                added_nodes=4,
                clients=24,
                granules=1600,
                scale_at=2.0,
                tail=6.0,
                node_params=params,
                seed=3,
            ))
        return out

    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    fig = FigureResult("Ablation warmup", "Squall-style cache warm-up on/off")
    cold_miss = {}
    for warmup, result in results.items():
        nodes = result.cluster.nodes
        new_nodes = [nodes[n] for n in range(4, 8)]
        misses = sum(n.cache.misses for n in new_nodes)
        cold_miss[warmup] = misses
        fig.add_row(
            warmup=warmup,
            migration_duration_s=result.migration_duration,
            new_node_cache_misses=misses,
            p99_latency_s=result.metrics.latency_stats()["p99"],
        )
    fig.findings["cold_miss_inflation"] = (
        cold_miss[False] / cold_miss[True] if cold_miss[True] else float("inf")
    )
    emit(fig, benchmark)
    # Without warm-up the new nodes fetch pages from storage on demand.
    assert cold_miss[False] > cold_miss[True]
    # Warm-up is the dominant per-migration cost: disabling it shortens the
    # reconfiguration window.
    assert results[False].migration_duration < results[True].migration_duration


def test_ablation_group_commit(benchmark):
    def run_pair():
        out = {}
        for batch in (1, 64):
            params = replace(EXP_NODE_PARAMS, group_commit_batch=batch)
            out[batch] = run_spec(scale_out_spec(
                "marlin",
                initial_nodes=4,
                added_nodes=0,
                clients=48,
                granules=1600,
                scale_at=1.0,
                tail=8.0,
                node_params=params,
                seed=3,
            ))
        return out

    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    fig = FigureResult("Ablation group-commit", "Group commit batch 1 vs 64")
    appends = {}
    for batch, result in results.items():
        storage = result.cluster.storages["us-west"]
        appends[batch] = storage.appends_served
        fig.add_row(
            batch=batch,
            committed=result.metrics.total_committed,
            storage_appends=storage.appends_served,
            txns_per_append=(
                result.metrics.total_committed / storage.appends_served
            ),
            p50_latency_s=result.metrics.latency_stats()["p50"],
        )
    fig.findings["append_amplification_without_batching"] = (
        appends[1] / appends[64]
    )
    emit(fig, benchmark)
    # Batching amortizes storage appends across transactions.
    assert appends[1] > appends[64]


def test_ablation_migration_workers(benchmark):
    def run_sweep():
        out = {}
        for workers in (1, 2, 4, 8):
            params = replace(EXP_NODE_PARAMS, migration_workers=workers)
            out[workers] = run_spec(scale_out_spec(
                "marlin",
                initial_nodes=4,
                added_nodes=4,
                clients=8,
                granules=3200,
                scale_at=1.0,
                tail=2.0,
                node_params=params,
                seed=3,
            ))
        return out

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    fig = FigureResult(
        "Ablation migration-workers", "Destination-side migration concurrency"
    )
    tput = {}
    for workers, result in results.items():
        duration = result.migration_duration or 1e-9
        tput[workers] = result.metrics.total_migrations / duration
        fig.add_row(
            workers=workers,
            migrations=result.metrics.total_migrations,
            duration_s=result.migration_duration,
            migrations_per_s=tput[workers],
        )
    fig.findings["speedup_8x_workers"] = tput[8] / tput[1]
    emit(fig, benchmark)
    # Concurrency is the near-linear scalability lever (paper §6.1.4).
    assert tput[8] > 3 * tput[1]
