"""Child process of ``bench_e2e.py``: one workload, one mode, one JSON line out.

    python3 e2e_worker.py {setup|e2e|ledger} WORKLOAD SEED SECONDS TMPDIR

Run by the parent with ``PYTHONHASHSEED=0``; every mode starts with the same
set-up (path, ``import repro.experiments``, the workload's specs, a scratch
directory), and ``setup`` stops there so the parent can time it.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# src for repro, the root for benchmarks.bench_kernel (see e2e_micro).
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

# Importing the workloads imports repro.experiments, which registers the
# phase actions the specs name.
from e2e_workloads import (  # noqa: E402
    WORKLOADS,
    cell_record,
    committed_txns,
    sim_digest,
    sim_metrics,
)
from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.parallel import ProcessPoolRunner, run_cells  # noqa: E402

MIN_PASSES = 2
WARM_PASSES = 20


class Run:
    def __init__(self, name: str, seed: int, tmp: str):
        self.workload = WORKLOADS[name]
        self.cells = self.workload.build(seed)
        self.tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=tmp)
        self.attempted = 0
        self.failures: list = []

    def fresh_cache(self):
        return ResultCache(tempfile.mkdtemp(dir=self.tmp))

    def run_pass(self, cells, on_cluster=None):
        """Every cell once, serially, the way ``Sweep.run`` does; keeps one
        small record per cell and lets the cluster go before the next one."""
        cache = self.fresh_cache() if self.workload.cached else None
        records = []
        for spec in cells:
            self.attempted += 1
            result = run_cells([spec], cache=cache)[0]
            if on_cluster is not None:
                on_cluster(result.cluster)
            records.append(cell_record(result))
        return records, cache

    def timed_pass(self, on_cluster=None, meter=contextlib.nullcontext()):
        # A pass timed while the previous pass's garbage is still around
        # drifts: the same ycsb_steady cell went 1.72 -> 2.98 s over 8 passes.
        gc.collect()
        with meter:
            cpu0, t0 = time.process_time(), time.perf_counter()
            records, cache = self.run_pass(self.cells, on_cluster)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        self.failures += self.workload.check(records)
        return records, cache, wall, cpu

    def warmup(self) -> float:
        t0 = time.perf_counter()
        self.run_pass([self.cells[i] for i in self.workload.warmup])
        return time.perf_counter() - t0

    def same_as(self, records, results, what: str) -> None:
        """Output check: ``results`` summarise exactly as the cold pass did."""
        for record, result in zip(records, results):
            if not result.ok:
                self.failures.append(f"{what}: {result}")
            elif result.summary() != record["summary"]:
                self.failures.append(
                    f"{what}: {record['summary']['name']} differs from the cold pass"
                )

    def warm_pass(self, records, cache) -> float:
        misses = cache.misses
        t0 = time.perf_counter()
        results = run_cells(self.cells, cache=cache)
        wall = time.perf_counter() - t0
        self.same_as(records, results, "warm cache")
        if cache.misses != misses:
            self.failures.append(f"warm cache: {cache.misses - misses} misses")
        return wall

    # -- modes ---------------------------------------------------------------

    def e2e(self, seconds: float) -> dict:
        warmup_s = self.warmup()
        walls, cpus, first, digest = [], [], None, None
        while len(walls) < MIN_PASSES or sum(walls) < seconds:
            records, cache, wall, cpu = self.timed_pass()
            walls.append(wall)
            cpus.append(cpu)
            if first is None:
                first, digest = records, sim_digest(records)
            elif sim_digest(records) != digest:
                self.failures.append("sim_digest differs between passes of one seed")
        if cache is not None:
            self.warm_pass(records, cache)
        return {
            "cell_wall_s": walls,
            "txns": committed_txns(first),
            "sim": sim_metrics(self.workload.name, first),
            "sim_digest": digest,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "experiments.runner.cpu_s": cpus,
            "experiments.runner.warmup_pass_s": warmup_s,
        }

    def ledger(self) -> dict:
        # Imported here so that set-up stays what a user running cells pays.
        import e2e_ledger
        from e2e_micro import layers_alone

        out = {"experiments.runner.warmup_pass_s": self.warmup()}
        counts: Counter = Counter()
        collector = e2e_ledger.GcMeter()
        records, cache, wall, cpu = self.timed_pass(
            lambda cluster: counts.update(e2e_ledger.cluster_counts(cluster)),
            collector,
        )
        out["experiments.runner.cpu_s"] = cpu
        out["host.gc.pause_s"] = collector.pause_s
        out["host.gc.collections"] = collector.collections
        out.update(counts)
        out.update(e2e_ledger.waste_ratios(counts, committed_txns(records)))
        out["sim.core.events_per_s"] = counts["sim.core.events_executed"] / wall
        sim = sim_metrics(self.workload.name, records)
        for name in (
            "sim_abort_ratio", "sim_reconfig_duration_s",
            "sim_reconfig_speedup_vs_zk", "sim_rto_s",
        ):
            out[name] = sim[name]

        warm_ms = overhead_s = 0.0
        if cache is not None:
            warm = [self.warm_pass(records, cache) for _ in range(WARM_PASSES)]
            warm_ms = statistics.median(warm) / len(self.cells) * 1e3
            t0 = time.perf_counter()
            pooled = ProcessPoolRunner(workers=1).run(self.cells, cache=self.fresh_cache())
            overhead_s = (time.perf_counter() - t0 - wall) / len(self.cells)
            self.attempted += len(self.cells)
            self.same_as(records, pooled, "1-worker pool")
        out["experiments.cache.warm_ms_per_cell"] = warm_ms
        out["experiments.parallel.overhead_s_per_cell"] = overhead_s
        out["experiments.cache.hits"] = cache.hits if cache else 0
        out["experiments.cache.misses"] = cache.misses if cache else 0

        gc.collect()
        digest = sim_digest(records)
        (profiled, _cache), profiled_wall, self_s, stage_s, stage_calls = (
            e2e_ledger.profile_pass(lambda: self.run_pass(self.cells))
        )
        if sim_digest(profiled) != digest:
            self.failures.append("sim_digest differs under the profiler")
        out["trace.profiled_wall_s"] = profiled_wall
        out["trace.overhead_x"] = profiled_wall / wall
        out.update({f"{layer}.self_s": s for layer, s in self_s.items()})
        out.update(stage_s)
        out.update(layers_alone(self.fresh_cache()))
        return {"metrics": out, "stage_calls": stage_calls, "sim_digest": digest}


def main(argv) -> int:
    mode, name, seed, seconds, tmp = argv
    run = Run(name, int(seed), tmp)
    if mode == "setup":
        return 0
    report = {}
    try:
        report = run.e2e(float(seconds)) if mode == "e2e" else run.ledger()
    except Exception:
        run.failures.append(traceback.format_exc())
    report.update(attempted=run.attempted, failures=run.failures)
    print(json.dumps(report))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
