"""Each layer driven alone: the kernel micro-benches of
``benchmarks/bench_kernel.py`` plus timed loops over the substrate hot paths
that ``benchmarks/bench_micro_storage.py`` exercises under pytest-benchmark.
Small sizes, median of three: these rows say what a layer can do with nothing
above it, not how a cell spends its time.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict

from benchmarks.bench_kernel import ALL_BENCHES, SIZES, bench_tracer_overhead
from repro.engine.buffer import CacheManager
from repro.engine.locks import LockTable
from repro.experiments import detector_sweep
from repro.experiments.cache import ResultCache
from repro.storage.log import Put, RecordKind, SharedLog
from repro.workload.distributions import Zipfian

REPEATS = 3
LOOP_OPS = 50_000

#: metric -> (bench_kernel bench, the rate it reports)
KERNEL_RATES = {
    "sim.core.raw_events_per_s": ("raw_events", "events_per_sec"),
    "sim.core.timer_events_per_s": ("timer_events", "events_per_sec"),
    "sim.core.process_churn_events_per_s": ("process_churn", "events_per_sec"),
    "sim.core.futures_fanin_events_per_s": ("futures_fanin", "events_per_sec"),
    "sim.rpc.roundtrip_calls_per_s": ("rpc_roundtrip", "calls_per_sec"),
    "cluster.metrics.record_ops_per_s": ("metrics_record", "ops_per_sec"),
}


def _log_append() -> Callable[[], None]:
    log = SharedLog("bench")
    return lambda: log.append("txn", RecordKind.COMMIT_DATA, (Put("t", 1, "v"),))


def _lock_cycle() -> Callable[[], None]:
    locks = LockTable()

    def cycle() -> None:
        locks.acquire("t", ("tab", 1), True)
        locks.release_all("t")

    return cycle


def _buffer_hit() -> Callable[[], None]:
    cache = CacheManager(1024)
    for i in range(1024):
        cache.put(i, i)
    return lambda: cache.get(512)


def _zipfian() -> Callable[[], None]:
    dist, rng = Zipfian(100_000, theta=0.99), random.Random(7)
    return lambda: dist.sample(rng)


LOOP_RATES = {
    "storage.log.append_ops_per_s": _log_append,
    "engine.locks.acquire_release_ops_per_s": _lock_cycle,
    "engine.buffer.hit_ops_per_s": _buffer_hit,
    "workload.distributions.zipfian_samples_per_s": _zipfian,
}


def _loop_rate(make_op: Callable[[], Callable[[], None]]) -> float:
    op = make_op()
    t0 = time.perf_counter()
    for _ in range(LOOP_OPS):
        op()
    return LOOP_OPS / (time.perf_counter() - t0)


def _spec_expand_ms(cache: ResultCache) -> float:
    """Sweep expand + ``to_dict`` + cache key over the 18 detector cells."""
    t0 = time.perf_counter()
    for _point, spec in detector_sweep.build_sweep(scale=0.5).expand():
        cache.key(spec)
    return (time.perf_counter() - t0) * 1e3


def layers_alone(cache: ResultCache) -> Dict[str, float]:
    def median(sample: Callable[[], float]) -> float:
        return statistics.median(sample() for _ in range(REPEATS))

    out = {
        metric: median(lambda: ALL_BENCHES[bench](SIZES[bench][1])[rate])
        for metric, (bench, rate) in KERNEL_RATES.items()
    }
    calls = SIZES["rpc_roundtrip"][1]
    out["obs.tracer.overhead_frac"] = median(
        lambda: bench_tracer_overhead(calls)["overhead_frac"]
    )
    for metric, make_op in LOOP_RATES.items():
        out[metric] = median(lambda: _loop_rate(make_op))
    out["experiments.spec.expand_ms"] = median(lambda: _spec_expand_ms(cache))
    return out
