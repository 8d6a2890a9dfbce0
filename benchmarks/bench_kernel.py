"""Micro-benchmarks of the simulation kernel's hot paths.

Unlike the repo benchmark (``e2ebench/``, which wall-times whole experiment
cells), these measure the raw mechanics every cell is built on: events/sec
through the scheduler, process spawn/finish churn, future fan-in, RPC round
trips, and the metrics recording hooks (with an allocation-per-op counter, so
a regression that reintroduces per-record list/object churn fails loudly).

``python benchmarks/bench_kernel.py [--quick]`` prints one line per bench;
``benchmarks/run_all.py`` wraps this, emits JSON and gates against the newest
``BENCH_PR<n>.json``; ``e2ebench/e2e_micro.py`` reports the same rates as
per-layer metrics.  ``tests/test_benchmarks_collect.py`` runs the quick suite,
so the file and the kernel APIs it exercises cannot drift apart unnoticed.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Callable, Dict

from repro.cluster.metrics import MetricsCollector
from repro.sim.core import Simulator, Timeout, all_of
from repro.sim.network import LatencyModel, Network
from repro.sim.rpc import RpcEndpoint

__all__ = ["ALL_BENCHES", "SIZES", "bench_tracer_overhead", "run_bench"]

#: Default event counts per bench (full mode / quick mode).
SIZES = {
    "raw_events": (1_000_000, 100_000),
    "timer_events": (500_000, 50_000),
    "process_churn": (60_000, 6_000),
    "futures_fanin": (2_000, 200),
    "rpc_roundtrip": (20_000, 2_000),
    "metrics_record": (1_000_000, 100_000),
}


class _Token:
    """A ``timer_token`` cancellation token that is never cancelled."""

    cancelled = False


def bench_raw_events(n: int) -> Dict[str, float]:
    """Same-time callback chains: the zero-delay ``timer`` (ready queue) path."""
    sim = Simulator(seed=1)
    remaining = [n]

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.timer(0.0, tick)

    for _ in range(64):
        sim.timer(0.0, tick)
    t0 = time.perf_counter()
    sim.run()
    dt = time.perf_counter() - t0
    return {"events": sim.events_executed, "wall_s": dt,
            "events_per_sec": sim.events_executed / dt}


def bench_timer_events(n: int) -> Dict[str, float]:
    """True timers at distinct times: the cancellable-heap path."""
    sim = Simulator(seed=2)
    rng = sim.rng
    remaining = [n]
    token = _Token()

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.timer_token(1e-6 + rng.random() * 1e-4, token, tick)

    for _ in range(64):
        sim.timer_token(rng.random() * 1e-4, token, tick)
    t0 = time.perf_counter()
    sim.run()
    dt = time.perf_counter() - t0
    return {"events": sim.events_executed, "wall_s": dt,
            "events_per_sec": sim.events_executed / dt}


def bench_process_churn(n: int) -> Dict[str, float]:
    """Spawn/step/finish cycles: generator dispatch plus future resolution."""
    sim = Simulator(seed=3)

    def child():
        yield None
        yield Timeout(1e-6)
        return 1

    def parent(count):
        total = 0
        for _ in range(count):
            total += yield sim.spawn(child())
        return total

    per_parent = n // 8
    for i in range(8):
        sim.spawn(parent(per_parent), name=f"parent-{i}")
    t0 = time.perf_counter()
    sim.run()
    dt = time.perf_counter() - t0
    return {"events": sim.events_executed, "processes": per_parent * 8,
            "wall_s": dt, "events_per_sec": sim.events_executed / dt,
            "processes_per_sec": per_parent * 8 / dt}


def bench_futures_fanin(rounds: int, fan: int = 100) -> Dict[str, float]:
    """``all_of`` over wide fan-in: callback flush through the ready queue."""
    sim = Simulator(seed=4)

    def one_round():
        futs = [sim.event() for _ in range(fan)]
        for i, fut in enumerate(futs):
            sim.timer(0.0, fut.resolve, i)
        values = yield all_of(sim, futs)
        return len(values)

    def driver():
        for _ in range(rounds):
            yield sim.spawn(one_round())

    sim.spawn(driver(), name="fanin-driver")
    t0 = time.perf_counter()
    sim.run()
    dt = time.perf_counter() - t0
    return {"events": sim.events_executed, "rounds": rounds, "fan": fan,
            "wall_s": dt, "events_per_sec": sim.events_executed / dt}


def bench_rpc_roundtrip(n: int) -> Dict[str, float]:
    """Intra-region RPC ping-pong with timeouts armed (and cancelled)."""
    sim = Simulator(seed=5)
    network = Network(sim, LatencyModel(jitter_frac=0.0))
    server = RpcEndpoint(sim, network, "server", "us-west")
    client = RpcEndpoint(sim, network, "client", "us-west")
    server.register("ping", lambda x: x + 1)

    def driver():
        total = 0
        for i in range(n):
            total += yield client.call("server", "ping", i, timeout=1.0)
        return total

    sim.spawn(driver(), name="rpc-driver")
    t0 = time.perf_counter()
    sim.run()
    dt = time.perf_counter() - t0
    return {"events": sim.events_executed, "calls": n, "wall_s": dt,
            "events_per_sec": sim.events_executed / dt,
            "calls_per_sec": n / dt}


def bench_metrics_record(n: int) -> Dict[str, float]:
    """``record_commit``/``record_abort`` throughput and allocation per op.

    ``bytes_per_op`` is the tracemalloc-measured net heap growth per record
    call.  The streaming ``array``-backed collector stays under ~24 B/op
    (two packed doubles plus amortised growth); a per-bucket list of boxed
    floats sits well above it, so this doubles as the hot-path regression
    guard for the "no list-append / no numpy in record_*" criterion.
    """
    collector = MetricsCollector(bucket=1.0)
    t0 = time.perf_counter()
    t = 0.0
    for i in range(n):
        t += 1e-5
        collector.record_commit(t, t * 0.5)  # distinct float per call
        if i % 4 == 0:
            collector.record_abort(t, "lock_timeout")
    dt = time.perf_counter() - t0
    ops = n + n // 4 + (1 if n % 4 else 0)

    # Separate, smaller pass under tracemalloc for the allocation counter.
    alloc_n = min(n, 50_000)
    fresh = MetricsCollector(bucket=1.0)
    fresh.record_commit(0.0, 0.001)  # touch lazy structures once
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    t = 0.0
    for _ in range(alloc_n):
        t += 1e-5
        fresh.record_commit(t, t * 0.5)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    bytes_per_op = (after - before) / alloc_n
    return {"ops": ops, "wall_s": dt, "ops_per_sec": ops / dt,
            "bytes_per_op": bytes_per_op}


def bench_tracer_overhead(n: int) -> Dict[str, float]:
    """RPC ping-pong with tracing off vs. on: what span recording costs.

    The *off* leg pays only the ``if tracer is not None`` guards — the
    always-on cost every run carries, which the ``rpc_roundtrip`` bench
    (and its ``--assert-floor`` gate against the committed baselines)
    keeps honest.  The *on* leg records two spans plus a counter bump per
    call.  Both legs execute the same seeded schedule; ``schedule_drift``
    must stay 0 — tracing is purely observational, never perturbing the
    event stream.

    Reported separately from ``ALL_BENCHES``: there is no baseline entry
    for it in older ``BENCH_PR*.json`` reports, and its headline number is
    a ratio (overhead fraction), not a rate.
    """
    from repro.obs import Tracer

    def leg(traced: bool):
        sim = Simulator(seed=5)
        network = Network(sim, LatencyModel(jitter_frac=0.0))
        tracer = Tracer(sim) if traced else None
        if tracer is not None:
            network.tracer = tracer
        server = RpcEndpoint(sim, network, "server", "us-west")
        client = RpcEndpoint(sim, network, "client", "us-west")
        server.register("ping", lambda x: x + 1)

        def driver():
            total = 0
            for i in range(n):
                total += yield client.call("server", "ping", i, timeout=1.0)
            return total

        sim.spawn(driver(), name="rpc-driver")
        t0 = time.perf_counter()
        sim.run()
        return sim.events_executed, time.perf_counter() - t0, tracer

    events_off, off_s, _ = leg(False)
    events_on, on_s, tracer = leg(True)
    spans = sum(1 for ev in tracer.events if ev[0] == "B")
    return {
        "calls": n,
        "off_calls_per_sec": n / off_s,
        "on_calls_per_sec": n / on_s,
        "overhead_frac": on_s / off_s - 1.0,
        "spans_recorded": spans,
        "schedule_drift": abs(events_on - events_off),
    }


ALL_BENCHES: Dict[str, Callable[[int], Dict[str, float]]] = {
    "raw_events": bench_raw_events,
    "timer_events": bench_timer_events,
    "process_churn": bench_process_churn,
    "futures_fanin": bench_futures_fanin,
    "rpc_roundtrip": bench_rpc_roundtrip,
    "metrics_record": bench_metrics_record,
}


def run_bench(name: str, quick: bool = False) -> Dict[str, float]:
    full, small = SIZES[name]
    return ALL_BENCHES[name](small if quick else full)


def main(argv=None) -> Dict[str, Dict[str, float]]:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes (finishes in a few seconds)")
    parser.add_argument("bench", nargs="*", metavar="BENCH",
                        help="subset of benches to run (default: all of "
                             f"{', '.join(ALL_BENCHES)})")
    args = parser.parse_args(argv)
    unknown = [b for b in args.bench if b not in ALL_BENCHES]
    if unknown:
        parser.error(
            f"unknown bench(es): {', '.join(unknown)} "
            f"(choose from {', '.join(ALL_BENCHES)})"
        )
    names = args.bench or list(ALL_BENCHES)
    results = {}
    for name in names:
        results[name] = run_bench(name, quick=args.quick)
        line = ", ".join(
            f"{k}={v:,.0f}" if v >= 100 else f"{k}={v:.4g}"
            for k, v in results[name].items()
        )
        print(f"{name:16s} {line}")
    return results


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
