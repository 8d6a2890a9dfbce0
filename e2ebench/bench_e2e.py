"""The repo benchmark: four cell-set workloads, two clocks, a per-layer ledger.

    python3 e2ebench/bench_e2e.py                      # everything, ~4 min
    python3 e2ebench/bench_e2e.py --workload tpcc_2pc --no-ledger
    python3 e2ebench/bench_e2e.py --check-repeat

Prints every metric of ``BENCHMARK.json`` by name with its unit, runs the
output checks, and exits non-zero if one fails.  Each workload runs in fresh
child processes (``e2e_worker.py``): untraced timed passes for the end-to-end
metrics, then a separate profiled *ledger* pass for the per-layer ones.  The
last line printed for a workload is its result as one JSON object.  README.md
has the workloads, the metric glossary and how the metrics interact.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5
#: Everything else in the end-to-end block is on the simulated clock.
HOST_METRICS = {"setup_s", "cell_wall_s", "sim_txn_per_wall_s", "peak_rss_mb"}


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child(mode: str, name: str, seed: int, seconds: float, tmp: str) -> Optional[dict]:
    """Run one worker; its report, or None for the report-less ``setup`` mode.

    ``PYTHONHASHSEED=0`` because the fdb backend iterates ``hash()``-ordered
    sets: without it the same seeded fdb cell reconfigures in 1.86 / 1.92 /
    2.07 s across interpreter invocations and ``sim_digest`` is not exact.
    """
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "e2e_worker.py"),
         mode, name, str(seed), str(seconds), tmp],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if mode == "setup" and proc.returncode == 0:
        return None
    if not lines:
        raise SystemExit(f"{name}: {mode} worker exited {proc.returncode} without a report")
    return json.loads(lines[-1])


def stat(values: List[float], pick=statistics.median) -> Dict[str, float]:
    """The reported value (``pick`` of the samples) with the median, quartiles
    and sample count printed beside it."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": pick(values), "median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(name: str, seed: int, seconds: float, trace: Optional[int], tmp: str) -> dict:
    """One workload: end-to-end metrics unless ``trace == 1``, the ledger
    unless ``trace == 0``."""
    report: Dict[str, Any] = {
        "workload": name, "seed": seed, "attempted": 0, "failures": [],
        "end_to_end": {}, "per_layer": {},
    }

    def absorb(worker: dict) -> None:
        report["attempted"] += worker["attempted"]
        report["failures"] += worker["failures"]
        report["sim_digest"] = worker.get("sim_digest")

    if trace != 1:
        setups = []
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            child("setup", name, seed, seconds, tmp)
            setups.append(time.perf_counter() - t0)
        worker = child("e2e", name, seed, seconds, tmp)
        absorb(worker)
        if "cell_wall_s" in worker:
            walls = worker["cell_wall_s"]
            report["end_to_end"] = {
                "setup_s": stat(setups),
                # Best pass, not the median: interference on a shared box only
                # ever adds time, and it comes in bursts longer than a pass.
                "cell_wall_s": stat(walls, min),
                "sim_txn_per_wall_s": stat([worker["txns"] / w for w in walls], max),
                "peak_rss_mb": stat([worker["peak_rss_mb"]]),
                **{k: stat([v]) for k, v in worker["sim"].items()},
            }
            report["per_layer"] = {
                "experiments.runner.cpu_s": statistics.median(
                    worker["experiments.runner.cpu_s"]
                ),
                "experiments.runner.warmup_pass_s": worker[
                    "experiments.runner.warmup_pass_s"
                ],
            }
    if trace != 0:
        worker = child("ledger", name, seed, seconds, tmp)
        absorb(worker)
        report["per_layer"] = worker.get("metrics", {})
        report["stage_calls"] = worker.get("stage_calls", {})
    return report


def result_line(report: dict, bench: dict, trace: Optional[int]) -> str:
    """The workload's result in the driver's shape: the declared metrics of
    the sections that were measured, with their declared units."""
    metrics = {}
    if not report["failures"]:
        if trace != 1:
            for m in bench["end_to_end"]:
                value = report["end_to_end"][m["name"]]["value"]
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if trace != 0:
            for m in bench["per_layer"]:
                value = report["per_layer"][m["name"]]
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": metrics,
    })


def print_report(report: dict, bench: dict) -> None:
    print(f"\n== {report['workload']}  seed={report['seed']}  "
          f"cells_attempted={report['attempted']}  failed={len(report['failures'])}")
    for failure in report["failures"]:
        print(f"FAILED CHECK: {failure}")
    declared = {m["name"]: m for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, s in report["end_to_end"].items():
        m = declared.get(name)
        clock = "host" if name in HOST_METRICS else "sim"
        gate = f"{m['better']} is better, bound {m['bound']:.0%}" if m else "not gated"
        unit = m["unit"] if m else units[name]
        print(f"  {name:28s} {s['value']:14.6g} {unit:6s} [median {s['median']:.6g}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}]  {clock}, {gate}")
    if report.get("sim_digest"):
        print(f"  {'sim_digest':28s} {report['sim_digest']}")
    layers = report["per_layer"]
    profiled = layers.get("trace.profiled_wall_s")
    if profiled:
        rows = {k: v for k, v in layers.items() if k.endswith(".self_s")}
        print(f"  -- host self-time by layer (profiled pass, {profiled:.3f} s wall; "
              f"rows sum to {sum(rows.values()) / profiled:.1%} of it)")
        for name, value in sorted(rows.items(), key=lambda kv: -kv[1]):
            print(f"  {name:44s} {value:12.6g} s      {value / profiled:6.1%}")
        print("  -- boundaries, counts, ratios, layers driven alone")
    for name, value in layers.items():
        if not name.endswith(".self_s"):
            calls = report.get("stage_calls", {}).get(name)
            note = f"  ({calls} calls)" if calls is not None else ""
            print(f"  {name:44s} {value:12.6g} {units.get(name, '')}{note}")


def check_repeat(first: List[dict], second: List[dict], bench: dict) -> int:
    """Two sets of runs of the same code must agree: host medians within the
    metric's bound, simulated metrics and ``sim_digest`` exactly."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = 0
    print(f"\n{'workload':14s} {'metric':28s} {'first':>12s} {'second':>12s} {'diff':>8s}  verdict")
    for a, b in zip(first, second):
        if a["failures"] or b["failures"]:
            print(f"{a['workload']:14s} not compared: output checks failed")
            continue
        rows = [(k, a["end_to_end"][k], b["end_to_end"][k]) for k in a["end_to_end"]]
        for name, x, y in rows:
            diff = abs(y["value"] - x["value"]) / abs(x["value"]) if x["value"] else 0.0
            if name not in HOST_METRICS:
                verdict = "ok" if x["value"] == y["value"] else "FAIL (not exact)"
            elif diff <= bounds[name]:
                verdict = "ok"
            elif max((s["q3"] - s["q1"]) / s["median"] for s in (x, y)) > bounds[name]:
                verdict = "unresolved"
            else:
                verdict = "FAIL"
            bad += verdict.startswith("FAIL")
            print(f"{a['workload']:14s} {name:28s} {x['value']:12.6g} "
                  f"{y['value']:12.6g} {diff:8.2%}  {verdict}")
        same = a["sim_digest"] == b["sim_digest"]
        bad += not same
        print(f"{a['workload']:14s} {'sim_digest':28s} {a['sim_digest'][:12]:>12s} "
              f"{b['sim_digest'][:12]:>12s} {'':8s}  {'ok' if same else 'FAIL (not exact)'}")
    return bad


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="ScenarioSpec.seed of every cell")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="timed passes go on until they add up to this (at least two)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: the per-layer ledger only")
    parser.add_argument("--no-ledger", dest="trace", action="store_const", const=0,
                        help="same as --trace 0")
    parser.add_argument("--ledger-only", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the end-to-end set twice and compare the two")
    parser.add_argument("--json", metavar="OUT", help="also write the full report here")
    args = parser.parse_args(argv)
    trace = 0 if args.check_repeat else args.trace

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    sets: List[List[dict]] = []
    try:
        for _ in range(2 if args.check_repeat else 1):
            sets.append([])
            for name in args.workload or names:
                report = measure(name, args.seed, args.seconds, trace, tmp)
                print_report(report, bench)
                print(result_line(report, bench, trace), flush=True)
                sets[-1].append(report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run is using it
            pass
    disagreements = check_repeat(*sets, bench) if args.check_repeat else 0
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"claim": None, "seconds": args.seconds, "runs": sets}, f, indent=1)
    failed = sum(len(r["failures"]) for runs in sets for r in runs)
    return 1 if failed or disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
