"""Run the kernel micro-bench suite and emit a machine-readable JSON report.

This is the perf trajectory anchor for the repo: each kernel-touching PR runs

    python benchmarks/run_all.py --quick          # tier-2 smoke, < 60 s
    python benchmarks/run_all.py --out BENCH_PRn.json

and commits the JSON so events/sec regressions are visible in review.
``--baseline`` defaults to the newest committed ``BENCH_PR*.json`` in the
repo root (highest PR number; pass a path to override, or ``--baseline
none`` to disable): the previous report (or a raw ``{bench: {...}}``
results dump) is embedded, per-bench speedups are computed on the
throughput metric, and a delta table is printed, so the trajectory
comparison is automatic rather than manual.  ``--assert-floor FRAC`` turns
the comparison into a gate: exit non-zero if any bench falls below
``FRAC`` x baseline — CI runs this in quick mode with a generous floor to
catch order-of-magnitude regressions (a bench that stopped exercising the
kernel, an accidental O(n) in the hot loop), not run-to-run noise.

Besides the kernel micro-benches the report carries a ``"tracer"`` section:
the RPC ping-pong with tracing off vs. on (overhead fraction, spans recorded,
and ``schedule_drift``, which must stay 0).  Everything above the kernel is
``e2ebench/``'s to time (``python3 e2ebench/bench_e2e.py``) and
``benchmarks/ab.py``'s to compare.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

if __package__ in (None, ""):  # running as a script: make repro importable
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.bench_kernel import (  # noqa: E402
    ALL_BENCHES,
    bench_tracer_overhead,
    run_bench,
)

#: The headline throughput metric per bench (used for speedup computation).
RATE_METRIC = {
    "raw_events": "events_per_sec",
    "timer_events": "events_per_sec",
    "process_churn": "events_per_sec",
    "futures_fanin": "events_per_sec",
    "rpc_roundtrip": "events_per_sec",
    "metrics_record": "ops_per_sec",
}

#: RPC round trips for the tracer on/off comparison (full / quick).  Its own
#: report section (not ``RATE_METRIC``): the headline is an overhead *ratio*
#: with no baseline entry in pre-tracing ``BENCH_PR*.json`` reports, so it
#: must not feed the ``--assert-floor`` gate.
TRACER_CALLS = (20_000, 2_000)


def _load_baseline(path: pathlib.Path) -> dict:
    data = json.loads(path.read_text())
    # Accept either a full report ({"results": {...}}) or a bare results dump.
    return data.get("results", data)


def _newest_committed_baseline() -> "pathlib.Path | None":
    """The repo-root ``BENCH_PR<n>.json`` with the highest PR number."""
    candidates = []
    for path in REPO_ROOT.glob("BENCH_PR*.json"):
        digits = "".join(c for c in path.stem if c.isdigit())
        if digits:
            candidates.append((int(digits), path))
    return max(candidates)[1] if candidates else None


def _print_delta_table(results: dict, baseline: dict, speedup: dict) -> None:
    print(f"\n{'bench':16s} {'baseline':>14s} {'current':>14s} {'speedup':>8s}")
    for name, metric in RATE_METRIC.items():
        before = baseline.get(name, {}).get(metric)
        now = results[name][metric]
        if before:
            print(f"{name:16s} {before:14,.0f} {now:14,.0f} "
                  f"{speedup[name]:7.2f}x")
        else:
            print(f"{name:16s} {'-':>14s} {now:14,.0f} {'-':>8s}")


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small bench sizes; finishes in a few seconds")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the JSON report here (default: stdout only)")
    parser.add_argument("--baseline", default=None,
                        help="previous report to compare against (default: the "
                             "newest BENCH_PR*.json in the repo root; pass "
                             "'none' to disable)")
    parser.add_argument("--assert-floor", type=float, default=None,
                        metavar="FRAC",
                        help="exit non-zero if any bench's rate falls below "
                             "FRAC x the baseline rate (regression gate)")
    args = parser.parse_args(argv)

    baseline = None
    baseline_path = None
    if args.baseline is None:
        baseline_path = _newest_committed_baseline()
    elif args.baseline.lower() != "none":
        baseline_path = pathlib.Path(args.baseline)
        if not baseline_path.is_file():  # validate before spending bench time
            parser.error(f"baseline not found: {baseline_path}")
    if baseline_path is not None:
        try:
            baseline = _load_baseline(baseline_path)
            print(f"baseline: {baseline_path}")
        except json.JSONDecodeError as exc:
            parser.error(f"baseline {baseline_path} is not valid JSON: {exc}")
    if args.assert_floor is not None and baseline is None:
        parser.error("--assert-floor needs a baseline report to compare against")

    results = {}
    for name in ALL_BENCHES:
        results[name] = run_bench(name, quick=args.quick)
        rate = results[name][RATE_METRIC[name]]
        print(f"{name:16s} {RATE_METRIC[name]}={rate:,.0f}", flush=True)

    report = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "quick": args.quick,
        },
        "results": results,
    }
    report["tracer"] = tracer = bench_tracer_overhead(
        TRACER_CALLS[1] if args.quick else TRACER_CALLS[0]
    )
    print(
        f"{'tracer_overhead':16s} calls={tracer['calls']:,} "
        f"off={tracer['off_calls_per_sec']:,.0f}/s "
        f"on={tracer['on_calls_per_sec']:,.0f}/s "
        f"(overhead={tracer['overhead_frac']:+.1%}, "
        f"schedule_drift={tracer['schedule_drift']:.0f})",
        flush=True,
    )
    if baseline is not None:
        report["baseline"] = baseline
        speedup = {}
        for name, metric in RATE_METRIC.items():
            before = baseline.get(name, {}).get(metric)
            if before:
                speedup[name] = round(results[name][metric] / before, 3)
        report["speedup"] = speedup
        _print_delta_table(results, baseline, speedup)

    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    if args.assert_floor is not None:
        floor = args.assert_floor
        offenders = [
            f"{name}: {ratio:.2f}x < {floor}x"
            for name, ratio in report["speedup"].items()
            if ratio < floor
        ]
        # A bench with no baseline rate must fail the gate too — otherwise a
        # renamed bench (or metric) turns the CI gate into a silent no-op.
        offenders += [
            f"{name}: no baseline rate to compare against"
            for name in RATE_METRIC
            if name not in report["speedup"]
        ]
        if offenders:
            print(f"FLOOR VIOLATED (vs {baseline_path}): "
                  + "; ".join(offenders))
            sys.exit(1)
        print(f"floor ok: all benches >= {floor}x of {baseline_path}")
    return report


if __name__ == "__main__":
    main()
