"""Interleaved A/B of the repo benchmark: a base commit against this checkout.

    python benchmarks/ab.py <base> [--pairs 10] [--seed 101] [--seconds S]
        [--workload W]... [--claim METRIC@WORKLOAD]...
        [--gate digest,rss,counts,trace]

``<base>`` is a git ref (checked out with ``git worktree add`` into a temp
directory that is removed afterwards) or the path of an existing checkout.
Pair *i* runs ``python3 e2ebench/bench_e2e.py --no-ledger --seed <seed+i>``
once per side, each side from its own tree with its own, unmodified copy of
the benchmark; even pairs run the base first, odd pairs the change, so drift
on a shared box lands on both sides.  Per workload and end-to-end metric it
prints both medians with quartiles, the ratio, the wins and every run, then
the same as a Markdown table for CHANGES.md.

Verdicts follow the choosing-metrics rule the driver applies.  A *claimed*
metric is met when the change wins at least nine tenths of the pairs (ties
count for neither side) and the medians differ by more than the base's own
inter-quartile spread.  Every other metric is held to its ``BENCHMARK.json``
bound: ``REGRESSION`` when the change's median is worse by more than that,
``unresolved`` when the run-to-run spread exceeds the bound.

Exit status 1 if a claim is not met, a workload's ``failed`` grew, or a gate
named in ``--gate`` tripped (default ``digest,bounds``; CI's one-pair run
uses ``digest,rss,counts,trace`` — timing from one short pair on a shared
runner is not a verdict):

* ``digest`` — ``sim_digest`` equal in every pair, unless the two trees'
  ``goldens.cache_epoch()`` differ (a declared behaviour change);
* ``bounds`` — no unclaimed metric is a ``REGRESSION``;
* ``rss`` — ``peak_rss_mb`` median at most the base's x 1.10 per workload;
* ``counts`` — one extra ``--ledger-only --seconds 1`` run per side; the
  exact work counts in :data:`PINNED_COUNTS` must be equal (same epoch
  exemption), so an "optimisation" that skips a lock or a probe fails here;
* ``trace`` — each side runs fig7's ``crash_restart`` cell (scale 0.25) for
  every system in :data:`TRACED_SYSTEMS` through ``python -m
  repro.experiments run <cell.json> --trace <out> --json`` under
  ``PYTHONHASHSEED=0``; the trace files and the run JSON must be
  byte-equal (same epoch exemption) — CI's ``trace-smoke`` only compares
  two runs of the *same* tree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATES = ("digest", "bounds", "rss", "counts", "trace")
RSS_GATE = 1.10
#: Work counts a refactor or optimisation promises not to move.
PINNED_COUNTS = (
    "engine.locks.acquisitions",
    "engine.locks.conflicts",
    "engine.buffer.hits",
    "engine.buffer.misses",
    "cluster.metrics.committed",
    "cluster.metrics.aborted",
)
#: fig7 crash_restart cells the ``trace`` gate compares byte for byte: the
#: vote-gated ring and the lease detector (the two failover handlers' spans).
TRACED_SYSTEMS = ("marlin", "lease")
_WRITE_CELL = (
    "import json, sys; from repro.experiments import fig7; "
    "spec = fig7.slo_spec(sys.argv[1], 'crash_restart', scale=0.25); "
    "json.dump(spec.to_dict(), open(sys.argv[2], 'w'))"
)


# -- verdict arithmetic (pure; tests/test_benchmarks_ab.py) ---------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(
    base: Sequence[float],
    head: Sequence[float],
    better: str,
    bound: float,
    claimed: bool = False,
) -> dict:
    """Verdict for one metric on one workload from paired runs.

    ``base[i]`` and ``head[i]`` are the two sides of pair *i*; ``better`` is
    ``"lower"`` or ``"higher"``; ``bound`` the fraction of the base median
    by which the change may be worse before it counts as a regression.
    """
    sign = -1.0 if better == "lower" else 1.0
    gains = [sign * (h - b) for b, h in zip(base, head)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    b_q1, b_med, b_q3 = quartiles(base)
    h_q1, h_med, h_q3 = quartiles(head)
    gain = sign * (h_med - b_med)
    out = {
        "base": (b_q1, b_med, b_q3),
        "head": (h_q1, h_med, h_q3),
        "ratio": h_med / b_med if b_med else float("nan"),
        "wins": wins,
        "losses": losses,
        "pairs": len(gains),
    }
    if claimed:
        met = wins >= 0.9 * len(gains) and gain > b_q3 - b_q1
        out["verdict"] = "claim met" if met else "CLAIM NOT MET"
    elif not wins and not losses:
        out["verdict"] = "identical"
    else:
        spread = max(
            (q3 - q1) / abs(med) if med else 0.0
            for q1, med, q3 in (out["base"], out["head"])
        )
        if spread > bound:
            separated = min(sign * h for h in head) > max(sign * b for b in base)
            out["verdict"] = "ok" if separated else "unresolved"
        elif -gain <= bound * abs(b_med):
            out["verdict"] = "ok"
        else:
            out["verdict"] = "REGRESSION"
    return out


def exempt(gate: str, moved: int, same_epoch: bool) -> int:
    """Failures an identity gate contributes: everything that moved, unless
    the cache epoch rotated (a declared behaviour change)."""
    if moved and not same_epoch:
        print(f"  gate {gate}: exempt, the cache epoch rotated")
        return 0
    return moved


def moved_bytes(
    base: Dict[str, bytes], head: Dict[str, bytes], same_epoch: bool
) -> int:
    """The ``trace`` gate's verdict over both sides' ``{output: bytes}``."""
    print("\n== traced fig7 crash_restart cells (scale 0.25, PYTHONHASHSEED=0)")
    moved = 0
    for name, data in base.items():
        b, h = (hashlib.sha256(d).hexdigest()[:12] for d in (data, head[name]))
        print(f"  {name:18s} {len(data):>9d} B  {b} {h}"
              f"{'' if b == h else '  MOVED'}")
        moved += b != h
    return exempt("trace", moved, same_epoch)


# -- running the two sides -----------------------------------------------------


def bench(tree: str, args: List[str]) -> Dict[str, dict]:
    """One ``bench_e2e.py`` run from ``tree``; its reports by workload."""
    fd, out = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join("e2ebench", "bench_e2e.py"),
             *args, "--json", out],
            cwd=tree, stdout=subprocess.DEVNULL,
        )
        with open(out) as fh:
            runs = json.load(fh)["runs"]
    except (OSError, ValueError) as err:
        raise SystemExit(f"{tree}: bench_e2e.py {' '.join(args)} left no report ({err})")
    finally:
        os.unlink(out)
    if proc.returncode not in (0, 1):  # 1 = an output check failed: reported
        raise SystemExit(f"{tree}: bench_e2e.py exited {proc.returncode}")
    return {report["workload"]: report for report in runs[0]}


def traced_cells(tree: str, out: str) -> Dict[str, bytes]:
    """Run the :data:`TRACED_SYSTEMS` cells from ``tree``, each spec built by
    that tree's own fig7; ``{"<system> trace" | "<system> run JSON": bytes}``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
           "PYTHONHASHSEED": "0"}
    os.makedirs(out)
    outputs = {}
    for system in TRACED_SYSTEMS:
        cell, trace = (os.path.join(out, f"{system}.{kind}.json")
                       for kind in ("cell", "trace"))
        subprocess.run([sys.executable, "-c", _WRITE_CELL, system, cell],
                       cwd=tree, env=env, check=True)
        outputs[f"{system} run JSON"] = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "run", cell,
             "--trace", trace, "--json"],
            cwd=tree, env=env, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout
        with open(trace, "rb") as fh:
            outputs[f"{system} trace"] = fh.read()
    return outputs


def cache_epoch(tree: str) -> str:
    return subprocess.run(
        [sys.executable, "-c",
         "from repro.experiments.goldens import cache_epoch; print(cache_epoch())"],
        cwd=tree, env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")},
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip()


@contextlib.contextmanager
def checkout(base: str):
    """``base`` as a directory: itself if it is one, else a temporary
    ``git worktree`` of that ref."""
    if os.path.isdir(base):
        yield os.path.abspath(base)
        return
    tmp = tempfile.mkdtemp(prefix="ab-base-")
    tree = os.path.join(tmp, "base")
    try:
        subprocess.run(
            ["git", "worktree", "add", "--detach", tree, base],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        yield tree
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", tree],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        shutil.rmtree(tmp, ignore_errors=True)


# -- report ---------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def _spread(q: Tuple[float, float, float]) -> str:
    return f"{_fmt(q[1])} [{_fmt(q[0])} {_fmt(q[2])}]"


def report(
    pairs: List[Tuple[int, Dict[str, dict], Dict[str, dict]]],
    bench_def: dict,
    claims: Sequence[str],
    gates: Sequence[str],
    same_epoch: bool,
) -> int:
    """Print tables and verdicts for the measured pairs; count of failures."""
    failures = 0
    rows = []
    for workload in pairs[0][1]:
        print(f"\n== {workload}")
        for metric in bench_def["end_to_end"]:
            name = metric["name"]
            base, head = (
                [pair[side][workload]["end_to_end"][name]["value"] for pair in pairs]
                for side in (1, 2)
            )
            row = compare(
                base, head, metric["better"], metric["bound"],
                claimed=f"{name}@{workload}" in claims,
            )
            if (
                name == "peak_rss_mb" and "rss" in gates
                and row["head"][1] > row["base"][1] * RSS_GATE
            ):
                row["verdict"] = f"GATE rss: grew more than x{RSS_GATE}"
                failures += 1
            failures += row["verdict"] == "CLAIM NOT MET" or (
                row["verdict"] == "REGRESSION" and "bounds" in gates
            )
            rows.append((workload, name, row, base, head))
            print(f"  {name:24s} {_spread(row['base']):>26s} -> "
                  f"{_spread(row['head']):<26s} x{row['ratio']:.3f}  "
                  f"{row['wins']}/{row['pairs']} wins  {row['verdict']}")
            if row["verdict"] != "identical":
                print(f"    base   {' '.join(map(_fmt, base))}")
                print(f"    change {' '.join(map(_fmt, head))}")
        moved = [
            seed for seed, b, h in pairs
            if b[workload]["sim_digest"] != h[workload]["sim_digest"]
        ]
        grew = [
            seed for seed, b, h in pairs
            if len(h[workload]["failures"]) > len(b[workload]["failures"])
        ]
        print(f"  sim_digest equal in {len(pairs) - len(moved)}/{len(pairs)} pairs"
              + (f" (moved on seeds {moved})" if moved else "")
              + f"; failed grew in {len(grew)} pairs")
        if grew:
            failures += 1
        if moved and "digest" in gates:
            if same_epoch:
                print("  GATE digest: sim_digest moved but the cache epoch did not")
                failures += 1
            else:
                print("  gate digest: exempt, the cache epoch rotated")
    seeds = [seed for seed, _b, _h in pairs]
    print(f"\n{len(pairs)} interleaved pairs, seeds {seeds[0]}-{seeds[-1]}; "
          "median [q1 q3] base -> change\n")
    print("| workload | metric | base | change | ratio | wins | verdict |")
    print("|---|---|---|---|---|---|---|")
    for workload, name, row, _base, _head in rows:
        print(f"| `{workload}` | `{name}` | {_spread(row['base'])} | "
              f"{_spread(row['head'])} | x{row['ratio']:.3f} | "
              f"{row['wins']}/{row['pairs']} | {row['verdict']} |")
    return failures


def count_gate(base_tree: str, args: List[str], same_epoch: bool) -> int:
    """The ``counts`` gate: PINNED_COUNTS from one ledger run per side."""
    ledger = ["--ledger-only", "--seconds", "1", *args]
    base, head = bench(base_tree, ledger), bench(ROOT, ledger)
    moved = 0
    print("\n== exact ledger counts (--ledger-only)")
    for workload in base:
        for name in PINNED_COUNTS:
            b = base[workload]["per_layer"].get(name)
            h = head[workload]["per_layer"].get(name)
            print(f"  {workload:14s} {name:28s} {b!s:>12s} {h!s:>12s}"
                  f"{'' if b == h else '  MOVED'}")
            moved += b != h
    return exempt("counts", moved, same_epoch)


def trace_gate(base_tree: str, same_epoch: bool) -> int:
    """The ``trace`` gate: both sides' traced cells, compared byte for byte."""
    with tempfile.TemporaryDirectory(prefix="ab-trace-") as tmp:
        base = traced_cells(base_tree, os.path.join(tmp, "base"))
        head = traced_cells(ROOT, os.path.join(tmp, "head"))
    return moved_bytes(base, head, same_epoch)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench_def = json.load(fh)
    workloads = [w["name"] for w in bench_def["workloads"]]
    metrics = [m["name"] for m in bench_def["end_to_end"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git ref, or the path of an existing checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--seconds", type=float, default=None,
                        help="bench_e2e.py --seconds (default: the benchmark's own)")
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD", help="a claimed gain (repeatable)")
    parser.add_argument("--gate", default="digest,bounds",
                        help=f"comma-separated subset of {','.join(GATES)}")
    args = parser.parse_args(argv)
    gates = [g for g in args.gate.split(",") if g]
    for claim in args.claim:
        metric, _, workload = claim.partition("@")
        if metric not in metrics or workload not in workloads:
            parser.error(f"--claim {claim}: want METRIC@WORKLOAD from BENCHMARK.json")
    if set(gates) - set(GATES):
        parser.error(f"--gate: unknown {sorted(set(gates) - set(GATES))}")

    only = [arg for w in args.workload or () for arg in ("--workload", w)]
    seconds = [] if args.seconds is None else ["--seconds", str(args.seconds)]
    with checkout(args.base) as base_tree:
        same_epoch = cache_epoch(base_tree) == cache_epoch(ROOT)
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            run_args = ["--no-ledger", "--seed", str(seed), *seconds, *only]
            order = (base_tree, ROOT) if i % 2 == 0 else (ROOT, base_tree)
            done = {tree: bench(tree, run_args) for tree in order}
            pairs.append((seed, done[base_tree], done[ROOT]))
            print(f"pair {i + 1}/{args.pairs} (seed {seed}, "
                  f"{'base' if i % 2 == 0 else 'change'} first) done", flush=True)
        failures = report(pairs, bench_def, args.claim, gates, same_epoch)
        if "counts" in gates:
            failures += count_gate(
                base_tree, ["--seed", str(args.seed), *only], same_epoch
            )
        if "trace" in gates:
            failures += trace_gate(base_tree, same_epoch)
    print(f"\n{'FAIL' if failures else 'ok'}: {failures} failed verdicts/gates")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
