"""Guard rails for the benchmarks/ directory.

The bench files are not part of the tier-1 run (``testpaths = tests``), so
without these checks a kernel API change could break every bench silently.
Collection imports each bench module (the slow figure benches stop there);
the two micro-bench files are also *executed* with timing disabled, because a
body that no longer matches the API it calls collects just fine; the run_all
smoke additionally exercises the kernel suite end-to-end in
``--quick`` mode and validates the JSON report shape.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _pytest_benchmarks(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--benchmark-disable", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_bench_files_collect_cleanly():
    proc = _pytest_benchmarks("benchmarks", "--collect-only")
    assert proc.returncode == 0, f"bench collection failed:\n{proc.stdout}\n{proc.stderr}"
    match = re.search(r"(\d+) tests? collected", proc.stdout)
    assert match and int(match.group(1)) > 0, (
        f"no benchmarks collected — python_files misconfigured?\n{proc.stdout}"
    )


def test_micro_benches_run():
    """Collection only imports a bench; a signature change inside a timed
    body (``TxnContext`` gaining a required ``seq`` broke all of
    ``bench_micro_commit.py`` for a dozen PRs) shows only when it runs.  The
    two micro files take ~1.5 s with timing disabled, so they run here; the
    figure benches stay collect-only."""
    proc = _pytest_benchmarks(
        "benchmarks/bench_micro_commit.py", "benchmarks/bench_micro_storage.py",
        "-p", "no:cacheprovider",
    )
    assert proc.returncode == 0, f"micro benches failed:\n{proc.stdout}\n{proc.stderr}"
    match = re.search(r"(\d+) passed", proc.stdout)
    assert match and int(match.group(1)) >= 8, proc.stdout


def test_run_all_quick_emits_report(tmp_path):
    from benchmarks import run_all

    out = tmp_path / "bench.json"
    baseline = tmp_path / "baseline.json"
    # A bare results dump is accepted as a baseline (speedup computed on the
    # throughput metric of each bench).
    baseline.write_text(json.dumps(
        {name: {metric: 1.0} for name, metric in run_all.RATE_METRIC.items()}
    ))
    report = run_all.main(
        ["--quick", "--out", str(out), "--baseline", str(baseline)]
    )
    on_disk = json.loads(out.read_text())
    assert set(on_disk["results"]) == set(run_all.RATE_METRIC)
    assert on_disk["meta"]["quick"] is True
    for name, metric in run_all.RATE_METRIC.items():
        assert report["results"][name][metric] > 0
        assert report["speedup"][name] > 0
    # The allocation/op counter rides along in the metrics bench: the
    # streaming collector must stay lean (a per-bucket list of boxed floats
    # costs ~33 B/op; the packed array layout stays around ~17).
    assert report["results"]["metrics_record"]["bytes_per_op"] < 24.0
