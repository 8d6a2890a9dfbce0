"""Guard rail for the benchmarks/ directory.

The bench files are not part of the tier-1 run (``testpaths = tests``), so
without this a kernel API change could break them silently: the run_all smoke
exercises the kernel suite and the tracer on/off comparison end-to-end in
``--quick`` mode and validates the JSON report shape.
"""

import json


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
    # Tracing is purely observational: both legs of the on/off comparison
    # execute the same schedule, and the on leg records call + serve per ping.
    tracer = report["tracer"]
    assert tracer["schedule_drift"] == 0
    assert tracer["spans_recorded"] == 2 * tracer["calls"]
