"""Deterministic tracing: tracer unit tests, exporters, spec wiring.

Covers the observability contract end to end:

* ``Tracer`` span/instant mechanics, prefix filtering, the bounded
  flight-recorder ring, and picklable detachment;
* Chrome trace-event export — schema validity (the subset Perfetto needs),
  dangling-span closing, and the validator's own error paths;
* byte-identical traces across two identically-seeded runs *in one
  process* (the strongest determinism claim: no process-global counters
  leak into tracks or span args);
* span-tree integrity across the process-pool transport (pooled == serial,
  byte for byte);
* ``counter_max`` / ``counter_min`` probe kinds over ``Cluster.stats()``,
  traced or not;
* ``TraceSpec`` serialisation back-compat: untraced specs serialise to the
  exact same JSON as before the field existed (cache keys stay stable).
"""

import json
import pickle

import pytest

from repro.experiments.__main__ import main as cli_main
from repro.experiments.parallel import run_cells
from repro.experiments.runner import run_spec
from repro.experiments.spec import (
    ProbeSpec,
    ScenarioSpec,
    TopologySpec,
    TraceSpec,
    WorkloadSpec,
)
from repro.obs import (
    TraceData,
    Tracer,
    chrome_trace,
    forensic_report,
    span_summary,
    trace_json,
    validate_chrome_trace,
)


class FakeSim:
    def __init__(self):
        self.now = 0.0


def make_trace(**kw):
    sim = FakeSim()
    return sim, Tracer(sim, **kw)


def small_spec(trace=None, seed=7, probes=()):
    """A fast (~2 s sim) mixed 2PC + fast-path cell."""
    return ScenarioSpec(
        name="obs-test",
        topology=TopologySpec(nodes=3, coordination="marlin"),
        workload=WorkloadSpec(
            kind="ycsb", clients=4, granules=64,
            incr_fraction=0.2, remote_fraction=0.5,
        ),
        probes=list(probes),
        trace=trace,
        seed=seed,
        duration=2.0,
    )


class TestTracerUnit:
    def test_span_ids_and_event_tuples(self):
        sim, tr = make_trace()
        root = tr.begin("node-0", "2pc", args={"txn": "t1"})
        sim.now = 0.5
        child = tr.begin("node-0", "2pc.prepare", parent=root)
        sim.now = 1.0
        tr.end(child)
        tr.end(root, args={"outcome": "commit"})
        assert root == 1 and child == 2
        assert tr.events[0] == ("B", 1, 0, "node-0", "2pc", 0.0, {"txn": "t1"})
        assert tr.events[1] == ("B", 2, 1, "node-0", "2pc.prepare", 0.5, None)
        assert tr.events[2] == ("E", 2, 1.0, None)
        assert tr.events[3] == ("E", 1, 1.0, {"outcome": "commit"})

    def test_prefix_filter_drops_spans_and_instants(self):
        _sim, tr = make_trace(prefixes=["2pc"])
        kept = tr.begin("n", "2pc.prepare")
        dropped = tr.begin("n", "rpc:user_txn")
        tr.instant("n", "edge:vote")
        tr.instant("n", "2pc:decided")
        assert kept == 1 and dropped == 0
        tr.end(dropped)  # no-op handle, must not raise or record
        names = [ev[4] if ev[0] == "B" else ev[2] for ev in tr.events
                 if ev[0] in ("B", "I")]
        assert names == ["2pc.prepare", "2pc:decided"]

    def test_flight_recorder_ring_is_bounded(self):
        _sim, tr = make_trace(ring_size=4)
        for i in range(10):
            tr.instant("n", f"ev{i}")
        ring = list(tr.rings["n"])
        assert len(ring) == 4
        assert [name for _t, _k, name, _a in ring] == [
            "ev6", "ev7", "ev8", "ev9"
        ]
        # The full event list is NOT bounded — only the ring is.
        assert len(tr.events) == 10

    def test_detach_is_picklable_and_carries_open_spans(self):
        sim, tr = make_trace()
        sid = tr.begin("n", "recovery")
        sim.now = 3.0
        data = tr.detach()
        clone = pickle.loads(pickle.dumps(data))
        assert isinstance(clone, TraceData)
        assert clone.open_spans == {sid: ("n", "recovery", 0.0)}
        assert clone.end_time == 3.0

    def test_span_summary_closes_dangling_at_end_time(self):
        sim, tr = make_trace()
        done = tr.begin("n", "gc_flush")
        sim.now = 0.25
        tr.end(done)
        tr.begin("n", "gc_flush")  # never ended (crash window)
        sim.now = 1.0
        summary = span_summary(tr.detach())
        assert summary["gc_flush"]["count"] == 2
        assert summary["gc_flush"]["total_s"] == pytest.approx(0.25 + 0.75)


class TestChromeExport:
    def _trace_with_open_span(self):
        sim, tr = make_trace()
        root = tr.begin("node-0", "2pc")
        sim.now = 0.5
        tr.end(root, args={"outcome": "commit"})
        tr.instant("chaos", "chaos:inject", args={"event": "Crash"})
        tr.begin("node-1", "recovery")  # dangling
        sim.now = 2.0
        return tr.detach()

    def test_schema_is_valid(self):
        doc = chrome_trace(self._trace_with_open_span())
        assert validate_chrome_trace(doc) == []
        # One thread_name metadata event per track, deterministically tid'd.
        names = {
            ev["tid"]: ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev.get("ph") == "M" and ev["name"] == "thread_name"
        }
        assert sorted(names.values()) == ["chaos", "node-0", "node-1"]

    def test_dangling_span_closed_at_end_time_and_flagged(self):
        doc = chrome_trace(self._trace_with_open_span())
        by_name = {
            ev["name"]: ev for ev in doc["traceEvents"] if ev["ph"] == "X"
        }
        assert by_name["recovery"]["args"]["open"] == 1
        # Began at t=0.5, closed at end_time=2.0 -> 1.5 s of dangling work.
        assert by_name["recovery"]["dur"] == pytest.approx(1.5e6)
        assert "open" not in by_name["2pc"]["args"]
        assert by_name["2pc"]["args"]["outcome"] == "commit"

    def test_validator_flags_malformed_events(self):
        assert validate_chrome_trace([]) == ["top level must be a JSON object"]
        assert validate_chrome_trace({"traceEvents": []}) == [
            "traceEvents must be a non-empty list"
        ]
        errors = validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "Z", "pid": 1, "tid": 1},
            {"name": "y", "ph": "X", "pid": 1, "tid": 7, "ts": -1.0,
             "dur": "no"},
        ]})
        assert any("bad ph" in e for e in errors)
        assert any("ts must be" in e for e in errors)
        assert any("non-negative dur" in e for e in errors)
        assert any("tid 7" in e for e in errors)


class TestTraceDeterminism:
    def test_two_seeded_runs_are_byte_identical(self):
        spec = small_spec(trace=TraceSpec())
        blobs = [trace_json(run_spec(spec).trace) for _ in range(2)]
        assert blobs[0] == blobs[1]
        assert validate_chrome_trace(json.loads(blobs[0])) == []

    def test_tracing_is_purely_observational(self):
        off = run_spec(small_spec())
        on = run_spec(small_spec(trace=TraceSpec()))
        assert off.trace is None and "span_summary" not in off.extras
        assert on.trace is not None and on.trace.events
        # Same schedule, same outcomes, same work: tracing never perturbs
        # the run, and every cell counts whether or not it is traced.
        assert off.metrics.total_committed == on.metrics.total_committed
        assert off.metrics.total_aborted == on.metrics.total_aborted
        assert on.extras["counters"] == off.extras["counters"]
        assert off.extras["counters"]["cluster.metrics.committed"] == (
            off.metrics.total_committed
        )
        assert "2pc" in on.extras["span_summary"]

    def test_trace_filter_limits_spans(self):
        result = run_spec(small_spec(trace=TraceSpec(filter=["2pc"])))
        names = set(span_summary(result.trace))
        assert names and all(n.startswith("2pc") for n in names)


class TestProcessPoolTrace:
    def test_pooled_trace_matches_serial_byte_for_byte(self):
        spec = small_spec(trace=TraceSpec())
        serial = run_spec(spec)
        pooled = run_cells([spec, small_spec(trace=TraceSpec(), seed=8)],
                           workers=2)
        assert trace_json(pooled[0].trace) == trace_json(serial.trace)

    def test_span_tree_integrity_after_transport(self):
        spec = small_spec(trace=TraceSpec())
        trace = run_cells([spec], workers=2)[0].trace
        begun, ended = set(), set()
        for ev in trace.events:
            if ev[0] == "B":
                sid, parent = ev[1], ev[2]
                assert sid not in begun, "span id reused"
                # Parents are recorded before their children (the RPC path
                # propagates ids forward in sim time).
                assert parent == 0 or parent in begun
                begun.add(sid)
            elif ev[0] == "E":
                assert ev[1] in begun, "end without begin"
                ended.add(ev[1])
        assert begun, "pooled run recorded no spans"
        assert set(trace.open_spans) == begun - ended


class TestCounterProbes:
    def test_counter_min_and_max_verdicts(self):
        result = run_spec(small_spec(trace=TraceSpec(), probes=[
            ProbeSpec(name="committed_floor", kind="counter_min",
                      counter="cluster.metrics.committed", threshold=1.0),
            ProbeSpec(name="suspicion_ceiling", kind="counter_max",
                      counter="core.failure.suspicions_raised", threshold=0.0),
        ]))
        verdicts = {p.name: p for p in result.probes}
        floor = verdicts["committed_floor"]
        assert floor.ok and floor.value >= 1.0
        # No faults, no detector -> the counter reads 0 and the ceiling holds.
        ceiling = verdicts["suspicion_ceiling"]
        assert ceiling.ok and ceiling.value == 0.0

    def test_untraced_counter_probe_reads_the_real_total(self):
        result = run_spec(small_spec(probes=[
            ProbeSpec(name="committed_floor", kind="counter_min",
                      counter="cluster.metrics.committed", threshold=1.0),
        ]))
        probe = result.probes[0]
        assert result.trace is None
        assert probe.ok and probe.value == result.metrics.total_committed > 0

    def test_unknown_counter_is_a_spec_error(self):
        # A pre-``Cluster.stats()`` tracer name fails before any cluster is
        # built, listing the valid keys.
        with pytest.raises(ValueError, match="cluster.metrics.committed"):
            ProbeSpec(name="bad", kind="counter_max", counter="txn.committed")

    def test_counter_kind_requires_counter_name(self):
        with pytest.raises(ValueError, match="counter"):
            ProbeSpec(name="bad", kind="counter_max", threshold=1.0)


class TestSpecSerialization:
    def test_untraced_spec_json_is_unchanged(self):
        """Back-compat: no ``trace`` key, no ``counter`` key — the canonical
        JSON (and therefore every cache key) is identical to pre-tracing."""
        spec = small_spec(probes=[ProbeSpec(name="p99", kind="latency",
                                            threshold=0.5)])
        data = spec.to_dict()
        assert "trace" not in data
        assert "counter" not in data["probes"][0]
        assert ScenarioSpec.from_dict(data) == spec

    def test_traced_spec_round_trips(self):
        spec = small_spec(
            trace=TraceSpec(flight_recorder=64, filter=["2pc", "rpc:"]),
            probes=[ProbeSpec(name="floor", kind="counter_min",
                              counter="cluster.metrics.committed",
                              threshold=1.0)],
        )
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.trace.filter == ["2pc", "rpc:"]
        assert clone.probes[0].counter == "cluster.metrics.committed"

    def test_trace_spec_validates_ring_size(self):
        with pytest.raises(ValueError):
            TraceSpec(flight_recorder=0)


class TestForensicReport:
    def test_report_renders_ring_tail(self):
        sim, tr = make_trace(ring_size=8)
        tr.begin("node-0", "2pc", args={"txn": "t9"})
        sim.now = 0.5
        tr.instant("node-0", "edge:vote", args={"txn": "t9"})

        class Shell:  # anything with .tracer / ._chaos duck-types
            tracer = tr
            _chaos = None

        report = forensic_report(Shell())
        assert "flight recorder [node-0]" in report
        assert "edge:vote" in report and "txn=t9" in report

    def test_report_without_tracer_points_at_tracespec(self):
        class Shell:
            tracer = None
            _chaos = None

        assert "tracing off" in forensic_report(Shell())


class TestCli:
    def test_trace_flag_writes_valid_byte_stable_trace(self, tmp_path, capsys):
        spec_path = tmp_path / "cell.json"
        spec_path.write_text(json.dumps(small_spec().to_dict()))
        out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
        assert cli_main(["run", str(spec_path), "--trace", str(out1),
                         "--json"]) == 0
        assert cli_main(["run", str(spec_path), "--trace", str(out2),
                         "--json"]) == 0
        captured = capsys.readouterr()
        assert f"[trace] wrote {out1}" in captured.err
        blob1, blob2 = out1.read_bytes(), out2.read_bytes()
        assert blob1 == blob2
        assert validate_chrome_trace(json.loads(blob1)) == []

    def test_trace_rejected_for_figure_targets(self):
        with pytest.raises(SystemExit, match="--trace"):
            cli_main(["run", "fig7", "--trace", "out.json"])
