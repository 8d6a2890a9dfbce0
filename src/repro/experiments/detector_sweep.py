"""Detector-parameter sweep: probe cadence vs. false-positive fencing.

§4.4.2 leaves the failure detector's parameters — probe interval, timeout,
consecutive-miss threshold — to the operator, and the ROADMAP asks what they
cost: an aggressive detector under packet loss and clock jitter fences
*healthy* nodes (every fencing here is a false positive — no node in the
schedule ever dies), while a lenient one just rides the noise out.  The
sweep also toggles the suspicion-vote gate (``core/suspicion.py``): a
symmetrically-partitioned node whose own probes all time out stands down
instead of fencing its ring successor, so the gate should strictly reduce
false fencings on the partition leg of the schedule.

Pure spec composition: one base :class:`ScenarioSpec` expanded by
:class:`Sweep` over ``faults.detector_interval`` x ``faults.detector_misses``
x ``faults.detector_vote_gate``.  The 18-cell grid is the repo's canonical
parallel-sweep workload: ``FIGURE.run(workers=N)`` / ``--workers N`` farm
cells out to a process pool with bit-identical results.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.figure import Figure, Grid
from repro.experiments.harness import scaled
from repro.experiments.spec import (
    FaultSpec,
    ScenarioSpec,
    Sweep,
    TopologySpec,
    WorkloadSpec,
)

__all__ = ["FIGURE", "build_sweep"]

#: Noise, not death: lossy link, a clock-jittered node, and one transient
#: symmetric isolation of node 2 — everything heals by t=7.
NOISE_SCHEDULE = [
    {"at": 1.0, "kind": "packet_loss", "pair": [0, 1], "rate": 0.5, "duration": 6.0},
    {"at": 2.0, "kind": "clock_jitter", "node": 3, "spread": 0.3, "duration": 5.0},
    {"at": 4.0, "kind": "partition", "groups": [[2], [0, 1, 3]], "duration": 2.0},
]

INTERVALS = (0.25, 0.5, 1.0)
MISSES = (1, 2, 4)
DURATION = 10.0


def build_sweep(
    scale: float = 1.0,
    seed: int = 1,
    intervals: Sequence[float] = INTERVALS,
    misses: Sequence[int] = MISSES,
    vote_gate: Sequence[bool] = (False, True),
) -> Sweep:
    base = ScenarioSpec(
        name="detector-sweep",
        topology=TopologySpec(nodes=4, coordination="marlin"),
        workload=WorkloadSpec(
            kind="ycsb",
            clients=scaled(16, scale, minimum=6),
            granules=scaled(512, scale, minimum=32),
        ),
        faults=FaultSpec(schedule=NOISE_SCHEDULE, failure_detection=True),
        seed=seed,
        duration=DURATION,
        # False fencings leave healthy-but-fenced nodes with stale views;
        # that asymmetry is the measurement, not an invariant violation.
        check_invariants=False,
    )
    return Sweep(
        base,
        {
            "faults.detector_vote_gate": list(vote_gate),
            "faults.detector_interval": list(intervals),
            "faults.detector_misses": list(misses),
        },
    )


def sweep_cell(
    vote_gate: bool, interval: float, misses: int, scale: float = 1.0, seed: int = 1
) -> ScenarioSpec:
    """One grid point, built by the same :class:`Sweep` as the whole grid."""
    sweep = build_sweep(scale, seed, [interval], [misses], [vote_gate])
    ((_point, spec),) = sweep.expand()
    return spec


def row(point, result):
    m = result.metrics
    return dict(
        interval_s=point["interval"],
        misses=point["misses"],
        vote_gate=bool(point["vote_gate"]),
        false_fencings=len(m.failovers),
        fenced_nodes=sorted({dead for _t, dead, _g in m.failovers}),
        committed=m.total_committed,
        abort_ratio=m.abort_ratio(),
    )


def findings(rows, results):
    fencings = {
        gate: sum(r["false_fencings"] for r in rows if r["vote_gate"] is gate)
        for gate in (False, True)
    }
    out = {
        "false_fencings_no_gate": float(fencings[False]),
        "false_fencings_gate": float(fencings[True]),
    }
    if fencings[False]:
        out["gate_reduction"] = (
            (fencings[False] - fencings[True]) / fencings[False]
        )
    most_lenient = max(r["misses"] for r in rows)
    out["lenient_false_fencings"] = float(
        sum(r["false_fencings"] for r in rows if r["misses"] == most_lenient)
    )
    return out


#: Axis order (vote gate slowest, misses fastest) is ``build_sweep``'s.
FIGURE = Figure(
    "Detector sweep", "False-positive fencing vs. detector parameters",
    Grid(
        "detector_sweep",
        {"vote_gate": (False, True), "interval": INTERVALS, "misses": MISSES},
        sweep_cell,
    ),
    row, findings,
)
