"""Per-figure reproduction harness (§6) on a declarative spec API.

One module per evaluation figure; each declares a
:class:`~repro.experiments.figure.Figure` (``FIGURE``: axes, cell builder,
row and findings functions) whose ``run(scale=..., seed=...)`` returns a
:class:`repro.experiments.harness.FigureResult` whose ``format_table()``
prints the same rows/series the paper reports.  The ``scale`` knob shrinks
clients/granules proportionally (see EXPERIMENTS.md for the scale-factor
discussion); ratios between systems — the reproduction target — hold across
scales to within the drift ``run scorecard`` (``claims.py``) measures.

Every figure run goes through one path (``figure.py``): the grid expands to
:class:`~repro.experiments.spec.ScenarioSpec` objects (topology + workload +
phase timeline + fault schedule + SLO probes, all JSON round-trippable) and
``run_cells`` hands them to :func:`~repro.experiments.runner.run_spec`;
:class:`~repro.experiments.spec.Sweep` expands a base spec over named axes
into the full grid.  ``python -m repro.experiments`` lists and runs figures
and ad-hoc spec files from the command line.  See EXPERIMENTS.md for the
spec format and calibration notes.
"""

from repro.experiments import (
    claims,
    detector_sweep,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16_recovery,
    fig17_replication,
)
from repro.experiments.figure import Figure, Grid
from repro.experiments.harness import EXP_NODE_PARAMS, FigureResult
from repro.experiments.parallel import CellFailure, ProcessPoolRunner, run_cells
from repro.experiments.result import RunResult
from repro.experiments.runner import run_spec
from repro.experiments.spec import (
    FaultSpec,
    PhaseSpec,
    ProbeSpec,
    ScenarioSpec,
    Sweep,
    TopologySpec,
    WorkloadSpec,
    scale_out_spec,
)

#: CLI-runnable experiments: name -> :class:`Figure` (and the scorecard over them).
FIGURES = {
    "fig7": fig7.FIGURE,
    "fig8": fig8.FIGURE,
    "fig9": fig9.FIGURE,
    "fig10": fig10.FIGURE,
    "fig11": fig11.FIGURE,
    "fig12": fig12.FIGURE,
    "fig13": fig13.FIGURE,
    "fig14": fig14.FIGURE,
    "fig15": fig15.FIGURE,
    "fig16_recovery": fig16_recovery.FIGURE,
    "fig17_replication": fig17_replication.FIGURE,
    "detector_sweep": detector_sweep.FIGURE,
    "scorecard": claims.FIGURE,
}

__all__ = [
    "CellFailure",
    "EXP_NODE_PARAMS",
    "FIGURES",
    "FaultSpec",
    "Figure",
    "FigureResult",
    "Grid",
    "PhaseSpec",
    "ProbeSpec",
    "ProcessPoolRunner",
    "RunResult",
    "ScenarioSpec",
    "Sweep",
    "TopologySpec",
    "WorkloadSpec",
    "claims",
    "detector_sweep",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16_recovery",
    "fig17_replication",
    "run_cells",
    "run_spec",
    "scale_out_spec",
]
