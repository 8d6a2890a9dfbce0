"""Figures as data: the one place a figure's grid is expanded and executed.

Every evaluation figure is the same experiment shape — a grid of
configurations, one seeded cell per point, a table row per cell and a few
headline ratios — so a figure module only *declares* it:

* a :class:`Grid` is ordered named axes, each with its default values, plus
  a cell builder ``cell(scale=, seed=, **point) -> ScenarioSpec`` (the
  module's ``*_spec`` function: axis names are its keyword names);
* a :class:`Figure` is a grid plus ``row(point, result) -> dict``,
  ``findings(rows, results) -> dict``, a name and a title.

``Figure.run`` is expand -> ``run_cells`` -> ``raise_failures`` -> rows ->
findings, so ``workers=``, ``cache=`` and ``trace=`` mean the same thing on
every figure.  ``results`` is always ``[(point, result), ...]`` in
declared-axis order (first axis slowest) — the shape ``Sweep.run`` returns —
and ``Figure.summarize(results)`` is the entry for results already in hand:
fig8/fig9/fig10 are three views over one ``family.GRID`` run, fig13 is
fig12's grid with other axis values.  Axes whose default is a single value
(``clients``, ``workload``, ``regions``) are parameters: override them the
same way, ``run(clients=(10,))``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import FigureResult, SYSTEM_LABELS, scaled
from repro.experiments.parallel import raise_failures, run_cells
from repro.experiments.spec import (
    FaultSpec,
    ProbeSpec,
    ScenarioSpec,
    TopologySpec,
    TraceSpec,
    WorkloadSpec,
)

__all__ = [
    "FAULT_AT",
    "Figure",
    "Grid",
    "against_marlin",
    "chaos_cell",
    "chaos_clients",
    "label",
    "span_columns",
    "vs_marlin",
]

Point = Dict[str, Any]
Results = List[Tuple[Point, Any]]


@dataclass(frozen=True)
class Grid:
    """Named axes with default values, and the builder of one cell."""

    name: str
    axes: Dict[str, Tuple[Any, ...]]
    cell: Callable[..., ScenarioSpec]

    def merged(self, axes: Dict[str, Sequence[Any]]) -> Dict[str, Sequence[Any]]:
        """The declared axes with ``axes`` replacing their defaults."""
        unknown = sorted(set(axes) - set(self.axes))
        if unknown:
            raise ValueError(
                f"{self.name} has no axis {unknown}; its axes are "
                f"{list(self.axes)}"
            )
        return {**self.axes, **axes}

    def expand(
        self,
        scale: float = 1.0,
        seed: int = 1,
        trace: Optional[TraceSpec] = None,
        **axes: Sequence[Any],
    ) -> List[Tuple[Point, ScenarioSpec]]:
        """Every ``(point, spec)`` of the grid, ``axes`` replacing defaults."""
        axes = self.merged(axes)
        cells: List[Tuple[Point, ScenarioSpec]] = []
        for combo in itertools.product(*axes.values()):
            point = dict(zip(axes, combo))
            spec = self.cell(scale=scale, seed=seed, **point)
            if trace is not None:
                spec = spec.with_(trace=trace)
            # A small ``scale`` can fold two points onto one cell (fig15's
            # node counts bottom out at 4): it runs, and is reported, once.
            if all(spec != other for _point, other in cells):
                cells.append((point, spec))
        return cells

    def run(
        self,
        scale: float = 1.0,
        seed: int = 1,
        workers: Optional[int] = None,
        cache=None,
        trace: Optional[TraceSpec] = None,
        **axes: Sequence[Any],
    ) -> Results:
        """Run every cell; ``workers``/``cache`` as in :func:`run_cells`.

        A figure needs all of its cells, so any failed one raises.
        """
        cells = self.expand(scale, seed, trace, **axes)
        results = run_cells(
            [spec for _point, spec in cells], workers=workers, cache=cache
        )
        raise_failures(results, context=self.name)
        return [(point, result) for (point, _spec), result in zip(cells, results)]


@dataclass(frozen=True)
class Figure:
    """A grid and how to read its results as a table."""

    name: str
    title: str
    grid: Grid
    row: Callable[[Point, Any], Dict[str, Any]]
    findings: Callable[[List[Dict[str, Any]], Results], Dict[str, float]]

    def run(self, scale: float = 1.0, seed: int = 1, **options) -> FigureResult:
        """``summarize(grid.run(...))``; options as :meth:`Grid.run`."""
        return self.summarize(self.grid.run(scale, seed, **options))

    def summarize(self, results: Results) -> FigureResult:
        fig = FigureResult(self.name, self.title)
        fig.rows = [self.row(point, result) for point, result in results]
        fig.findings = self.findings(fig.rows, results)
        return fig


# -- row / findings helpers ------------------------------------------------------


def label(system: str) -> str:
    """The paper's name for a coordination kind (``"zk-small"`` -> ``"S-ZK"``)."""
    return SYSTEM_LABELS.get(system, system)


def against_marlin(rows: Sequence[Dict[str, Any]]):
    """``(marlin_row, other_row)`` for every non-Marlin row — the "Marlin
    vs. baseline" pairing of every figure; empty when Marlin did not run."""
    marlin = next((r for r in rows if r["system"] == label("marlin")), None)
    return [(marlin, r) for r in rows if marlin is not None and r is not marlin]


def vs_marlin(
    rows: Sequence[Dict[str, Any]],
    key: str,
    column: str,
    marlin_on_top: bool = False,
) -> Dict[str, float]:
    """One finding per baseline row, named ``key.format(its label)``: its
    ``column`` over Marlin's (``marlin_on_top``: Marlin's over its).  A zero
    denominator (an empty run) yields no finding."""
    out = {}
    for marlin, base in against_marlin(rows):
        num, den = (marlin, base) if marlin_on_top else (base, marlin)
        if den[column]:
            out[key.format(base["system"])] = num[column] / den[column]
    return out


# -- the chaos cell (fig7 / fig16 / fig17) --------------------------------------

#: The fault lands at t=3 into steady state; the run ends at a fixed horizon
#: so every cell of a chaos grid is measured over the same window.
FAULT_AT = 3.0
DURATION = 14.0


def chaos_clients(scale: float) -> int:
    return scaled(32, scale, minimum=8)


def chaos_cell(
    name: str,
    topology: TopologySpec,
    faults: FaultSpec,
    p99_slo: float,
    probes: List[ProbeSpec],
    *,
    scale: float,
    seed: int,
    trace: Optional[TraceSpec],
    p99_window: Optional[float] = None,
    **workload,
) -> ScenarioSpec:
    """Steady closed-loop load on a small cluster, one fault schedule, a
    fixed horizon, a p99 latency SLO (``p99_window``: also per window of
    that width) ahead of the figure's own ``probes``: the cell the
    fault-injection figures share."""
    p99 = ProbeSpec(
        name="p99_latency", kind="latency", pct=99.0, threshold=p99_slo,
        every=p99_window,
    )
    return ScenarioSpec(
        name=name,
        topology=topology,
        workload=WorkloadSpec(
            clients=chaos_clients(scale),
            granules=scaled(1600, scale, minimum=64),
            **workload,
        ),
        faults=faults,
        probes=[p99, *probes],
        trace=trace,
        seed=seed,
        duration=DURATION,
        # Fenced-but-alive victims legitimately hold stale views at the end
        # of a chaos run; ground-truth invariants are asserted by the chaos
        # and recovery test suites, not per cell here.
        check_invariants=False,
    )


def span_columns(result) -> Dict[str, float]:
    """Traced runs only: total sim time each 2PC phase held (zero when the
    grid ran without a ``trace=TraceSpec()``)."""
    spans = result.extras.get("span_summary", {})
    return dict(
        prepare_s=spans.get("2pc.prepare", {}).get("total_s", 0.0),
        decision_s=spans.get("2pc.decision", {}).get("total_s", 0.0),
    )
