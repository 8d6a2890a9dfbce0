"""Shared benchmark fixtures.

Scenario benches run one simulation per system (wall time = harness cost)
and print the regenerated paper table; run with ``-s`` to see the tables
inline, or read them from ``bench_results/``.  ``REPRO_BENCH_SCALE`` shrinks
or grows every scenario (default 0.25; 1.0 reproduces the tables quoted in
EXPERIMENTS.md).
"""

import os
import pathlib

import pytest

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"


def emit(figure_result, benchmark=None):
    """Print a figure table, persist it, and attach findings to the report."""
    text = figure_result.format_table()
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    name = figure_result.figure.lower().replace(" ", "_")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if benchmark is not None:
        for key, value in figure_result.findings.items():
            benchmark.extra_info[key] = round(float(value), 4)
    return text


@pytest.fixture(scope="session")
def scaleout_family():
    """The §6.2 family (Figures 8-10 share these runs)."""
    from repro.experiments import family

    return family.GRID.run(scale=BENCH_SCALE, seed=1)


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE
