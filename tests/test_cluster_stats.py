"""``Cluster.stats()``: one table of always-on counters on every cell.

``extras["counters"]`` is ``Cluster.stats()``, written once by ``run_spec``
whether or not the cell is traced.  These tests pin that each key reads the
same number ``e2ebench/e2e_ledger.py::cluster_counts`` reads off the same
cluster from outside (the ledger is loaded by path, read-only), for one
small cell per ``BACKENDS`` kind, a replicated marlin cell and a faulted
fig7 cell; that the key set is the static table; and that reading the table
never creates the chaos controller.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.cluster.cluster import STATS
from repro.cluster.config import BACKENDS
from repro.experiments import fig7, fig17_replication
from repro.experiments.runner import run_spec
from repro.experiments.spec import scale_out_spec

LEDGER = Path(__file__).resolve().parent.parent / "e2ebench" / "e2e_ledger.py"


def load_ledger():
    spec = importlib.util.spec_from_file_location("e2e_ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_cell(kind):
    return scale_out_spec(
        kind, initial_nodes=2, added_nodes=1, clients=4, granules=32,
        scale_at=0.5, tail=0.5, seed=3,
    )


CELLS = {
    **{kind: lambda kind=kind: small_cell(kind) for kind in sorted(BACKENDS)},
    "replicated-marlin": lambda: fig17_replication.replication_spec(
        "async", "lagged_crash", scale=0.1
    ),
    "fig7-crash-restart": lambda: fig7.slo_spec(
        "marlin", "crash_restart", scale=0.1
    ),
}


@pytest.fixture(scope="module")
def results():
    return {name: run_spec(make()) for name, make in CELLS.items()}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_counters_equal_the_ledger(results, cell):
    result = results[cell]
    counters = result.extras["counters"]
    assert list(counters) == list(STATS)
    ledger = load_ledger().cluster_counts(result.cluster)
    assert {k: counters[k] for k in ledger} == ledger


def test_faulted_and_replicated_cells_count_what_they_did(results):
    crash = results["fig7-crash-restart"]
    counters = crash.extras["counters"]
    reports = crash.cluster.recovery_reports
    assert counters["chaos.controller.faults_injected"] >= 1
    assert counters["core.recovery.passes"] == len(reports) >= 1
    for key in ("in_doubt", "begun_unvoted", "coordinator_open", "committed",
                "aborted"):
        assert counters[f"core.recovery.{key}"] == sum(
            getattr(r, key) for r in reports
        )
    replicated = results["replicated-marlin"]
    assert replicated.extras["counters"]["engine.replication.ships"] == (
        replicated.extras["replication"]["ships"]
    ) > 0


def test_stats_never_creates_the_chaos_controller(results):
    cluster = results["marlin"].cluster
    assert cluster._chaos is None
    assert cluster.stats()["chaos.controller.faults_injected"] == 0
    assert cluster._chaos is None
