"""Kernel determinism: seeded end-to-end runs are bit-identical.

The two-tier scheduler (ready queue + timer heap) must reproduce exactly the
``(time, seq)`` execution order of the classic single-heap kernel.  The
golden numbers below were captured from a small fig9-style scale-out run on
the pre-fast-path kernel (commit c9e412c); any scheduler change that alters
event order, RNG draw order, or metrics accounting shows up here as a hard
failure, not a statistical drift.

Re-captured for PR 2 after fixing the ``run(until)`` deadline overshoot
(``_next_event_time`` now prunes cancelled heap/ready entries instead of
reporting their times): the re-captured values are identical to the
pre-fast-path goldens — this run never hits the overshoot window — so the
constants below are unchanged and now also pin the fixed-deadline kernel.

``stats`` pins the run's ``Cluster.stats()`` (``extras["counters"]``): every
always-on work counter, whether or not the cell is traced.  Its key set is
static, so the golden lists the non-zero ones and a counter that moves to or
from zero shows up as a key gained or lost.

The golden values now live in :mod:`repro.experiments.goldens`, where they
(together with the spec-parity goldens) derive the sweep result cache's
``CACHE_EPOCH`` — re-capturing them after a behaviour change automatically
invalidates stale cached sweep cells.
"""

import pytest

from repro.experiments.goldens import DETERMINISM_GOLDEN as GOLDEN
from repro.experiments.runner import run_spec
from repro.experiments.spec import scale_out_spec


def _small_fig9_run():
    """A miniature §6.2 scale-out (2 -> 4 nodes, 8 clients, YCSB)."""
    result = run_spec(scale_out_spec(
        "marlin",
        initial_nodes=2,
        added_nodes=2,
        clients=8,
        granules=64,
        scale_at=1.0,
        tail=2.0,
        seed=3,
    ))
    sim = result.cluster.sim
    metrics = result.metrics
    return {
        "events_executed": sim.events_executed,
        "total_committed": metrics.total_committed,
        "total_aborted": metrics.total_aborted,
        "total_migrations": metrics.total_migrations,
        "final_now": sim.now,
        "stats": {k: v for k, v in result.extras["counters"].items() if v},
    }


@pytest.fixture(scope="module")
def first_run():
    return _small_fig9_run()


def test_matches_pre_fastpath_golden_values(first_run):
    # Exact equality on purpose — final_now included: the sim clock is a sum
    # of deterministic latency samples, so bit-identity is the contract.
    assert first_run == GOLDEN


def test_identical_across_two_runs(first_run):
    assert _small_fig9_run() == first_run
