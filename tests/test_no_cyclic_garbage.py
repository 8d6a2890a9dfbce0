"""A running cell makes no reference cycles.

Everything a cell allocates is freed by reference counting the moment its
last holder lets go; nothing waits for the cyclic collector.  That keeps the
collector's generations small (its pauses scale with the tracked objects it
has to walk) without any ``gc`` tuning in ``src/`` — ``tests/test_layering.py``
forbids importing ``gc`` there.  Each check runs with the collector disabled
and then asks it how many unreachable objects it finds: the answer must be 0.

The usual way to break this is an exception stored where the frames on its
traceback can reach it: a process's failure on its own ``result`` future
(the kernel's ``_step`` frame holds the process; a killed process's frames
may hold the future its never-run resume callback sits on), or a coroutine
frame that still holds the futures whose failure it re-raised.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.experiments import fig7
from repro.experiments.runner import run_spec
from repro.experiments.spec import (
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    scale_out_spec,
)
from repro.sim.core import ProcessKilled, Simulator, Timeout
from repro.sim.network import LatencyModel, Network
from repro.sim.rpc import RpcEndpoint
from tests.test_data_plane_pins import small_cell


def cyclic_garbage(run):
    """Call ``run()`` with the collector off; return what it returned, the
    number of objects only the cyclic collector could free, and the five
    most common types among them (for the failure message)."""
    gc.collect()
    gc.disable()
    try:
        kept = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage).most_common(5)
        return kept, found, kinds
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


# -- kernel -------------------------------------------------------------------


def _raising():
    yield Timeout(1.0)
    raise ValueError("boom")


def _waiting(fut):
    yield fut  # never resolved: the kill leaves our resume callback on it


def test_a_failed_daemon_process_leaves_no_cycle():
    def run():
        sim = Simulator()
        proc = sim.spawn(_raising(), daemon=True)
        sim.run()
        assert isinstance(proc.result.exception, ValueError)

    _, found, kinds = cyclic_garbage(run)
    assert found == 0, kinds


def test_a_killed_process_leaves_no_cycle():
    def run():
        sim = Simulator()
        proc = sim.spawn(_waiting(sim.event()))
        sim.timer(1.0, proc.kill)
        sim.run()
        assert isinstance(proc.result.exception, ProcessKilled)

    _, found, kinds = cyclic_garbage(run)
    assert found == 0, kinds


def test_a_failure_keeps_the_coroutine_frames_on_its_traceback():
    sim = Simulator()
    proc = sim.spawn(_raising(), daemon=True)
    sim.run()
    tb = proc.result.exception.__traceback__
    names = []
    while tb is not None:
        names.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert names == ["_raising"]


# -- rpc ----------------------------------------------------------------------


class Reply:
    """A reply value a weak reference can watch."""


def test_an_answered_call_does_not_pin_its_reply_until_the_deadline():
    sim = Simulator(seed=5)
    net = Network(sim, LatencyModel(jitter_frac=0.0))
    client = RpcEndpoint(sim, net, "client", "us-west")
    server = RpcEndpoint(sim, net, "server", "us-west")
    server.register("get", Reply)

    def run():
        fut = client.call("server", "get", timeout=100.0)
        watch = weakref.ref(sim.run_until(fut))
        del fut
        return watch

    watch, found, kinds = cyclic_garbage(run)
    assert sim.now < 1.0 and sim._cancellable, "the timeout entry is still armed"
    assert watch() is None
    assert found == 0, kinds


# -- cells --------------------------------------------------------------------


@pytest.fixture(scope="module")
def warm():
    """One cell run before any is measured: a process's first cell also pays
    one-time costs that are not the cell's (numpy imports ``numpy.ma`` the
    first time a probe's quantile calls ``np.unique``, and an import leaves
    cyclic garbage)."""
    run_spec(fig7.slo_spec("marlin", "crash_restart", scale=0.25))


@pytest.mark.parametrize(
    "spec",
    [
        fig7.slo_spec("marlin", "crash_restart", scale=0.25),
        fig7.slo_spec("lease", "crash_restart", scale=0.25),
        small_cell("ycsb"),
        small_cell("tpcc", remote_fraction=0.3),
        scale_out_spec(
            "marlin", initial_nodes=2, added_nodes=2, clients=8, granules=64,
            scale_at=1.0, tail=2.0, seed=3,
        ),
        # Contended 2PC over four nodes: remote branches fail (lock conflicts
        # come back as RemoteError), so the coordinator's branch fan-out
        # re-raises failures its own frame must not hold.
        ScenarioSpec(
            name="branch-failures",
            topology=TopologySpec(nodes=4, coordination="marlin"),
            workload=WorkloadSpec(
                kind="tpcc", clients=8, granules=24, keys_per_granule=64,
                remote_fraction=0.3,
            ),
            seed=7,
            duration=3.0,
        ),
    ],
    ids=[
        "fig7-marlin", "fig7-lease", "pins-ycsb", "pins-tpcc", "determinism",
        "branch-failures",
    ],
)
def test_a_cell_leaves_no_cyclic_garbage(warm, spec):
    result, found, kinds = cyclic_garbage(lambda: run_spec(spec))
    assert result.summary()["committed"] > 0
    assert found == 0, kinds
