"""Pins for the op-set-at-a-time data plane.

The user-transaction path handles a transaction's ops as one set (one lock
call, one staging ``extend``, two bulk cache operations) over tuple-backed
records.  That is an optimisation, so nothing a run *counts* may move: the
cells below assert the exact lock, cache and event counts captured at the
commit before it (a2d109d), and the value types keep the record contract
(immutable, keyword-constructible, hashable, picklable) other code relies on.
The third cell runs a 16-page cache, so most misses evict: it pins the clock's
victim order (captured at 8f97070, before the clock lost its pin and hole
paths).
"""

import pickle

import pytest

from repro.engine.node import TxnOp, TxnSpec
from repro.experiments.runner import run_spec
from repro.experiments.spec import ScenarioSpec, TopologySpec, WorkloadSpec


def small_cell(kind, node_param_overrides=None, **load):
    return ScenarioSpec(
        name=f"pin-{kind}",
        topology=TopologySpec(
            nodes=2,
            coordination="marlin",
            node_param_overrides=node_param_overrides or {},
        ),
        workload=WorkloadSpec(
            kind=kind, clients=6, granules=24, keys_per_granule=64, **load
        ),
        seed=7,
        duration=3.0,
    )


def work_counts(cluster):
    nodes = list(cluster.nodes.values())
    return {
        "sim.events_executed": cluster.sim.events_executed,
        "locks.acquisitions": sum(n.locks.acquisitions for n in nodes),
        "locks.conflicts": sum(n.locks.conflicts for n in nodes),
        "cache.hits": sum(n.cache.hits for n in nodes),
        "cache.misses": sum(n.cache.misses for n in nodes),
        "cache.evictions": sum(n.cache.evictions for n in nodes),
        "committed": sum(n.stats["committed"] for n in nodes),
    }


@pytest.mark.parametrize(
    "spec,expected",
    [
        (
            small_cell("ycsb"),
            {
                "sim.events_executed": 6580,
                "locks.acquisitions": 3208,
                "locks.conflicts": 107,
                "cache.hits": 3468,
                "cache.misses": 428,
                "cache.evictions": 0,
                "committed": 162,
            },
        ),
        (
            small_cell("tpcc", remote_fraction=0.3),
            {
                "sim.events_executed": 13152,
                "locks.acquisitions": 3899,
                "locks.conflicts": 82,
                "cache.hits": 3155,
                "cache.misses": 1260,
                "cache.evictions": 0,
                "committed": 130,
            },
        ),
        (
            small_cell("ycsb", node_param_overrides={"cache_pages": 16}),
            {
                "sim.events_executed": 17460,
                "locks.acquisitions": 3214,
                "locks.conflicts": 106,
                "cache.hits": 1720,
                "cache.misses": 2174,
                "cache.evictions": 841,
                "committed": 162,
            },
        ),
    ],
    ids=["ycsb", "tpcc", "ycsb-evicting"],
)
def test_work_counts_equal_the_per_op_data_plane(spec, expected):
    assert work_counts(run_spec(spec).cluster) == expected


class TestTxnOp:
    def test_keyword_and_positional_construction(self):
        op = TxnOp(write=True, table="t", key=3)
        assert op == TxnOp(True, "t", 3) == TxnOp(True, "t", 3, False)
        assert (op.write, op.table, op.key, op.incr) == (True, "t", 3, False)
        assert TxnOp(True, "t", 3, incr=True).incr

    def test_immutable_and_hashable(self):
        op = TxnOp(False, "t", 3)
        with pytest.raises(AttributeError):
            op.key = 4
        assert len({op, TxnOp(False, "t", 3), TxnOp(True, "t", 3)}) == 2

    def test_spec_pickles(self):
        spec = TxnSpec(ops=(TxnOp(True, "t", 3), TxnOp(False, "t", 4, incr=True)))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.home_key == 3
        assert all(type(op) is TxnOp for op in clone.ops)
        with pytest.raises(AttributeError):
            spec.ops = ()


def test_portable_result_of_a_small_cell_pickles():
    """What a pool worker ships back survives the process boundary with the
    same summary (the cell runs on the tuple-backed records end to end)."""
    live = run_spec(small_cell("ycsb"))
    clone = pickle.loads(pickle.dumps(live))
    assert clone.cluster is None and live.cluster is not None
    assert clone.summary() == live.summary()
    assert clone.summary()["committed"] > 0
