"""Tests for the FoundationDB-like baseline service."""

import pytest

from repro.coord.fdb import FDB_DEFAULT, FdbService
from repro.coord.zookeeper import ZK_SMALL, ZooKeeperService
from repro.sim.core import Simulator, all_of
from repro.sim.network import LatencyModel, Network
from repro.sim.rpc import RpcEndpoint


@pytest.fixture
def env():
    sim = Simulator(seed=13)
    net = Network(sim, LatencyModel(jitter_frac=0.0))
    fdb = FdbService(sim, net)
    client = RpcEndpoint(sim, net, "client", "us-west")
    return sim, net, fdb, client


def commit(sim, client, writes):
    def txn():
        rv = yield client.call("fdb", "fdb_get_read_version")
        version = yield client.call("fdb", "fdb_commit", tuple(writes), rv)
        return version

    proc = sim.spawn(txn(), daemon=True)
    return sim.run_until(proc.result)


class TestTransactions:
    def test_commit_and_read(self, env):
        sim, _net, fdb, client = env
        commit(sim, client, [("/a", 1)])
        assert fdb.data["/a"] == 1

    def test_read_version_advances(self, env):
        sim, _net, _fdb, client = env
        v1 = commit(sim, client, [("/a", 1)])
        v2 = commit(sim, client, [("/a", 2)])
        assert v2 == v1 + 1

    def test_delete_via_none(self, env):
        sim, _net, fdb, client = env
        commit(sim, client, [("/a", 1)])
        commit(sim, client, [("/a", None)])
        assert "/a" not in fdb.data

    def test_scan(self, env):
        sim, _net, _fdb, client = env
        commit(sim, client, [("/granules/0", 5), ("/granules/1", 6), ("/m/0", "x")])
        scan = sim.run_until(client.call("fdb", "fdb_scan", "/granules/"))
        assert scan == {"/granules/0": 5, "/granules/1": 6}

    def test_empty_commit_is_cheap(self, env):
        sim, _net, fdb, client = env
        rv = sim.run_until(client.call("fdb", "fdb_get_read_version"))
        sim.run_until(client.call("fdb", "fdb_commit", (), rv))
        assert fdb.commits_served == 0


class TestScalability:
    def _throughput(self, service_cls, n=300, **kwargs):
        sim = Simulator(seed=1)
        net = Network(sim, LatencyModel(jitter_frac=0.0))
        if service_cls is FdbService:
            FdbService(sim, net)
            client = RpcEndpoint(sim, net, "client", "us-west")

            def one(i):
                rv = yield client.call("fdb", "fdb_get_read_version")
                yield client.call("fdb", "fdb_commit", ((f"/k{i}", i),), rv)

            procs = [sim.spawn(one(i), daemon=True) for i in range(n)]
            sim.run_until(all_of(sim, [p.result for p in procs]))
        else:
            ZooKeeperService(sim, net, ZK_SMALL)
            client = RpcEndpoint(sim, net, "client", "us-west")
            futs = [client.call("zk", "zk_write", f"/k{i}", i) for i in range(n)]
            sim.run_until(all_of(sim, futs))
        return n / sim.now

    def test_fdb_outscales_zk_single_region(self):
        """Fig 12c: FDB's partitioned pipelines beat the single ZK leader."""
        assert self._throughput(FdbService) > self._throughput(ZooKeeperService)

    def test_sharding_spreads_load(self, env):
        sim, _net, fdb, client = env
        for i in range(30):
            commit(sim, client, [(f"/k{i}", i)])
        busy = [p.jobs_completed for p in fdb.pipelines]
        assert sum(busy) == 30
        assert sum(1 for b in busy if b > 0) >= 2  # multiple shards used

    def test_cost_matches_szk_hardware(self):
        assert FDB_DEFAULT.hourly_cost == pytest.approx(ZK_SMALL.hourly_cost)
