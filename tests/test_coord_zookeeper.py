"""Tests for the ZooKeeper-like baseline service."""

import pytest

from repro.coord.zookeeper import ZK_LARGE, ZK_SMALL, ZooKeeperService
from repro.sim.core import Simulator, all_of
from repro.sim.network import LatencyModel, Network
from repro.sim.rpc import RpcEndpoint


@pytest.fixture
def env():
    sim = Simulator(seed=11)
    net = Network(sim, LatencyModel(jitter_frac=0.0))
    zk = ZooKeeperService(sim, net)
    client = RpcEndpoint(sim, net, "client", "us-west")
    return sim, net, zk, client


class TestKvOperations:
    def test_write_read(self, env):
        sim, _net, zk, client = env
        sim.run_until(client.call("zk", "zk_write", "/a", 1))
        assert zk.data["/a"] == 1

    def test_delete(self, env):
        sim, _net, zk, client = env
        sim.run_until(client.call("zk", "zk_write", "/a", 1))
        assert sim.run_until(client.call("zk", "zk_delete", "/a")) is True
        assert "/a" not in zk.data

    def test_delete_missing(self, env):
        sim, _net, _zk, client = env
        assert sim.run_until(client.call("zk", "zk_delete", "/nope")) is False

    def test_scan_prefix(self, env):
        sim, _net, _zk, client = env
        for i in range(3):
            sim.run_until(client.call("zk", "zk_write", f"/granules/{i}", i))
        sim.run_until(client.call("zk", "zk_write", "/members/0", "n0"))
        scan = sim.run_until(client.call("zk", "zk_scan", "/granules/"))
        assert scan == {"/granules/0": 0, "/granules/1": 1, "/granules/2": 2}


class TestLeaderBottleneck:
    def _throughput(self, config, n_requests=200):
        sim = Simulator(seed=1)
        net = Network(sim, LatencyModel(jitter_frac=0.0))
        zk = ZooKeeperService(sim, net, config)
        client = RpcEndpoint(sim, net, "client", "us-west")
        futs = [
            client.call("zk", "zk_write", f"/k{i}", i) for i in range(n_requests)
        ]
        sim.run_until(all_of(sim, futs))
        return n_requests / sim.now

    def test_writes_serialize_at_leader(self, env):
        sim, _net, zk, client = env
        futs = [client.call("zk", "zk_write", f"/k{i}", i) for i in range(50)]
        sim.run_until(all_of(sim, futs))
        # 50 writes cannot finish faster than 50x the pipeline service time.
        assert sim.now >= 50 * zk.config.write_service

    def test_large_config_outperforms_small(self):
        assert self._throughput(ZK_LARGE) > self._throughput(ZK_SMALL)

    def test_reads_do_not_queue_on_leader(self, env):
        sim, _net, zk, client = env
        sim.run_until(client.call("zk", "zk_write", "/a", 1))
        t0 = sim.now
        futs = [client.call("zk", "zk_scan", "/a") for _ in range(50)]
        sim.run_until(all_of(sim, futs))
        assert sim.now - t0 < 50 * zk.config.write_service


class TestConfig:
    def test_costs(self):
        assert ZK_SMALL.hourly_cost == pytest.approx(0.597)
        assert ZK_LARGE.hourly_cost == pytest.approx(1.173)
