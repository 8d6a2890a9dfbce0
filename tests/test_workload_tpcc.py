"""Tests for the TPC-C workload generator."""

import random
from collections import Counter

import pytest

from repro.engine.granule import GranuleMap
from repro.workload.tpcc import TpccConfig, TpccWorkload
from tests.test_workload_ycsb import stream_digest


@pytest.fixture
def gmap():
    # 64 warehouses, one granule each.
    return GranuleMap(num_keys=64 * 64, keys_per_granule=64)


@pytest.fixture
def wl(gmap):
    return TpccWorkload(gmap)


def home_warehouse(gmap, spec):
    return gmap.granule_of(spec.home_key)


class TestMix:
    def test_transaction_mix_close_to_spec(self, wl):
        rng = random.Random(0)
        for _ in range(5000):
            wl.next_txn(rng)
        total = sum(wl.generated.values())
        assert wl.generated["new_order"] / total == pytest.approx(0.45, abs=0.03)
        assert wl.generated["payment"] / total == pytest.approx(0.43, abs=0.03)
        for minor in ("order_status", "delivery", "stock_level"):
            assert wl.generated[minor] / total == pytest.approx(0.04, abs=0.02)

    def test_remote_fraction_estimate(self, wl):
        assert wl.remote_fraction() == pytest.approx(
            0.45 * 0.10 + 0.43 * 0.15
        )


class TestNewOrder:
    def test_shape(self, gmap):
        wl = TpccWorkload(gmap)
        rng = random.Random(1)
        spec = wl._new_order(rng)
        tables = Counter(op.table for op in spec.ops)
        assert tables["warehouse"] == 1
        assert tables["district"] == 1
        assert 5 <= tables["stock"] <= 15
        assert tables["stock"] == tables["order_line"] == tables["item"]

    def test_district_write_for_next_oid(self, gmap):
        wl = TpccWorkload(gmap)
        spec = wl._new_order(random.Random(2))
        district_ops = [op for op in spec.ops if op.table == "district"]
        assert district_ops[0].write

    def test_remote_stock_crosses_warehouses(self, gmap):
        wl = TpccWorkload(gmap, TpccConfig(remote_new_order=1.0))
        rng = random.Random(3)
        crossed = 0
        for _ in range(200):
            spec = wl._new_order(rng)
            home = home_warehouse(gmap, spec)
            warehouses = {
                gmap.granule_of(op.key) for op in spec.ops if op.table == "stock"
            }
            if warehouses - {home}:
                crossed += 1
        assert crossed > 100

    def test_local_only_when_disabled(self, gmap):
        wl = TpccWorkload(gmap, TpccConfig(remote_new_order=0.0))
        rng = random.Random(4)
        for _ in range(100):
            spec = wl._new_order(rng)
            home = home_warehouse(gmap, spec)
            assert all(gmap.granule_of(op.key) == home for op in spec.ops)


class TestPayment:
    def test_shape(self, gmap):
        wl = TpccWorkload(gmap)
        spec = wl._payment(random.Random(5))
        tables = [op.table for op in spec.ops]
        assert tables == ["warehouse", "district", "customer", "history"]
        assert all(op.write for op in spec.ops)

    def test_remote_customer(self, gmap):
        wl = TpccWorkload(gmap, TpccConfig(remote_payment=1.0))
        rng = random.Random(6)
        remote = 0
        for _ in range(100):
            spec = wl._payment(rng)
            home = home_warehouse(gmap, spec)
            customer = next(op for op in spec.ops if op.table == "customer")
            if gmap.granule_of(customer.key) != home:
                remote += 1
        assert remote == 100


class TestReadOnlyTxns:
    def test_order_status_reads_only(self, gmap):
        wl = TpccWorkload(gmap)
        spec = wl._order_status(random.Random(7))
        assert all(not op.write for op in spec.ops)

    def test_stock_level_reads_only(self, gmap):
        wl = TpccWorkload(gmap)
        spec = wl._stock_level(random.Random(8))
        assert all(not op.write for op in spec.ops)

    def test_delivery_touches_all_districts(self, gmap):
        wl = TpccWorkload(gmap)
        spec = wl._delivery(random.Random(9))
        orders = sum(1 for op in spec.ops if op.table == "orders")
        assert orders == wl.config.districts_per_warehouse


class TestWarehouseBinding:
    def test_home_warehouse_in_range(self, gmap):
        wl = TpccWorkload(gmap, warehouse_lo=10, warehouse_hi=20)
        rng = random.Random(10)
        for _ in range(200):
            spec = wl.next_txn(rng)
            assert 10 <= home_warehouse(gmap, spec) < 20

    def test_bad_range(self, gmap):
        with pytest.raises(ValueError):
            TpccWorkload(gmap, warehouse_lo=50, warehouse_hi=10)

    def test_single_warehouse_never_remote(self):
        gmap = GranuleMap(num_keys=64, keys_per_granule=64)
        wl = TpccWorkload(gmap, TpccConfig(remote_new_order=1.0, remote_payment=1.0))
        rng = random.Random(11)
        spec = wl._payment(rng)
        assert home_warehouse(gmap, spec) == 0


#: Captured from the parent of the op-set-at-a-time PR (a2d109d); see
#: ``YCSB_STREAMS`` in test_workload_ycsb.py.
TPCC_STREAMS = {
    1: "60f35cff60e836c825bc18579a5e67ca235a983f08bd183d8ee6075870d81118",
    2: "1c99f41c006b9b5f6b9bf5888d3cff9f71b334fcff98bc0056c0436ee89a13d8",
}


@pytest.mark.parametrize("seed", sorted(TPCC_STREAMS))
def test_seeded_mix_stream_is_pinned(seed):
    # 64 warehouses over 4090 keys: the last warehouse's granule is short.
    workload = TpccWorkload(GranuleMap(4090, 64))
    assert stream_digest(workload, seed) == TPCC_STREAMS[seed]
