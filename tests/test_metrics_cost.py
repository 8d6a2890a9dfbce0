"""Tests for the metrics collector and cost model (§6.1.4-§6.1.5)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cost import CostModel
from repro.cluster.metrics import MetricsCollector, SampleSeries


class TestMetricsCollector:
    def test_throughput_series_buckets(self):
        m = MetricsCollector(bucket=1.0)
        for t in (0.1, 0.5, 1.2, 2.9):
            m.record_commit(t, 0.01)
        series = dict(m.throughput_series(until=3.0))
        assert series[0.0] == 2 and series[1.0] == 1 and series[2.0] == 1

    def test_sub_second_buckets(self):
        m = MetricsCollector(bucket=0.5)
        m.record_commit(0.6, 0.01)
        series = dict(m.throughput_series(until=1.0))
        assert series[0.5] == pytest.approx(2.0)  # 1 txn / 0.5 s

    def test_abort_ratio_series(self):
        m = MetricsCollector()
        m.record_commit(0.1, 0.01)
        m.record_abort(0.2, "lock_conflict")
        m.record_abort(0.3, "lock_conflict")
        series = dict(m.abort_ratio_series(until=1.0))
        assert series[0.0] == pytest.approx(2 / 3)

    def test_abort_ratio_empty_bucket_is_zero(self):
        m = MetricsCollector()
        assert dict(m.abort_ratio_series(until=2.0))[1.0] == 0.0

    def test_abort_reasons_tallied(self):
        m = MetricsCollector()
        m.record_abort(0.1, "timeout")
        m.record_abort(0.2, "timeout")
        m.record_abort(0.3, "wrong_node")
        assert m.abort_reasons == {"timeout": 2, "wrong_node": 1}

    def test_migration_duration(self):
        m = MetricsCollector()
        m.record_migration(5.0)
        m.record_migration(7.5)
        m.record_migration(6.0)
        assert m.migration_duration == pytest.approx(2.5)

    def test_migration_duration_empty(self):
        assert MetricsCollector().migration_duration == 0.0

    def test_latency_stats(self):
        m = MetricsCollector()
        for latency in (0.01, 0.02, 0.03, 0.04):
            m.record_commit(0.5, latency)
        stats = m.latency_stats()
        assert stats["mean"] == pytest.approx(0.025)
        assert stats["p50"] == pytest.approx(0.025)

    def test_latency_series_percentile(self):
        m = MetricsCollector()
        for latency in (0.01, 0.09):
            m.record_commit(0.5, latency)
        series = dict(m.latency_series(until=1.0, pct=50.0))
        assert series[0.0] == pytest.approx(0.05)

    def test_migration_latency_stats(self):
        m = MetricsCollector()
        m.record_migration(1.0, latency=0.004)
        m.record_migration(1.1, latency=0.006)
        assert m.migration_latency_stats()["mean"] == pytest.approx(0.005)

    def test_node_seconds_integration(self):
        m = MetricsCollector()
        m.record_node_count(0.0, 2)
        m.record_node_count(10.0, 4)
        assert m.node_seconds(until=20.0) == pytest.approx(2 * 10 + 4 * 10)

    def test_node_seconds_clamped_to_until(self):
        m = MetricsCollector()
        m.record_node_count(0.0, 2)
        m.record_node_count(50.0, 8)
        assert m.node_seconds(until=10.0) == pytest.approx(20.0)

    def test_node_seconds_empty(self):
        assert MetricsCollector().node_seconds(10.0) == 0.0

    def test_node_count_must_be_monotonic(self):
        m = MetricsCollector()
        m.record_node_count(5.0, 2)
        with pytest.raises(ValueError):
            m.record_node_count(4.0, 3)

    def test_node_count_equal_times_allowed(self):
        m = MetricsCollector()
        m.record_node_count(5.0, 2)
        m.record_node_count(5.0, 3)
        assert m.node_seconds(until=6.0) == pytest.approx(3.0)

    def test_series_cache_invalidated_by_new_records(self):
        m = MetricsCollector()
        m.record_commit(0.5, 0.01)
        assert dict(m.throughput_series(until=1.0))[0.0] == 1
        assert dict(m.latency_series(until=1.0))[0.0] == pytest.approx(0.01)
        m.record_commit(0.6, 0.03)
        assert dict(m.throughput_series(until=1.0))[0.0] == 2
        assert dict(m.latency_series(until=1.0))[0.0] == pytest.approx(0.02)

    def test_latencies_view_reconstructs_buckets(self):
        m = MetricsCollector(bucket=1.0)
        m.record_commit(0.2, 0.01)
        m.record_commit(1.7, 0.02)
        m.record_commit(0.9, 0.03)
        assert list(m.latency.window(0.0, 1.0)) == [0.01, 0.03]
        assert list(m.latency.window(1.0, 2.0)) == [0.02]
        assert list(m.latency.window(0.0, 2.0)) == [0.01, 0.03, 0.02]

    def test_latency_series_out_of_order_commits(self):
        # Commit times are usually monotonic (sim time) but the collector
        # must not rely on it for correctness of the grouped series.
        m = MetricsCollector()
        m.record_commit(2.5, 0.04)
        m.record_commit(0.5, 0.01)
        m.record_commit(2.6, 0.06)
        series = dict(m.latency_series(until=3.0))
        assert series[0.0] == pytest.approx(0.01)
        assert series[1.0] == 0.0
        assert series[2.0] == pytest.approx(0.05)


class TestSampleSeries:
    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(
                st.floats(0.0, 50.0), st.floats(0.0, 1e6, allow_nan=False)
            ),
            max_size=60,
        ),
        bucket=st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0, 2.5]),
        t0=st.floats(-1.0, 55.0),
        t1=st.floats(-1.0, 55.0),
        pct=st.floats(0.0, 100.0),
    )
    def test_window_is_the_brute_force_bucket_filter(
        self, samples, bucket, t0, t1, pct
    ):
        """``window`` selects by ``t0 <= b * bucket < t1`` — the predicate the
        per-bucket dict builders applied — and percentile / max over it are
        bit-identical to the same statistics of the filtered list."""
        series = SampleSeries(bucket)
        expected = []
        for t, value in samples:
            b = int(t // bucket)
            series.add(b, value)
            if t0 <= b * bucket < t1:
                expected.append(value)
        window = series.window(t0, t1)
        assert sorted(window) == sorted(expected)
        if expected:
            assert float(np.percentile(window, pct)) == float(
                np.percentile(expected, pct)
            )
            assert float(window.max()) == float(max(expected))
        series.add(0, 1.0)  # the memoised view must not pin the buffers
        assert len(series.window(-1.0, bucket)) == len(
            [1 for t, _v in samples if int(t // bucket) == 0]
        ) + 1

    def test_stats_and_pickle_drop_the_memo(self):
        import pickle

        series = SampleSeries(1.0)
        assert series.stats() == {"mean": 0.0, "p50": 0.0, "p99": 0.0}
        for b, value in ((2, 3.0), (0, 1.0), (2, 2.0)):
            series.add(b, value)
        assert series.stats()["mean"] == 2.0
        ids, starts, values = series.grouped()
        assert (list(ids), list(starts), list(values)) == (
            [0, 2, 2], [0.0, 2.0, 2.0], [1.0, 3.0, 2.0]
        )
        clone = pickle.loads(pickle.dumps(series))
        assert clone._grouped is None
        assert list(clone.window(2.0, 3.0)) == [3.0, 2.0]


class TestCostModel:
    def _metrics(self, nodes=4, committed=1000, duration=100.0):
        m = MetricsCollector()
        m.record_node_count(0.0, nodes)
        for i in range(committed):
            m.record_commit(duration * i / committed, 0.01)
        return m

    def test_db_cost(self):
        model = CostModel(compute_hourly=0.192)
        report = model.price(self._metrics(nodes=4), duration=3600.0)
        assert report.db_cost == pytest.approx(4 * 0.192)

    def test_meta_cost_zero_for_marlin(self):
        model = CostModel(compute_hourly=0.192, coordination_hourly=0.0)
        report = model.price(self._metrics(), duration=3600.0)
        assert report.meta_cost == 0.0
        assert report.meta_fraction == 0.0

    def test_meta_cost_for_zk(self):
        model = CostModel(compute_hourly=0.192, coordination_hourly=0.597)
        report = model.price(self._metrics(), duration=3600.0)
        assert report.meta_cost == pytest.approx(0.597)

    def test_cost_per_million(self):
        model = CostModel(compute_hourly=0.192)
        report = model.price(
            self._metrics(nodes=1, committed=1000), duration=3600.0
        )
        assert report.cost_per_million_txns == pytest.approx(0.192 / 1000 * 1e6)

    def test_cost_per_million_no_txns(self):
        model = CostModel(compute_hourly=0.192)
        report = model.price(self._metrics(committed=0), duration=100.0)
        assert report.cost_per_million_txns == float("inf")

    def test_geo_multiple_coordination_clusters(self):
        """§6.5: one ZK per region would multiply Meta Cost."""
        one = CostModel(0.192, 0.597, coordination_clusters=1)
        four = CostModel(0.192, 0.597, coordination_clusters=4)
        m = self._metrics()
        assert four.price(m, 3600.0).meta_cost == pytest.approx(
            4 * one.price(m, 3600.0).meta_cost
        )

    def test_realtime_cost_series_steps(self):
        model = CostModel(compute_hourly=3600.0)  # $1/sec/node for readability
        m = MetricsCollector()
        m.record_node_count(0.0, 1)
        m.record_node_count(5.0, 3)
        series = dict(model.realtime_cost_series(m, until=8.0, bucket=1.0))
        assert series[0.0] == pytest.approx(1.0)
        assert series[6.0] == pytest.approx(3.0)

    def test_realtime_cost_includes_meta(self):
        model = CostModel(compute_hourly=0.0, coordination_hourly=3600.0)
        m = MetricsCollector()
        m.record_node_count(0.0, 5)
        series = dict(model.realtime_cost_series(m, until=2.0))
        assert series[1.0] == pytest.approx(1.0)
