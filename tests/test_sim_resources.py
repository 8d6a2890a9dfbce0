"""Unit tests for CPU resources."""

import pytest

from repro.sim.core import SimError, Simulator, Timeout
from repro.sim.resources import CpuResource


@pytest.fixture
def sim():
    return Simulator(seed=1)


class TestCpuResource:
    def test_single_worker_serializes_jobs(self, sim):
        cpu = CpuResource(sim, workers=1)
        finished = []

        def job(name):
            yield from cpu.run(1.0)
            finished.append((name, sim.now))

        sim.spawn(job("a"))
        sim.spawn(job("b"))
        sim.run()
        assert finished == [("a", 1.0), ("b", 2.0)]

    def test_parallel_workers(self, sim):
        cpu = CpuResource(sim, workers=2)
        finished = []

        def job(name):
            yield from cpu.run(1.0)
            finished.append((name, sim.now))

        for name in ("a", "b", "c"):
            sim.spawn(job(name))
        sim.run()
        assert finished == [("a", 1.0), ("b", 1.0), ("c", 2.0)]

    def test_fifo_queueing(self, sim):
        cpu = CpuResource(sim, workers=1)
        order = []

        def job(name, start_delay):
            yield Timeout(start_delay)
            yield from cpu.run(1.0)
            order.append(name)

        sim.spawn(job("late", 0.2))
        sim.spawn(job("early", 0.1))
        sim.spawn(job("first", 0.0))
        sim.run()
        assert order == ["first", "early", "late"]

    def test_saturation_throughput(self, sim):
        """4 workers x 10ms service => max 400 jobs/sec."""
        cpu = CpuResource(sim, workers=4)
        done = []

        def job():
            yield from cpu.run(0.01)
            done.append(sim.now)

        for _ in range(100):
            sim.spawn(job())
        sim.run()
        assert max(done) == pytest.approx(100 * 0.01 / 4)

    def test_utilization_tracking(self, sim):
        cpu = CpuResource(sim, workers=2)

        def job():
            yield from cpu.run(1.0)

        sim.spawn(job())
        sim.run()
        assert cpu.busy_time == pytest.approx(1.0)
        assert cpu.utilization(elapsed=1.0) == pytest.approx(0.5)
        assert cpu.jobs_completed == 1

    def test_in_use_and_queued(self, sim):
        cpu = CpuResource(sim, workers=1)

        def job():
            yield from cpu.run(5.0)

        sim.spawn(job())
        sim.spawn(job())
        sim.run(until=1.0)
        assert cpu.in_use == 1
        assert cpu.queued == 1

    def test_release_without_acquire_raises(self, sim):
        cpu = CpuResource(sim, workers=1)
        with pytest.raises(SimError):
            cpu.release()

    def test_needs_positive_workers(self, sim):
        with pytest.raises(ValueError):
            CpuResource(sim, workers=0)

    def test_utilization_zero_elapsed(self, sim):
        cpu = CpuResource(sim, workers=1)
        assert cpu.utilization(0.0) == 0.0
