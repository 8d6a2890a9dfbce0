"""Content-addressed sweep result cache: keys, hits, corruption, parity.

The contract (see ``repro/experiments/cache.py``): a cell result is keyed by
the SHA-256 of its canonical JSON spec — seed included — plus the code
epoch; a warm run returns summaries *bit-identical* to a cold run; serial
and pool execution share the same cache entries (the stored artifact is the
pickled ``RunResult`` either way); corrupt entries and
epoch bumps degrade to misses, never to wrong results; failures are never
cached.
"""

import json
import multiprocessing as mp
import pickle

import pytest

from repro.experiments.cache import CACHE_EPOCH, ResultCache, resolve_cache
from repro.experiments.parallel import CellFailure, ProcessPoolRunner, run_cells
from repro.experiments.result import RunResult
from repro.experiments.spec import (
    ScenarioSpec,
    Sweep,
    TopologySpec,
    WorkloadSpec,
)

HAS_FORK = "fork" in mp.get_all_start_methods()

SEED = 13


def small_base(seed: int = SEED) -> ScenarioSpec:
    """A cheap but non-trivial cell: clients commit real transactions."""
    return ScenarioSpec(
        name="cache-cell",
        topology=TopologySpec(nodes=2),
        workload=WorkloadSpec(kind="ycsb", clients=2, granules=16),
        seed=seed,
        duration=0.6,
        warmup=0.05,
    )


def seed_sweep(seeds=(SEED, SEED + 1)) -> Sweep:
    return Sweep(small_base(), {"seed": list(seeds)})


class TestKeys:
    def test_key_is_stable_and_content_addressed(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b = small_base(), small_base()
        assert cache.key(a) == cache.key(b)
        assert cache.key(a) != cache.key(small_base(seed=SEED + 1))
        assert cache.key(a) != cache.key(a.with_(duration=0.7))

    def test_epoch_is_part_of_the_key(self, tmp_path):
        spec = small_base()
        assert (
            ResultCache(tmp_path, epoch=CACHE_EPOCH).key(spec)
            != ResultCache(tmp_path, epoch=CACHE_EPOCH + "-bumped").key(spec)
        )

    def test_resolve_cache(self, tmp_path):
        assert resolve_cache(None) is None
        cache = resolve_cache(tmp_path / "c")
        assert isinstance(cache, ResultCache)
        assert resolve_cache(cache) is cache
        assert (tmp_path / "c").is_dir()


class TestSerialCache:
    def test_cold_stores_then_warm_hits_bit_identical(self, tmp_path):
        sweep = seed_sweep()
        cache = ResultCache(tmp_path)
        cold = sweep.run(cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 2, "stores": 2}
        warm = sweep.run(cache=cache)
        assert cache.stats() == {"hits": 2, "misses": 2, "stores": 2}
        for (point, c), (wpoint, w) in zip(cold, warm):
            assert point == wpoint
            assert type(w) is RunResult and w.cluster is None
            assert w.summary() == c.summary()
            assert list(w.metrics.latency.values) == list(c.metrics.latency.values)

    def test_uncached_run_matches_cached_run(self, tmp_path):
        sweep = seed_sweep()
        plain = sweep.run()
        cached = sweep.run(cache=tmp_path)
        warm = sweep.run(cache=tmp_path)
        for (_p, a), (_p2, b), (_p3, c) in zip(plain, cached, warm):
            assert a.summary() == b.summary() == c.summary()

    def test_corrupt_entry_is_a_miss_and_is_repaired(self, tmp_path):
        sweep = seed_sweep()
        cache = ResultCache(tmp_path)
        cold = sweep.run(cache=cache)
        # Corrupt the first expanded cell's entry (cells carry sweep-point
        # names, so the key comes from the expanded spec, not the base).
        first_cell = next(iter(sweep.expand()))[1]
        victim = cache.path_for(first_cell)
        victim.write_bytes(b"not a pickle")
        warm_cache = ResultCache(tmp_path)
        assert warm_cache.get(first_cell) is None  # corrupt -> miss, deleted
        assert not victim.exists()
        repaired = sweep.run(cache=warm_cache)
        assert warm_cache.stats()["hits"] == 1  # the untouched sibling
        assert victim.exists()  # the re-run cell was stored again
        assert [r.summary() for _p, r in repaired] == [
            r.summary() for _p, r in cold
        ]

    def test_wrong_object_type_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_base()
        cache.path_for(spec).write_bytes(pickle.dumps({"not": "a result"}))
        assert cache.get(spec) is None
        assert not cache.path_for(spec).exists()
        # An entry written before the result classes were folded into one
        # names a class that no longer exists: unpickling raises, and the
        # "unreadable entry is a miss" rule serves it — no shim, no crash.
        good = pickle.dumps(run_cells([spec])[0], protocol=2)
        name = b"repro.experiments.result\nRunResult\n"
        assert name in good
        stale = good.replace(name, b"repro.experiments.parallel\nPortableRunResult\n")
        cache.path_for(spec).write_bytes(stale)
        assert cache.get(spec) is None
        assert not cache.path_for(spec).exists()
        (repaired,) = run_cells([spec], cache=cache)  # re-executes, re-stores
        assert cache.stats() == {"hits": 0, "misses": 3, "stores": 1}
        assert cache.get(spec).summary() == repaired.summary()

    def test_every_path_returns_the_same_run_result(self, tmp_path):
        """Serial, serial + cold cache, warm cache and a pool hand back one
        type with byte-identical canonical summaries; only a cell executed
        in this process keeps its cluster, and pickling drops it."""
        specs = [spec for _point, spec in seed_sweep().expand()]
        cache = ResultCache(tmp_path)
        paths = {
            "serial": run_cells(specs),
            "cold": run_cells(specs, cache=cache),
            "warm": run_cells(specs, cache=cache),
            "pool": run_cells(specs, workers=2),
        }
        assert cache.stats() == {"hits": 2, "misses": 2, "stores": 2}
        canonical = {
            name: json.dumps(
                [r.summary() for r in results],
                sort_keys=True, separators=(",", ":"),
            )
            for name, results in paths.items()
        }
        assert len(set(canonical.values())) == 1
        for name, results in paths.items():
            live = name in ("serial", "cold")
            for r in results:
                assert type(r) is RunResult and r.ok, name
                assert (r.cluster is not None) == live, name
        live = paths["serial"][0]
        assert pickle.loads(pickle.dumps(live)).cluster is None
        assert live.cluster is not None  # detaching the copy, not the original

    def test_epoch_bump_invalidates_everything(self, tmp_path):
        sweep = seed_sweep()
        sweep.run(cache=ResultCache(tmp_path))
        bumped = ResultCache(tmp_path, epoch=CACHE_EPOCH + "-bumped")
        sweep.run(cache=bumped)
        assert bumped.stats() == {"hits": 0, "misses": 2, "stores": 2}


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
class TestParallelCache:
    def test_parallel_cold_serial_warm_parity(self, tmp_path):
        sweep = seed_sweep()
        cache = ResultCache(tmp_path)
        cold = sweep.run(workers=2, cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 2, "stores": 2}
        warm = sweep.run(cache=cache)  # serial read of pool-written entries
        assert cache.hits == 2
        plain = sweep.run()  # no cache at all: the ground truth
        for (_p, c), (_p2, w), (_p3, p) in zip(cold, warm, plain):
            assert c.summary() == w.summary() == p.summary()

    def test_pool_skips_cached_cells_entirely(self, tmp_path):
        specs = [spec for _point, spec in seed_sweep().expand()]
        cache = ResultCache(tmp_path)
        run_cells(specs, cache=cache)  # serial cold fill
        runner = ProcessPoolRunner(workers=2)
        results = runner.run(specs, cache=cache)
        assert cache.hits == 2
        assert all(type(r) is RunResult and r.cluster is None for r in results)

    def test_partial_fill_executes_only_missing_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = seed_sweep((SEED,))  # single-cell "interrupted" run
        [(_, first_result)] = first.run(cache=cache)
        resumed = seed_sweep((SEED, SEED + 1, SEED + 2))
        results = resumed.run(workers=2, cache=cache)
        assert cache.hits == 1  # only the already-finished cell
        assert cache.stores == 3
        assert results[0][1].summary() == first_result.summary()

    def test_failures_are_not_cached(self, tmp_path):
        from tests.test_parallel_sweep import POISONED

        cache = ResultCache(tmp_path)
        ok = small_base()
        results = ProcessPoolRunner(workers=2).run([ok, POISONED], cache=cache)
        assert type(results[0]) is RunResult
        assert isinstance(results[1], CellFailure)
        assert cache.stores == 1
        assert cache.get(POISONED) is None  # still a miss next time
