"""Unit tests for the clock-replacement cache manager."""

import random

import pytest

from repro.engine.buffer import MISS, CacheManager


class TestBasics:
    def test_miss_then_hit(self):
        cache = CacheManager(4)
        assert cache.get("p1") is MISS
        cache.put("p1", "v1")
        assert cache.get("p1") == "v1"
        assert cache.hits == 1 and cache.misses == 1

    def test_update_in_place(self):
        cache = CacheManager(4)
        cache.put("p1", "old")
        cache.put("p1", "new")
        assert cache.get("p1") == "new"
        assert len(cache) == 1

    def test_cached_none_is_not_miss(self):
        cache = CacheManager(4)
        cache.put("p1", None)
        assert cache.get("p1") is None

    def test_contains_and_len(self):
        cache = CacheManager(4)
        cache.put("a", 1)
        assert "a" in cache and "b" not in cache
        assert len(cache) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CacheManager(0)

    def test_hit_ratio(self):
        cache = CacheManager(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hit_ratio == pytest.approx(0.5)


class TestClockEviction:
    def test_evicts_when_full(self):
        cache = CacheManager(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("c") == 3

    def test_second_chance_protects_referenced(self):
        cache = CacheManager(2)
        cache.put("a", 1)
        cache.put("b", 2)
        # Reference "a" so its ref bit survives one clock sweep; the clock
        # clears both ref bits then evicts "a" (hand order) only after "b".
        cache.get("a")  # ref(a)=1
        cache.put("c", 3)
        # "a" was re-referenced: after one sweep, a victim must be found among
        # pages with ref=0; "b" was not re-referenced after insertion sweep.
        assert "c" in cache
        assert len(cache) == 2

    def test_all_referenced_still_evicts_one(self):
        cache = CacheManager(3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        for key in ("a", "b", "c"):
            cache.get(key)
        cache.put("d", "d")
        assert len(cache) == 3
        assert "d" in cache

    def test_eviction_order_unreferenced_first(self):
        cache = CacheManager(3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("b")
        cache.get("c")
        cache.put("d", 4)  # "a" has ref from insert; sweep clears, evicts a
        cache.put("e", 5)
        assert "d" in cache and "e" in cache

    def test_pinned_pages_never_evicted(self):
        cache = CacheManager(2)
        cache.put("a", 1)
        cache.pin("a")
        cache.put("b", 2)
        cache.put("c", 3)
        cache.put("d", 4)
        assert cache.get("a") == 1
        cache.unpin("a")

    def test_all_pinned_raises(self):
        cache = CacheManager(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.pin("a")
        cache.pin("b")
        with pytest.raises(RuntimeError):
            cache.put("c", 3)

    def test_heavy_churn_respects_capacity(self):
        cache = CacheManager(16)
        for i in range(1000):
            cache.put(i, i)
        assert len(cache) == 16
        assert cache.evictions == 1000 - 16


class TestInvalidate:
    def test_invalidate_cached(self):
        cache = CacheManager(4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.get("a") is MISS

    def test_invalidate_missing(self):
        cache = CacheManager(4)
        assert cache.invalidate("nope") is False

    def test_hole_is_reused(self):
        cache = CacheManager(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.invalidate("a")
        cache.put("c", 3)
        assert "b" in cache and "c" in cache

    def test_clear(self):
        cache = CacheManager(4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is MISS
        cache.put("b", 2)  # usable after clear
        assert cache.get("b") == 2


class TestBulkOps:
    """``probe``/``refresh`` against the ``get``/``put`` loops they replaced
    on the user-transaction path: same verdicts, counters and ref bits."""

    UNIVERSE = [("t", page) for page in range(12)]

    def _pair(self, rng):
        """Two caches with one random history: fills, evictions, holes and
        (at most one at a time, so eviction always finds a victim) a pin."""
        caches = CacheManager(5), CacheManager(5)
        pinned = None
        for _ in range(rng.randrange(4, 30)):
            key = rng.choice(self.UNIVERSE)
            roll = rng.random()
            for cache in caches:
                if roll < 0.6:
                    cache.put(key, "old")
                elif roll < 0.8:
                    cache.get(key)
                elif roll < 0.9:
                    cache.invalidate(key)
                else:
                    cache.unpin(pinned)
                    cache.pin(key)
            if roll >= 0.9:
                pinned = key
        return caches

    def _assert_same_state(self, bulk, loop):
        assert (bulk.hits, bulk.misses, bulk.evictions) == (
            loop.hits, loop.misses, loop.evictions
        )
        cached = [key for key in self.UNIVERSE if key in bulk]
        assert cached == [key for key in self.UNIVERSE if key in loop]
        # Equal ref bits <=> the clock picks the same victims from here on.
        for page in range(100, 112):
            for cache in (bulk, loop):
                cache.put(("t", page), "new")
            assert [k for k in self.UNIVERSE if k in bulk] == [
                k for k in self.UNIVERSE if k in loop
            ]
        assert bulk.evictions == loop.evictions

    @pytest.mark.parametrize("seed", range(40))
    def test_probe_matches_get_loop(self, seed):
        rng = random.Random(seed)
        bulk, loop = self._pair(rng)
        keys = [rng.choice(self.UNIVERSE) for _ in range(rng.randrange(0, 20))]
        assert bulk.probe(keys) == [key for key in keys if loop.get(key) is MISS]
        self._assert_same_state(bulk, loop)

    @pytest.mark.parametrize("seed", range(40))
    def test_refresh_matches_get_then_put_loop(self, seed):
        rng = random.Random(seed)
        bulk, loop = self._pair(rng)
        keys = [rng.choice(self.UNIVERSE) for _ in range(rng.randrange(0, 20))]
        bulk.refresh(keys, "fresh")
        for key in keys:
            if loop.get(key) is not MISS:
                loop.put(key, "fresh")
        # Not via get(): comparing values must not touch the ref bits.
        values = [
            [cache._values[cache._index[key]] for key in self.UNIVERSE if key in cache]
            for cache in (bulk, loop)
        ]
        assert values[0] == values[1]
        assert len(bulk) == len(loop) <= 5  # refresh inserted nothing
        self._assert_same_state(bulk, loop)


# -- reference model -----------------------------------------------------------


class _Frame:
    __slots__ = ("key", "value", "ref", "pinned")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.ref = True
        self.pinned = False


_REF_HOLE = object()


class FrameClock:
    """The clock cache as it was written with one ``_Frame`` object per
    cached page — the reference the parallel-array ``CacheManager`` must
    match operation for operation."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._frames = []
        self._index = {}
        self._hand = 0
        self.hits = self.misses = self.evictions = 0

    def __contains__(self, key):
        return key in self._index

    def get(self, key):
        slot = self._index.get(key)
        if slot is None:
            self.misses += 1
            return MISS
        frame = self._frames[slot]
        frame.ref = True
        self.hits += 1
        return frame.value

    def probe(self, keys):
        missing = []
        for key in keys:
            slot = self._index.get(key)
            if slot is None:
                missing.append(key)
            else:
                self._frames[slot].ref = True
        self.misses += len(missing)
        self.hits += len(keys) - len(missing)
        return missing

    def refresh(self, keys, value):
        hits = 0
        for key in keys:
            slot = self._index.get(key)
            if slot is not None:
                frame = self._frames[slot]
                frame.value = value
                frame.ref = True
                hits += 1
        self.hits += hits
        self.misses += len(keys) - hits

    def put(self, key, value):
        slot = self._index.get(key)
        if slot is not None:
            frame = self._frames[slot]
            frame.value = value
            frame.ref = True
            return
        if len(self._frames) < self.capacity:
            self._index[key] = len(self._frames)
            self._frames.append(_Frame(key, value))
            return
        slot = self._find_victim()
        victim = self._frames[slot]
        if victim.key is not _REF_HOLE:
            del self._index[victim.key]
            self.evictions += 1
        self._frames[slot] = _Frame(key, value)
        self._index[key] = slot

    def _find_victim(self):
        spins = 0
        limit = 2 * self.capacity + 1
        while True:
            frame = self._frames[self._hand]
            slot = self._hand
            self._hand = (self._hand + 1) % self.capacity
            if frame.pinned:
                spins += 1
            elif frame.ref:
                frame.ref = False
                spins += 1
            else:
                return slot
            if spins > limit:
                raise RuntimeError("cache: all pages pinned, cannot evict")

    def pin(self, key):
        slot = self._index.get(key)
        if slot is not None:
            self._frames[slot].pinned = True

    def unpin(self, key):
        slot = self._index.get(key)
        if slot is not None:
            self._frames[slot].pinned = False

    def invalidate(self, key):
        slot = self._index.pop(key, None)
        if slot is None:
            return False
        self._frames[slot] = _Frame(_REF_HOLE, None)
        self._frames[slot].ref = False
        self.evictions += 1
        return True

    def clear(self):
        self._frames.clear()
        self._index.clear()
        self._hand = 0


class TestAgainstFrameClock:
    """Seeded random histories of every operation at small capacities: the
    same verdicts, values, counters, cached key set after every step (so the
    same victims, in the same order) and the same clock hand."""

    UNIVERSE = [("t", page) for page in range(10)]

    @staticmethod
    def _apply(cache, op, args):
        try:
            return getattr(cache, op)(*args)
        except RuntimeError as err:  # every page pinned: both must refuse
            return ("refused", str(err))

    @pytest.mark.parametrize("seed", range(60))
    def test_same_history(self, seed):
        rng = random.Random(seed)
        capacity = rng.randint(1, 6)
        cache, model = CacheManager(capacity), FrameClock(capacity)
        for step in range(rng.randrange(20, 200)):
            key = rng.choice(self.UNIVERSE)
            op = rng.choices(
                ("get", "probe", "refresh", "put", "pin", "unpin", "invalidate",
                 "clear"),
                weights=(20, 10, 8, 35, 8, 8, 8, 1),
            )[0]
            if op in ("probe", "refresh"):
                keys = [rng.choice(self.UNIVERSE) for _ in range(rng.randrange(6))]
                args = (keys,) if op == "probe" else (keys, step)
            elif op == "put":
                args = (key, step)
            elif op == "clear":
                args = ()
            else:
                args = (key,)
            assert self._apply(cache, op, args) == self._apply(model, op, args), (
                step, op, args,
            )
            assert (cache.hits, cache.misses, cache.evictions) == (
                model.hits, model.misses, model.evictions
            )
            assert [k for k in self.UNIVERSE if k in cache] == [
                k for k in self.UNIVERSE if k in model
            ]
            assert cache._hand == model._hand
        assert len(cache) == len(model._index)
