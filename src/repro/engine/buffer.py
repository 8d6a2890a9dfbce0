"""Buffer cache with clock (second-chance) replacement (§5).

"The cache manager uses the clock replacement algorithm.  On a read miss, the
page is fetched from the disaggregated storage."  Dirty pages are simply
dropped on eviction — under the log-as-the-database paradigm the WAL is the
ground truth and nothing is written back.
"""

from __future__ import annotations

from typing import Dict, Sequence

__all__ = ["CacheManager", "MISS"]


class _Miss:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<MISS>"


#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = _Miss()


class _Hole:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<HOLE>"


#: The key of an invalidated frame: clock treats it as immediately reusable.
_HOLE = _Hole()


class CacheManager:
    """A fixed-capacity page cache using the clock algorithm.

    Frame ``i`` is four parallel entries: ``_keys[i]``, ``_values[i]`` and
    its clock bits ``_ref[i]`` and ``_pinned[i]`` (0 or 1, in bytearrays) —
    no object per cached page for the cyclic collector to walk.
    """

    __slots__ = (
        "capacity", "_keys", "_values", "_ref", "_pinned", "_index", "_hand",
        "hits", "misses", "evictions",
    )

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._keys: list = []
        self._values: list = []
        self._ref = bytearray()
        self._pinned = bytearray()
        self._index: Dict[object, int] = {}
        self._hand = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key) -> bool:
        return key in self._index

    def get(self, key):
        """Return the cached value or :data:`MISS`; hits set the ref bit."""
        slot = self._index.get(key)
        if slot is None:
            self.misses += 1
            return MISS
        self._ref[slot] = 1
        self.hits += 1
        return self._values[slot]

    def probe(self, keys: Sequence) -> list:
        """Bulk :meth:`get` that keeps only the verdicts: each cached key has
        its ref bit set and counts a hit; each uncached key counts a miss and
        is returned — in order, repeats included."""
        index, ref = self._index, self._ref
        missing = []
        for key in keys:
            slot = index.get(key)
            if slot is None:
                missing.append(key)
            else:
                ref[slot] = 1
        self.misses += len(missing)
        self.hits += len(keys) - len(missing)
        return missing

    def refresh(self, keys: Sequence, value) -> None:
        """Bulk "``put`` if cached": each cached key takes ``value`` and a
        set ref bit and counts a hit; an uncached key counts a miss and stays
        out (nothing is inserted, so nothing is evicted)."""
        index, values, ref = self._index, self._values, self._ref
        hits = 0
        for key in keys:
            slot = index.get(key)
            if slot is not None:
                values[slot] = value
                ref[slot] = 1
                hits += 1
        self.hits += hits
        self.misses += len(keys) - hits

    def put(self, key, value) -> None:
        """Insert or update; may evict one unpinned page (dropped, no writeback)."""
        slot = self._index.get(key)
        if slot is not None:
            self._values[slot] = value
            self._ref[slot] = 1
            return
        keys = self._keys
        if len(keys) < self.capacity:
            self._index[key] = len(keys)
            keys.append(key)
            self._values.append(value)
            self._ref.append(1)
            self._pinned.append(0)
            return
        slot = self._find_victim()
        victim = keys[slot]
        if victim is not _HOLE:
            del self._index[victim]
            self.evictions += 1
        keys[slot] = key
        self._values[slot] = value
        self._ref[slot] = 1
        self._pinned[slot] = 0
        self._index[key] = slot

    def _find_victim(self) -> int:
        ref, pinned = self._ref, self._pinned
        spins = 0
        limit = 2 * self.capacity + 1
        while True:
            slot = self._hand
            self._hand = (slot + 1) % self.capacity
            if pinned[slot]:
                spins += 1
            elif ref[slot]:
                ref[slot] = 0
                spins += 1
            else:
                return slot
            if spins > limit:
                raise RuntimeError("cache: all pages pinned, cannot evict")

    def pin(self, key) -> None:
        slot = self._index.get(key)
        if slot is not None:
            self._pinned[slot] = 1

    def unpin(self, key) -> None:
        slot = self._index.get(key)
        if slot is not None:
            self._pinned[slot] = 0

    def invalidate(self, key) -> bool:
        """Drop one page (e.g. granule handed off); True if it was cached."""
        slot = self._index.pop(key, None)
        if slot is None:
            return False
        # Leave a hole that clock treats as immediately reusable.
        self._keys[slot] = _HOLE
        self._values[slot] = None
        self._ref[slot] = 0
        self._pinned[slot] = 0
        self.evictions += 1
        return True

    def clear(self) -> None:
        """Drop everything (node crash: caches are volatile)."""
        self._keys.clear()
        self._values.clear()
        self._ref.clear()
        self._pinned.clear()
        self._index.clear()
        self._hand = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
