"""Buffer cache with clock (second-chance) replacement (§5).

"The cache manager uses the clock replacement algorithm.  On a read miss, the
page is fetched from the disaggregated storage."  Dirty pages are simply
dropped on eviction — under the log-as-the-database paradigm the WAL is the
ground truth and nothing is written back.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = ["CacheManager", "MISS"]


class _Miss:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<MISS>"


#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = _Miss()


class _Frame:
    __slots__ = ("key", "value", "ref", "pinned")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.ref = True
        self.pinned = False


class CacheManager:
    """A fixed-capacity page cache using the clock algorithm."""

    __slots__ = (
        "capacity", "_frames", "_index", "_hand", "hits", "misses",
        "evictions",
    )

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._frames: List[Optional[_Frame]] = []
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
        frame = self._frames[slot]
        frame.ref = True
        self.hits += 1
        return frame.value

    def probe(self, keys: Sequence) -> list:
        """Bulk :meth:`get` that keeps only the verdicts: each cached key has
        its ref bit set and counts a hit; each uncached key counts a miss and
        is returned — in order, repeats included."""
        index, frames = self._index, self._frames
        missing = []
        for key in keys:
            slot = index.get(key)
            if slot is None:
                missing.append(key)
            else:
                frames[slot].ref = True
        self.misses += len(missing)
        self.hits += len(keys) - len(missing)
        return missing

    def refresh(self, keys: Sequence, value) -> None:
        """Bulk "``put`` if cached": each cached key takes ``value`` and a
        set ref bit and counts a hit; an uncached key counts a miss and stays
        out (nothing is inserted, so nothing is evicted)."""
        index, frames = self._index, self._frames
        hits = 0
        for key in keys:
            slot = index.get(key)
            if slot is not None:
                frame = frames[slot]
                frame.value = value
                frame.ref = True
                hits += 1
        self.hits += hits
        self.misses += len(keys) - hits

    def put(self, key, value) -> None:
        """Insert or update; may evict one unpinned page (dropped, no writeback)."""
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
        if victim.key is not _HOLE:
            del self._index[victim.key]
            self.evictions += 1
        self._frames[slot] = _Frame(key, value)
        self._index[key] = slot

    def _find_victim(self) -> int:
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

    def pin(self, key) -> None:
        slot = self._index.get(key)
        if slot is not None:
            self._frames[slot].pinned = True

    def unpin(self, key) -> None:
        slot = self._index.get(key)
        if slot is not None:
            self._frames[slot].pinned = False

    def invalidate(self, key) -> bool:
        """Drop one page (e.g. granule handed off); True if it was cached."""
        slot = self._index.pop(key, None)
        if slot is None:
            return False
        # Leave a hole that clock treats as immediately reusable.
        self._frames[slot] = _Frame(_HOLE, None)
        self._frames[slot].ref = False
        self.evictions += 1
        return True

    def clear(self) -> None:
        """Drop everything (node crash: caches are volatile)."""
        self._frames.clear()
        self._index.clear()
        self._hand = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Hole:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<HOLE>"


_HOLE = _Hole()
