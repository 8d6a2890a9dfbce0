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


class CacheManager:
    """A fixed-capacity page cache using the clock algorithm.

    Frame ``i`` is three parallel entries: ``_keys[i]``, ``_values[i]`` and
    its reference bit ``_ref[i]`` (0 or 1, in a bytearray) — no object per
    cached page for the cyclic collector to walk.
    """

    __slots__ = (
        "capacity", "_keys", "_values", "_ref", "_index", "_hand",
        "hits", "misses", "evictions",
    )

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._keys: list = []
        self._values: list = []
        self._ref = bytearray()
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
        """Insert or update; may evict one page (dropped, no writeback)."""
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
            return
        slot = self._find_victim()
        del self._index[keys[slot]]
        self.evictions += 1
        keys[slot] = key
        self._values[slot] = value
        self._ref[slot] = 1
        self._index[key] = slot

    def _find_victim(self) -> int:
        """Advance the hand past referenced frames (clearing their bit) to
        the first unreferenced one; at most one lap, since a full lap
        clears every bit."""
        ref = self._ref
        while True:
            slot = self._hand
            self._hand = (slot + 1) % self.capacity
            if not ref[slot]:
                return slot
            ref[slot] = 0
