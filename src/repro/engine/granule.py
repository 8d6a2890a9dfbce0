"""Granules: fine-grained, fixed-size partitions of the key space (§4.1).

The paper uses 64 KB granules as the unit of data ownership and migration.
Keys here are integers; a granule covers a contiguous half-open key range.
This module also provides the placement helpers the autoscaler uses: an
initial contiguous assignment and a minimal-move rebalance planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "Granule",
    "GranuleMap",
    "contiguous_assignment",
    "rebalance_plan",
]


@dataclass(frozen=True, slots=True)
class Granule:
    """A contiguous key range ``[lo, hi)`` identified by ``gid``."""

    gid: int
    lo: int
    hi: int

    def __contains__(self, key: int) -> bool:
        return self.lo <= key < self.hi


class GranuleMap:
    """Partitions the integer key space ``[0, num_keys)`` into equal granules."""

    __slots__ = ("num_keys", "keys_per_granule", "num_granules")

    def __init__(self, num_keys: int, keys_per_granule: int):
        if num_keys <= 0 or keys_per_granule <= 0:
            raise ValueError("num_keys and keys_per_granule must be positive")
        self.num_keys = num_keys
        self.keys_per_granule = keys_per_granule
        self.num_granules = (num_keys + keys_per_granule - 1) // keys_per_granule

    def granule_of(self, key: int) -> int:
        if not 0 <= key < self.num_keys:
            raise KeyError(f"key {key} outside [0, {self.num_keys})")
        return key // self.keys_per_granule

    def span(self, gid: int) -> Tuple[int, int]:
        """``(lo, width)`` of granule ``gid``'s key range: what a generator
        needs to draw a key in it, without building a :class:`Granule`."""
        if not 0 <= gid < self.num_granules:
            raise KeyError(f"granule {gid} outside [0, {self.num_granules})")
        lo = gid * self.keys_per_granule
        return lo, min(self.keys_per_granule, self.num_keys - lo)

    def granule(self, gid: int) -> Granule:
        lo, width = self.span(gid)
        return Granule(gid, lo, lo + width)


def contiguous_assignment(
    num_granules: int, node_ids: Sequence[int]
) -> Dict[int, int]:
    """Assign granules to nodes in contiguous runs (range partitioning).

    Matches the paper's YCSB setup: tables "partitioned into granules across
    servers by range on the primary key".
    """
    if not node_ids:
        raise ValueError("need at least one node")
    nodes = list(node_ids)
    assignment: Dict[int, int] = {}
    base, extra = divmod(num_granules, len(nodes))
    gid = 0
    for i, node in enumerate(nodes):
        count = base + (1 if i < extra else 0)
        for _ in range(count):
            assignment[gid] = node
            gid += 1
    return assignment


def rebalance_plan(
    current: Dict[int, int], target_nodes: Sequence[int]
) -> List[Tuple[int, int, int]]:
    """Plan ``(granule, src, dst)`` moves that even out granule counts.

    Minimal-move: granules already on a target node stay put; overfull nodes
    donate their highest-numbered granules to underfull ones.  Deterministic
    for reproducibility (sorted iteration everywhere).
    """
    targets = sorted(set(target_nodes))
    if not targets:
        raise ValueError("need at least one target node")
    total = len(current)
    base, extra = divmod(total, len(targets))
    quota = {
        node: base + (1 if i < extra else 0) for i, node in enumerate(targets)
    }

    held: Dict[int, List[int]] = {node: [] for node in targets}
    homeless: List[int] = []
    for gid in sorted(current):
        owner = current[gid]
        if owner in held:
            held[owner].append(gid)
        else:
            homeless.append(gid)  # owner is being removed (scale-in / failover)

    surplus: List[Tuple[int, int]] = []  # (granule, src)
    for node in targets:
        over = len(held[node]) - quota[node]
        if over > 0:
            for gid in held[node][-over:]:
                surplus.append((gid, node))
    for gid in homeless:
        surplus.append((gid, current[gid]))

    moves: List[Tuple[int, int, int]] = []
    deficits: List[int] = []
    for node in targets:
        deficits.extend([node] * max(0, quota[node] - len(held[node])))
    for (gid, src), dst in zip(surplus, deficits):
        moves.append((gid, src, dst))
    return moves
