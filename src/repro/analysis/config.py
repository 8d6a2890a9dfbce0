"""Module classification for detlint: which rules apply where.

Rules are scoped by *reachability tags* rather than per-file switches.  A
file's repo-relative path (the part from ``repro/`` down) is matched against
ordered prefix lists:

``tooling``
    Code that never runs inside a seeded simulation: the analyzer itself,
    the experiments CLI, the process-pool worker plumbing (which legitimately
    uses wall-clock timeouts and pids), the result cache (atomic-rename
    tempfiles keyed by pid), golden snapshots, and trace exporters.  Files
    outside any ``repro`` package (tests, benchmarks, examples) are tooling
    too.

``sim``
    Everything else under ``repro/`` — code reachable from a seeded run,
    where wall-clock reads, unseeded RNG, id()-ordering and process-global
    counters break bit-identical replay.

Structural tags refine ``sim``/``tooling`` for the narrower rules:

``hot-path``
    ``sim/`` and ``engine/`` — the per-event/per-txn code where ``__slots__``
    is advised (DET105).

``pool-crossing``
    ``cluster/`` and ``experiments/`` — modules whose objects ride inside
    ``RunResult``/``CellFailure`` across the process pool, where a
    pickled memo cache is a payload bug (DET106).

``coord-core``
    ``coord/`` and ``core/`` — the coordination protocols, where an
    identity-keyed comprehension silently orders by ``id()`` (DET107).

A fixture or generated file can override classification with a pragma in its
first few lines::

    # detlint: scope=sim,hot-path
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Optional, Set

__all__ = [
    "KNOWN_TAGS",
    "repo_relative",
    "tags_for_path",
]

#: Every tag a pragma may name.
KNOWN_TAGS = frozenset(
    {"sim", "tooling", "hot-path", "pool-crossing", "coord-core"}
)

#: Repo-relative prefixes of sim-package files that are *not* sim-reachable.
_TOOLING_PREFIXES = (
    "repro/analysis/",
    "repro/experiments/__main__.py",
    "repro/experiments/parallel.py",
    "repro/experiments/cache.py",
    "repro/experiments/goldens.py",
    "repro/obs/__main__.py",
    "repro/obs/export.py",
)

_HOT_PATH_PREFIXES = ("repro/sim/", "repro/engine/")
_POOL_CROSSING_PREFIXES = ("repro/cluster/", "repro/experiments/")
_COORD_CORE_PREFIXES = ("repro/coord/", "repro/core/")


def repo_relative(path) -> Optional[str]:
    """The ``repro/...`` tail of ``path``, or None if outside the package."""
    parts = PurePath(path).as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return None


def tags_for_path(path) -> Set[str]:
    """Classify ``path`` into reachability tags (see module docstring)."""
    rel = repo_relative(path)
    if rel is None:
        return {"tooling"}
    tags: Set[str] = set()
    if any(rel.startswith(p) for p in _POOL_CROSSING_PREFIXES):
        tags.add("pool-crossing")
    if any(rel.startswith(p) for p in _TOOLING_PREFIXES):
        tags.add("tooling")
        return tags
    tags.add("sim")
    if any(rel.startswith(p) for p in _HOT_PATH_PREFIXES):
        tags.add("hot-path")
    if any(rel.startswith(p) for p in _COORD_CORE_PREFIXES):
        tags.add("coord-core")
    return tags
