"""Content-addressed result cache for sweep cells.

Every sweep cell is a pure function of its :class:`ScenarioSpec` — the spec
dict carries the topology, workload, timeline, fault schedule, probes *and*
the seed — so a finished cell's pickled
:class:`~repro.experiments.result.RunResult` can be keyed by content and
reused: re-summarizing a large grid, re-running after an
interrupted/partial sweep, or re-plotting a figure with one axis value added
re-executes only the missed cells.

Key derivation
--------------

``key(spec) = sha256("epoch=<E>;" + canonical_json(spec.to_dict()))`` where
canonical JSON is ``json.dumps(..., sort_keys=True, separators=(",", ":"))``.
The **code epoch** ``E`` folds the simulator's behavioural version into every
key.  It is *derived*, not hand-maintained: :data:`CACHE_EPOCH` is a content
hash of the determinism + spec-parity goldens
(:func:`repro.experiments.goldens.cache_epoch`), so any PR that changes what
a seeded run produces re-captures those goldens and thereby atomically
invalidates every cached cell — forgetting the bump is impossible.

Entries are stored as ``<root>/<key>.pkl`` — the pickled ``RunResult``
(pickling drops its live cluster), byte-identical to what a pool worker
ships back.  Writes go through a temp file +
``os.replace`` so concurrent writers (pool parents, parallel CI jobs on a
shared dir) never expose a torn entry; an unreadable/corrupt entry — a
pickle naming a class that no longer exists included — is deleted and
treated as a miss.  Failures are never cached — a
:class:`CellFailure` stays ephemeral.

Consumers: ``Sweep.run(cache=...)``, ``run_cells(cache=...)``,
:meth:`ProcessPoolRunner.run`, every figure's ``FIGURE.run(cache=...)`` and the
CLI's ``--cache DIR`` / ``--no-cache`` (see EXPERIMENTS.md "Result
caching").
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
from typing import Any, Dict, Optional, Union

from repro.experiments.goldens import cache_epoch
from repro.experiments.result import RunResult

__all__ = ["CACHE_EPOCH", "ResultCache", "resolve_cache"]

#: Behavioural version of the simulator folded into every cache key —
#: derived from the behavioural goldens (see module docstring); stale
#: entries miss instead of serving wrong results.
CACHE_EPOCH = cache_epoch()


class ResultCache:
    """A directory of content-addressed ``RunResult`` pickles."""

    def __init__(self, root, epoch: str = CACHE_EPOCH):
        self.root = pathlib.Path(root)
        self.epoch = str(epoch)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- keys ----------------------------------------------------------------

    def key(self, spec) -> str:
        """SHA-256 of the cell's canonical JSON spec (seed included) + epoch."""
        payload = json.dumps(
            spec.to_dict(), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256()
        digest.update(f"epoch={self.epoch};".encode())
        digest.update(payload.encode())
        return digest.hexdigest()

    def path_for(self, spec) -> pathlib.Path:
        return self.root / f"{self.key(spec)}.pkl"

    # -- read/write ----------------------------------------------------------

    def get(self, spec) -> Optional[Any]:
        """The cached ``RunResult`` for ``spec``, or ``None``.

        A missing entry is a plain miss; an unreadable one (truncated write
        from a killed process, bit rot, a stray file, a pickle of some other
        or since-deleted class) is deleted and counted as a miss — the cell
        simply re-executes and overwrites it.
        """
        path = self.path_for(spec)
        try:
            with open(path, "rb") as f:
                result = pickle.load(f)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            result = None
        if not isinstance(result, RunResult):
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def put(self, spec, result) -> None:
        """Store a finished cell (pickles ``result``; see ``put_serialized``)."""
        self.put_serialized(
            spec, pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def put_serialized(self, spec, payload: bytes) -> None:
        """Store an already-pickled ``RunResult`` (what pool workers ship
        back) without a decode/re-encode round trip."""
        path = self.path_for(spec)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as f:
                f.write(payload)
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # a failed replace leaves the temp file behind
                try:
                    tmp.unlink()
                except OSError:
                    pass
        self.stores += 1

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResultCache({str(self.root)!r}, epoch={self.epoch}, "
            f"hits={self.hits}, misses={self.misses}, stores={self.stores})"
        )


def resolve_cache(
    cache: Union[None, str, os.PathLike, ResultCache],
) -> Optional[ResultCache]:
    """Accept ``None`` (no caching), a directory path, or a ready cache."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
