"""Parallel sweep execution: a process pool over expanded experiment cells.

The §6 grids (fig12/13, the detector sweep) are dozens of independent
seeded simulations; since PR 3 every cell is a pure-data
:class:`~repro.experiments.spec.ScenarioSpec`, so the obvious way to make
full-paper-scale grids fast is to farm cells out to worker processes, one
simulator per worker.  :class:`ProcessPoolRunner` does exactly that, with
three properties the naive ``multiprocessing.Pool.map`` does not give you:

* **Determinism** — cells are shipped as their JSON-round-trippable dicts
  and re-hydrated with ``ScenarioSpec.from_dict`` in the worker, so a worker
  runs *exactly* what the serial path would (same spec, same seed, its own
  fresh simulator); results land in a slot keyed by cell index, never by
  completion order.  A seeded parallel sweep is bit-identical to serial.
* **Failure isolation** — a cell that raises, a worker process that dies
  (segfault, OOM-kill, ``os._exit``), or a cell that exceeds the per-cell
  wall-clock ``timeout`` becomes a structured :class:`CellFailure` in that
  cell's result slot while every other cell completes.  No hung grids, no
  lost grids.
* **One result type** — a worker ships back the pickled
  :class:`~repro.experiments.result.RunResult` that ``run_spec`` returned;
  pickling drops only the (unpicklable, generator-laden) live ``cluster``,
  so a pooled cell reads exactly like a serial or cached one.

Entry points: ``Sweep.run(workers=N)``, every figure's
``FIGURE.run(workers=N)``, ``python -m repro.experiments run ... --workers N``,
or :func:`run_cells` / :class:`ProcessPoolRunner` directly.  See
EXPERIMENTS.md "Parallel execution".

All entry points also take ``cache=`` — a
:class:`~repro.experiments.cache.ResultCache` (or directory path) consulted
before a cell executes and fed after it finishes, so repeated or resumed
grids re-execute only missed cells.  See EXPERIMENTS.md "Result caching".
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.cache import resolve_cache
from repro.experiments.runner import run_spec
from repro.experiments.spec import ScenarioSpec

__all__ = [
    "CellFailure",
    "ProcessPoolRunner",
    "raise_failures",
    "run_cells",
]

#: Workers fork where the platform can (cheap, and they inherit registered
#: custom actions); elsewhere they start the platform's default way.
try:
    _MP = mp.get_context("fork")
except ValueError:  # no fork on this platform
    _MP = mp.get_context()


@dataclass
class CellFailure:
    """Structured per-cell error from a parallel sweep.

    ``kind`` is one of ``"error"`` (the cell raised inside the worker),
    ``"crash"`` (the worker process died mid-cell; ``exitcode`` holds how)
    or ``"timeout"`` (the cell exceeded the runner's per-cell wall-clock
    budget and its worker was terminated).
    """

    index: int
    name: str
    kind: str
    error: str
    message: str
    traceback: str = ""
    exitcode: Optional[int] = None

    ok = False

    def summary(self) -> Dict[str, Any]:
        """Failure-shaped stand-in for ``RunResult.summary()`` so sweep
        reports stay uniform when some cells failed."""
        out = {
            "index": self.index,
            "name": self.name,
            "failed": True,
            "kind": self.kind,
            "error": self.error,
            "message": self.message,
        }
        if self.exitcode is not None:
            out["exitcode"] = self.exitcode
        return out

    def __str__(self) -> str:
        code = f", exitcode {self.exitcode}" if self.exitcode is not None else ""
        return f"cell {self.index} ({self.name}): {self.kind}{code}: {self.message}"


def _worker_main(task_q, result_q) -> None:
    """Worker loop: pull ``(index, spec_dict)`` tasks until the sentinel.

    The module import re-registers every figure's phase actions when the
    pool uses the ``spawn`` start method (``fork`` children inherit them).
    A failing cell must not take the worker down, so everything — including
    result pickling, which would otherwise fail silently in the queue's
    feeder thread — happens under the try.
    """
    import repro.experiments  # noqa: F401  (populates the action registry)

    while True:
        task = task_q.get()
        if task is None:
            return
        index, spec_data = task
        try:
            spec = ScenarioSpec.from_dict(spec_data)
            payload = pickle.dumps(
                run_spec(spec), protocol=pickle.HIGHEST_PROTOCOL
            )
            result_q.put((index, "ok", payload))
        except BaseException as exc:
            result_q.put(
                (
                    index,
                    "error",
                    (type(exc).__name__, str(exc), traceback.format_exc()),
                )
            )


class _Worker:
    """One pool slot: a process, its private task queue, and what it holds."""

    def __init__(self, result_q):
        self.task_q = _MP.SimpleQueue()
        self.proc = _MP.Process(
            target=_worker_main, args=(self.task_q, result_q), daemon=True
        )
        self.proc.start()
        self.current: Optional[int] = None
        self.started = 0.0

    def assign(self, index: int, payload: Dict[str, Any]) -> None:
        self.current = index
        self.started = time.monotonic()
        self.task_q.put((index, payload))

    def retire(self) -> None:
        """Ask a live worker to exit once its queue drains."""
        self.task_q.put(None)

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5.0)


class ProcessPoolRunner:
    """Run :class:`ScenarioSpec` cells across worker processes.

    Parameters:

    * ``workers`` — pool size (default: one per CPU — cells are CPU-bound
      sims); capped at the number of cells.
    * ``timeout`` — optional per-cell wall-clock budget in seconds; a cell
      that exceeds it has its worker terminated and yields a
      :class:`CellFailure` of kind ``"timeout"``.

    ``run(specs)`` returns one entry per input spec, in input order:
    a :class:`~repro.experiments.result.RunResult`, or a :class:`CellFailure`.
    """

    #: Parent poll interval: bounds both crash-detection and timeout slack.
    _POLL_S = 0.1

    def __init__(
        self,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
    ):
        self.workers = workers if workers is not None else os.cpu_count() or 1
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.timeout = timeout

    def run(self, specs: Sequence[ScenarioSpec], cache=None) -> List[Any]:
        specs = list(specs)
        if not specs:
            return []
        cache = resolve_cache(cache)
        names = [spec.name for spec in specs]
        n = len(specs)
        results: List[Any] = [None] * n
        done = 0
        if cache is not None:
            # Consult the cache before dispatching anything: hit cells settle
            # into their slots immediately and never reach a worker.
            for index, spec in enumerate(specs):
                hit = cache.get(spec)
                if hit is not None:
                    results[index] = hit
                    done += 1
            if done == n:
                return results
        pending = deque(i for i in range(n) if results[i] is None)
        payloads = [spec.to_dict() for spec in specs]
        result_q = _MP.Queue()
        pool = [
            _Worker(result_q)
            for _ in range(min(self.workers, len(pending)))
        ]

        def feed(worker: _Worker) -> None:
            if pending:
                index = pending.popleft()
                worker.assign(index, payloads[index])
            else:
                worker.current = None
                worker.retire()

        def settle(index: int, outcome: Any) -> int:
            """Record a cell outcome once; late duplicates are dropped."""
            if results[index] is not None:
                return 0
            results[index] = outcome
            for worker in pool:
                if worker.current == index:
                    worker.current = None
                    feed(worker)
                    break
            return 1

        def drain(block: bool) -> int:
            settled = 0
            while True:
                try:
                    if block:
                        item = result_q.get(timeout=self._POLL_S)
                    else:
                        item = result_q.get_nowait()
                except queue_mod.Empty:
                    return settled
                index, status, payload = item
                if status == "ok":
                    if cache is not None:
                        # Store the worker's pickle verbatim (no re-encode);
                        # failures below never reach the cache.
                        cache.put_serialized(specs[index], payload)
                    settled += settle(index, pickle.loads(payload))
                else:
                    error, message, tb = payload
                    settled += settle(
                        index,
                        CellFailure(
                            index=index,
                            name=names[index],
                            kind="error",
                            error=error,
                            message=message,
                            traceback=tb,
                        ),
                    )
                block = False  # after one blocking get, sweep the backlog

        def lose_worker(
            slot: int,
            kind: str,
            error: str,
            message: str,
            exitcode: Optional[int] = None,
        ) -> int:
            """Fail the cell a dead or overdue worker holds; respawn the slot
            while cells are pending."""
            worker = pool[slot]
            index = worker.current
            # Detach *before* settling: settle() re-feeds the worker that held
            # the cell, and a dead worker's queue would swallow the next
            # pending cell.
            worker.current = None
            worker.kill()
            settled = settle(
                index,
                CellFailure(
                    index=index,
                    name=names[index],
                    kind=kind,
                    error=error,
                    message=message,
                    exitcode=exitcode,
                ),
            )
            if pending:
                pool[slot] = _Worker(result_q)
                feed(pool[slot])
            return settled

        try:
            for worker in pool:
                feed(worker)
            while done < n:
                done += drain(block=True)
                now = time.monotonic()
                for slot, worker in enumerate(pool):
                    if worker.current is None:
                        continue
                    if not worker.proc.is_alive():
                        # The result may have raced the exit: sweep the
                        # queue once more before declaring a crash.
                        done += drain(block=False)
                        if worker.current is None:
                            continue
                        exitcode = worker.proc.exitcode
                        done += lose_worker(
                            slot, "crash", "WorkerCrashed",
                            "worker process died while running this cell "
                            f"(exitcode {exitcode})",
                            exitcode,
                        )
                    elif (
                        self.timeout is not None
                        and now - worker.started > self.timeout
                    ):
                        done += lose_worker(
                            slot, "timeout", "CellTimeout",
                            f"cell exceeded the {self.timeout}s wall-clock "
                            "budget; worker terminated",
                        )
        finally:
            for worker in pool:
                worker.kill()
            result_q.close()
            result_q.join_thread()
        return results


def run_cells(
    specs: Sequence[ScenarioSpec],
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    cache=None,
) -> List[Any]:
    """Run a list of cells, serially or on a pool (what ``Grid.run`` calls).

    Without a ``timeout``, serial is forced when ``workers`` is None or <= 1,
    or when there are fewer than two cells; the serial path calls
    :func:`~repro.experiments.runner.run_spec` in-process (the bit-identical
    baseline) and raises on the first failing cell.  A ``timeout`` always
    takes the pool, the only path that can enforce one.  The pool completes
    the whole grid and returns :class:`CellFailure` entries for failed cells
    — see :func:`raise_failures` for callers that need everything to have
    succeeded.

    ``cache`` (a directory path or
    :class:`~repro.experiments.cache.ResultCache`) consults the
    content-addressed result cache before executing each cell and stores
    every freshly finished one.  Every entry that is not a failure is a
    :class:`~repro.experiments.result.RunResult` whatever the execution mode
    or cache state, with summaries bit-identical to a cold serial run; only a
    cell executed in this process still has its ``cluster``.
    """
    specs = list(specs)
    cache = resolve_cache(cache)
    if timeout is None and (workers is None or workers <= 1 or len(specs) <= 1):
        results: List[Any] = []
        for spec in specs:
            result = cache.get(spec) if cache is not None else None
            if result is None:
                result = run_spec(spec)
                if cache is not None:
                    cache.put(spec, result)
            results.append(result)
        return results
    return ProcessPoolRunner(workers=workers or 1, timeout=timeout).run(
        specs, cache=cache
    )


def raise_failures(results: Sequence[Any], context: str = "sweep") -> None:
    """Raise if any entry is a :class:`CellFailure` (figure grids need every
    cell; ad-hoc sweeps keep the structured entries instead)."""
    failures = [r for r in results if isinstance(r, CellFailure)]
    if failures:
        lines = "\n  ".join(str(f) for f in failures)
        raise RuntimeError(
            f"{context}: {len(failures)} of {len(results)} cells failed:\n  {lines}"
        )
