"""``python -m repro.experiments`` — list and run experiments from the CLI.

Commands::

    python -m repro.experiments list [--json]
    python -m repro.experiments run fig8 --scale 0.25 [--seed N]
        [--systems marlin,zk-small] [--clients N] [--json] [--series]
        [--workers N] [--cache DIR | --no-cache]
    python -m repro.experiments run path/to/spec.json [--json] [--workers N]
        [--cache DIR | --no-cache]

``run <figure>`` executes a registered figure (see ``list``) and prints its
table (or ``--json``).  ``run <file.json>`` loads an ad-hoc
:class:`~repro.experiments.spec.ScenarioSpec` — or a
:class:`~repro.experiments.spec.Sweep` when the file has an ``"axes"`` key —
executes it through ``run_spec``, and prints the run summaries (probe
verdicts included).  ``--workers N`` runs grid cells on a process pool
(every figure, and sweep spec files; seeded results stay bit-identical to
serial — see EXPERIMENTS.md "Parallel execution").  ``--systems`` and
``--clients`` override the figure's ``system`` / ``clients`` axis and are
rejected by a figure that does not declare it.  ``--cache DIR`` (or
``$REPRO_SWEEP_CACHE``) stores finished cells in a content-addressed result
cache and reuses them on identical (spec, seed) cells, so an interrupted or
re-summarized grid re-executes only missed cells; cache hit/miss counts are
printed to stderr (see EXPERIMENTS.md "Result caching").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict

import numpy as np

from repro.experiments import FIGURES
from repro.experiments.cache import resolve_cache
from repro.experiments.parallel import run_cells
from repro.experiments.runner import run_spec
from repro.experiments.spec import ScenarioSpec, Sweep


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):  # pragma: no cover - series are lists
        return value.tolist()
    if isinstance(value, bool):
        return value
    return str(value)


def _resolve_cache(args):
    """``--cache DIR`` / ``--no-cache`` / ``REPRO_SWEEP_CACHE`` -> ResultCache.

    Precedence: ``--no-cache`` wins, then an explicit ``--cache DIR``, then
    the ``REPRO_SWEEP_CACHE`` environment variable; default is no caching.
    """
    if args.no_cache:
        return None
    directory = args.cache or os.environ.get("REPRO_SWEEP_CACHE")
    return resolve_cache(directory or None)


def _report_cache(cache) -> None:
    if cache is not None:
        print(
            f"[cache] hits={cache.hits} misses={cache.misses} "
            f"stores={cache.stores} dir={cache.root}",
            file=sys.stderr,
        )


def _run_figure(name: str, args, cache=None):
    if args.trace:
        raise SystemExit(
            f"{name} is a figure; --trace only applies to a single "
            "ScenarioSpec file (save one cell's spec and run that)"
        )
    figure = FIGURES[name]
    axes: Dict[str, Any] = {}
    if args.systems:
        axes["system"] = tuple(args.systems.split(","))
    if args.clients is not None:
        axes["clients"] = (args.clients,)
    for axis in axes:
        if axis not in figure.grid.axes:
            raise SystemExit(
                f"{name} has no {axis!r} axis (its axes: "
                f"{', '.join(figure.grid.axes)})"
            )
    return figure.run(
        scale=args.scale, seed=args.seed, workers=args.workers, cache=cache,
        **axes,
    )


def _run_spec_file(path: str, args, cache=None) -> Any:
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, dict) and "axes" in data:
        if args.trace:
            raise SystemExit(
                f"{path} is a sweep; --trace only applies to a single "
                "ScenarioSpec file (one trace file per run)"
            )
        sweep = Sweep.from_dict(data)
        out = []
        # Failed cells surface as failure-shaped summaries (CellFailure),
        # not a dead grid.
        for point, result in sweep.run(workers=args.workers, cache=cache):
            summary = result.summary()
            summary["point"] = point
            out.append(summary)
        return out
    if args.workers is not None:
        raise SystemExit(
            f"{path} is a single ScenarioSpec (no \"axes\" key); "
            "--workers only applies to sweeps"
        )
    spec = ScenarioSpec.from_dict(data)
    if args.trace:
        from repro.experiments.spec import TraceSpec
        from repro.obs import write_chrome_trace

        if spec.trace is None or not spec.trace.enabled:
            filters = (
                args.trace_filter.split(",") if args.trace_filter else None
            )
            spec = spec.with_(trace=TraceSpec(filter=filters))
        result = run_spec(spec)
        write_chrome_trace(result.trace, args.trace)
        print(f"[trace] wrote {args.trace}", file=sys.stderr)
        return result.summary()
    return run_cells([spec], cache=cache)[0].summary()


def _print(payload) -> None:
    """A rendered figure table prints as is, anything else as JSON."""
    if isinstance(payload, str):
        print(payload)
    else:
        print(json.dumps(payload, indent=2, default=_json_default))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="List and run the paper's experiments (see EXPERIMENTS.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list runnable figures/experiments")
    p_list.add_argument("--json", action="store_true")

    p_run = sub.add_parser("run", help="run a figure or a spec JSON file")
    p_run.add_argument("target", help="figure name (see `list`) or spec file path")
    p_run.add_argument("--scale", type=float, default=1.0)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--systems", help="comma-separated coordination kinds")
    p_run.add_argument(
        "--clients", type=int, default=None,
        help="override the client population (figures with a clients axis)",
    )
    p_run.add_argument("--json", action="store_true", help="machine-readable output")
    p_run.add_argument(
        "--series", action="store_true",
        help="include the per-bucket time series in --json output",
    )
    p_run.add_argument(
        "--workers", type=int, default=None,
        help="run grid cells on N worker processes (figures and sweep "
             "spec files; results are bit-identical to serial)",
    )
    p_run.add_argument(
        "--cache", metavar="DIR", default=None,
        help="content-addressed result cache directory: finished cells are "
             "stored and identical (spec, seed) cells are reused — resuming "
             "an interrupted grid re-executes only missed cells "
             "(default: $REPRO_SWEEP_CACHE if set)",
    )
    p_run.add_argument(
        "--no-cache", action="store_true",
        help="disable result caching even if $REPRO_SWEEP_CACHE is set",
    )
    p_run.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="enable deterministic tracing and write the run's Chrome "
             "trace-event JSON (Perfetto-loadable) to OUT.json; single "
             "ScenarioSpec files only",
    )
    p_run.add_argument(
        "--trace-filter", metavar="PREFIXES", default=None,
        help="comma-separated span-name prefixes to keep (e.g. "
             "'2pc,rpc:prepare'); default keeps every span",
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        listing = {
            name: f"{fig.name} — {fig.title}" for name, fig in FIGURES.items()
        }
        if args.json:
            print(json.dumps(listing, indent=2))
        else:
            width = max(len(n) for n in listing)
            for name, doc in listing.items():
                print(f"{name.ljust(width)}  {doc}")
        return 0

    cache = _resolve_cache(args)
    if args.target in FIGURES:
        fig = _run_figure(args.target, args, cache=cache)
        payload = (
            fig.to_dict(include_series=args.series)
            if args.json
            else fig.format_table()
        )
    elif os.path.exists(args.target):
        payload = _run_spec_file(args.target, args, cache=cache)
    else:
        parser.error(
            f"unknown target {args.target!r}: not a registered figure "
            f"({', '.join(sorted(FIGURES))}) and not a spec file"
        )
    _report_cache(cache)
    _print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
