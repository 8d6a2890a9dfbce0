"""``python -m repro.analysis`` — the detlint command line.

Usage::

    python -m repro.analysis src/                 # lint, human output
    python -m repro.analysis src/ --json          # machine output
    python -m repro.analysis --list-rules

Exit status: 0 when no unwaived *error*-tier findings remain
(advisories never gate); 1 otherwise; 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis.framework import (
    SEVERITY_ADVISORY,
    SEVERITY_ERROR,
    Finding,
    all_rules,
    analyze_paths,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "detlint: AST determinism & sim-safety lint for the Marlin "
            "reproduction (rule catalogue: ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report on stdout"
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--no-advisory",
        action="store_true",
        help="hide advisory-tier findings from the report",
    )
    parser.add_argument(
        "--show-waived",
        action="store_true",
        help="also print waived findings (with their reasons)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    return parser


def _select_rules(spec: Optional[str]):
    rules = [r for r in all_rules() if r.id not in ("DET000", "DET100")]
    if spec is None:
        return None  # framework default: all rules
    wanted = {s.strip() for s in spec.split(",") if s.strip()}
    known = {r.id for r in rules}
    unknown = wanted - known
    if unknown:
        raise SystemExit(
            f"unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})"
        )
    return [r for r in rules if r.id in wanted]


def _render_text(findings: List[Finding], args, out) -> None:
    shown = 0
    for f in findings:
        if f.waived and not args.show_waived:
            continue
        if f.severity == SEVERITY_ADVISORY and args.no_advisory:
            continue
        tag = f.severity
        if f.waived:
            tag = f"waived: {f.waiver_reason}"
        print(
            f"{f.path}:{f.line}:{f.col}: {f.rule} [{tag}] {f.message}",
            file=out,
        )
        shown += 1
    errors = sum(1 for f in findings if f.gates)
    advisory = sum(
        1 for f in findings if f.severity == SEVERITY_ADVISORY and not f.waived
    )
    waived = sum(1 for f in findings if f.waived)
    print(
        f"detlint: {errors} error(s), {advisory} advisory, {waived} waived",
        file=out,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            if rule.id in ("DET000", "DET100"):
                continue
            print(f"{rule.id} [{rule.severity}] ({rule.requires}) "
                  f"{rule.name}: {rule.doc}")
        return 0

    rules = _select_rules(args.rules)
    try:
        findings = analyze_paths(args.paths, rules=rules)
    except FileNotFoundError as exc:
        parser.error(str(exc))

    if args.json:
        doc = {
            "version": 1,
            "counts": {
                "error": sum(1 for f in findings if f.gates),
                "advisory": sum(
                    1
                    for f in findings
                    if f.severity == SEVERITY_ADVISORY and not f.waived
                ),
                "waived": sum(1 for f in findings if f.waived),
            },
            "findings": [
                f.to_dict()
                for f in findings
                if not (f.severity == SEVERITY_ADVISORY and args.no_advisory)
            ],
        }
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        _render_text(findings, args, sys.stdout)

    return 1 if any(f.gates for f in findings) else 0
