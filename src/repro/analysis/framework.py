"""detlint core: findings, inline waivers, module contexts, rule registry.

The analyzer is a plain single-file-at-a-time AST pass (stdlib ``ast``, no
third-party deps).  Each *rule* is a small object with an ``id``, a severity
tier and a ``check(ctx)`` generator; rules self-register into a module-level
registry and are scoped by reachability tags (:mod:`repro.analysis.config`).

Severity tiers
--------------
``error``
    Gates CI: ``python -m repro.analysis src/`` exits non-zero while any
    unwaived error finding exists.
``advisory``
    Reported but never gates (e.g. the ``__slots__`` advice, DET105).

Inline waivers
--------------
A finding is waived in place with a comment **that must carry a reason**::

    self._active[id(event)] = entry  # detlint: ok(DET102) — insertion-ordered dict, id is an opaque handle

    # detlint: ok(DET103) — tooling clock, never inside a seeded run
    started = time.time()

A trailing waiver covers its own line; a comment-only waiver line covers the
next line.  ``ok(...)`` may list several rule ids separated by commas.  A
waiver with no reason, or naming an unknown rule id, is itself an error
finding (DET100) — silence must be auditable.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.config import KNOWN_TAGS, tags_for_path

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "get_rule",
    "iter_python_files",
    "register",
]

SEVERITY_ERROR = "error"
SEVERITY_ADVISORY = "advisory"

#: ``# detlint: ok(DET101, DET102) — reason`` (reason separator: em-dash,
#: ``--``, ``-`` or ``:``).
_WAIVER_RE = re.compile(
    r"detlint:\s*ok\(\s*(?P<rules>[A-Za-z0-9_\s,-]*?)\s*\)"
    r"(?:\s*(?:—|--|-|:)\s*(?P<reason>\S.*?))?\s*$"
)
#: ``# detlint: scope=sim,hot-path`` — file-level classification override.
_SCOPE_RE = re.compile(r"detlint:\s*scope\s*=\s*(?P<tags>[A-Za-z0-9_,\s-]+)")


@dataclass
class Finding:
    """One diagnostic, anchored to a (path, line) with the offending text."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = SEVERITY_ERROR
    line_text: str = ""
    waived: bool = False
    waiver_reason: str = ""

    @property
    def gates(self) -> bool:
        """True when this finding should fail the run."""
        return self.severity == SEVERITY_ERROR and not self.waived

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "line_text": self.line_text,
            "waived": self.waived,
            "waiver_reason": self.waiver_reason,
        }


@dataclass
class _Waiver:
    rules: Tuple[str, ...]
    reason: str
    comment_line: int


@dataclass
class ModuleContext:
    """Everything a rule needs about one source file."""

    path: str
    source: str
    tree: ast.Module
    tags: Set[str]
    lines: List[str] = field(default_factory=list)
    #: Effective source line -> waivers covering it.
    waivers: Dict[int, List[_Waiver]] = field(default_factory=dict)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].rstrip("\n")
        return ""

    def finding(
        self,
        rule: "Rule",
        node,
        message: str,
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.id,
            path=self.path,
            line=lineno,
            col=col + 1,
            message=message,
            severity=rule.severity,
            line_text=self.line_text(lineno).strip()[:200],
        )


class Rule:
    """Base class: subclass, set the class attributes, implement ``check``."""

    id: str = ""
    name: str = ""
    severity: str = SEVERITY_ERROR
    #: Reachability tag a file must carry for this rule to run.
    requires: str = "sim"
    #: One-line rationale (shown by ``--list-rules``; the historical bug the
    #: rule encodes lives in ANALYSIS.md).
    doc: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(cls):
    """Class decorator: instantiate and add to the rule registry."""
    inst = cls()
    if not inst.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if inst.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {inst.id}")
    _REGISTRY[inst.id] = inst
    return cls


def all_rules() -> List[Rule]:
    _ensure_rules_loaded()
    return [_REGISTRY[rid] for rid in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    _ensure_rules_loaded()
    return _REGISTRY[rule_id]


def _ensure_rules_loaded() -> None:
    # Import side effect registers the built-in rules exactly once.
    from repro.analysis import rules as _rules  # noqa: F401


def known_rule_ids() -> Set[str]:
    _ensure_rules_loaded()
    return set(_REGISTRY)


# -- waiver / pragma parsing ---------------------------------------------------


def _iter_comments(source: str) -> Iterator[Tuple[int, int, str]]:
    """Yield ``(line, col, text)`` for each comment; robust to bad syntax."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.start[1], tok.string
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # Fall back to a line scan; good enough for fixtures mid-edit.
        for i, line in enumerate(source.splitlines(), start=1):
            pos = line.find("#")
            if pos >= 0:
                yield i, pos, line[pos:]


def _parse_waivers(
    ctx: ModuleContext, waiver_rule: "Rule"
) -> List[Finding]:
    """Populate ``ctx.waivers``; malformed waivers become DET100 findings."""
    findings: List[Finding] = []
    known = known_rule_ids()
    for lineno, col, text in _iter_comments(ctx.source):
        if "detlint:" not in text:
            continue
        if _SCOPE_RE.search(text) and "ok(" not in text:
            continue  # scope pragma, handled at classification time
        match = _WAIVER_RE.search(text)
        if match is None:
            continue
        rule_ids = tuple(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        reason = (match.group("reason") or "").strip()
        anchor = Finding(
            rule=waiver_rule.id,
            path=ctx.path,
            line=lineno,
            col=col + 1,
            message="",
            severity=waiver_rule.severity,
            line_text=ctx.line_text(lineno).strip()[:200],
        )
        if not rule_ids:
            anchor.message = "waiver names no rule ids: use ok(DETxxx) — reason"
            findings.append(anchor)
            continue
        unknown = [r for r in rule_ids if r not in known]
        if unknown:
            anchor.message = (
                f"waiver names unknown rule id(s): {', '.join(unknown)}"
            )
            findings.append(anchor)
            continue
        if not reason:
            anchor.message = (
                f"waiver ok({', '.join(rule_ids)}) carries no reason — every "
                "suppression must say why it is safe"
            )
            findings.append(anchor)
            continue
        waiver = _Waiver(rules=rule_ids, reason=reason, comment_line=lineno)
        # A comment-only line covers the next line; a trailing comment covers
        # its own.  Register both generously: the line itself and, when the
        # comment stands alone, the following line.
        before = ctx.line_text(lineno)[:col]
        ctx.waivers.setdefault(lineno, []).append(waiver)
        if not before.strip():
            ctx.waivers.setdefault(lineno + 1, []).append(waiver)
    return findings


def _scope_pragma(source: str) -> Optional[Set[str]]:
    """Tags from a ``# detlint: scope=...`` pragma in the first 10 lines."""
    for line in source.splitlines()[:10]:
        stripped = line.strip()
        if not stripped.startswith("#"):
            continue
        match = _SCOPE_RE.search(stripped)
        if match:
            tags = {
                t.strip() for t in match.group("tags").split(",") if t.strip()
            }
            bad = tags - KNOWN_TAGS
            if bad:
                raise ValueError(
                    f"unknown scope tag(s) in pragma: {sorted(bad)}"
                )
            return tags
    return None


# -- built-in framework rules --------------------------------------------------


class _WaiverHygieneRule(Rule):
    id = "DET100"
    name = "waiver-hygiene"
    severity = SEVERITY_ERROR
    requires = "*"
    doc = (
        "Every inline waiver must name known rule ids and carry a reason "
        "string; an unexplained suppression is itself a finding."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:  # pragma: no cover
        return iter(())  # emitted by the framework during waiver parsing


class _ParseErrorRule(Rule):
    id = "DET000"
    name = "parse-error"
    severity = SEVERITY_ERROR
    requires = "*"
    doc = "The file does not parse; nothing else can be checked."

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:  # pragma: no cover
        return iter(())


_WAIVER_RULE = _WaiverHygieneRule()
_PARSE_RULE = _ParseErrorRule()
_REGISTRY[_WAIVER_RULE.id] = _WAIVER_RULE
_REGISTRY[_PARSE_RULE.id] = _PARSE_RULE


# -- drivers -------------------------------------------------------------------


def analyze_source(
    source: str,
    path: str = "<string>",
    tags: Optional[Set[str]] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run the rule suite over one source blob; returns all findings."""
    if tags is None:
        tags = _scope_pragma(source) or tags_for_path(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                rule=_PARSE_RULE.id,
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) or 1,
                message=f"syntax error: {exc.msg}",
                severity=SEVERITY_ERROR,
            )
        ]
    ctx = ModuleContext(
        path=path,
        source=source,
        tree=tree,
        tags=tags,
        lines=source.splitlines(),
    )
    findings = _parse_waivers(ctx, _WAIVER_RULE)
    if rules is None:
        rules = all_rules()
    for rule in rules:
        if rule.requires not in ("*",) and rule.requires not in ctx.tags:
            continue
        if rule.id in (_WAIVER_RULE.id, _PARSE_RULE.id):
            continue
        findings.extend(rule.check(ctx))
    _apply_waivers(ctx, findings)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def _apply_waivers(ctx: ModuleContext, findings: List[Finding]) -> None:
    for finding in findings:
        if finding.rule == _WAIVER_RULE.id:
            continue  # waiver hygiene findings cannot be waived
        for waiver in ctx.waivers.get(finding.line, ()):
            if finding.rule in waiver.rules:
                finding.waived = True
                finding.waiver_reason = waiver.reason
                break


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            yield path
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")


def analyze_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Analyze every ``.py`` file under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings.extend(
            analyze_source(source, path=file_path.as_posix(), rules=rules)
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
