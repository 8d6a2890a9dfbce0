"""The detlint rule suite: this repo's determinism bug history, as AST checks.

Each rule encodes a hazard class that has actually broken (or would break)
the repo's core guarantee — seeded runs are bit-identical — or a standing
performance constraint from ROADMAP.md.  The historical incident behind each
rule is catalogued in ANALYSIS.md; the one-line ``doc`` here is what
``--list-rules`` prints.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.framework import (
    SEVERITY_ADVISORY,
    Finding,
    ModuleContext,
    Rule,
    register,
)

__all__ = []  # rules are reached through the registry, not imports


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def _contains_id_call(node: ast.AST) -> Optional[ast.Call]:
    """The first ``id(...)`` call anywhere inside ``node``, else None."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "id"
        ):
            return sub
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """``name`` when ``node`` is ``self.name``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


# -- DET101: process-global mutable counters ----------------------------------


@register
class GlobalCounterRule(Rule):
    id = "DET101"
    name = "global-counter"
    requires = "sim"
    doc = (
        "No module/class-level itertools.count or rebinding of module "
        "globals in sim-reachable code: process-global allocation state "
        "leaks across same-seed runs in one process."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        count_aliases = {"itertools.count"}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                for alias in node.names:
                    if alias.name == "count":
                        count_aliases.add(alias.asname or alias.name)

        # Module- and class-level statements (not function bodies).
        def shared_statements(body, depth_into_if=True):
            for stmt in body:
                yield stmt
                if isinstance(stmt, ast.ClassDef):
                    yield from shared_statements(stmt.body)
                elif isinstance(stmt, (ast.If, ast.Try)) and depth_into_if:
                    for sub in (
                        getattr(stmt, "body", []),
                        getattr(stmt, "orelse", []),
                        getattr(stmt, "finalbody", []),
                    ):
                        yield from shared_statements(sub)

        for stmt in shared_statements(ctx.tree.body):
            value = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            if (
                isinstance(value, ast.Call)
                and _dotted_name(value.func) in count_aliases
            ):
                yield ctx.finding(
                    self,
                    stmt,
                    "module/class-level itertools.count() is process-global "
                    "allocation state; allocate ids per simulator/instance",
                )

        # `global NAME` + rebinding: a module-global mutable counter.
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            declared: Set[str] = set()
            for stmt in ast.walk(fn):
                if isinstance(stmt, ast.Global):
                    declared.update(stmt.names)
            if not declared:
                continue
            for stmt in ast.walk(fn):
                targets = []
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                    targets = [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in declared:
                        yield ctx.finding(
                            self,
                            stmt,
                            f"function rebinds module global {target.id!r} — "
                            "process-global mutable state in sim-reachable "
                            "code",
                        )


# -- DET102: iteration order over object sets / id() ordering ------------------

_PRIMITIVE_ANNOTATIONS = {
    "str", "int", "float", "bool", "bytes", "complex",
    "Tuple", "tuple", "FrozenSet", "frozenset",
}


def _annotation_primitive(annotation: Optional[ast.AST]) -> Optional[bool]:
    """True/False when the Set[...] element type is knowably (non-)primitive."""
    if annotation is None:
        return None
    # Set[X] / set[X]
    if isinstance(annotation, ast.Subscript):
        base = _dotted_name(annotation.value) or ""
        if base.split(".")[-1] not in ("Set", "set", "MutableSet"):
            return None
        elem = annotation.slice
        names = {
            _dotted_name(sub)
            for sub in ast.walk(elem)
            if isinstance(sub, (ast.Name, ast.Attribute))
        }
        names = {n.split(".")[-1] for n in names if n}
        if not names:
            return None
        return names <= _PRIMITIVE_ANNOTATIONS
    return None


@register
class ObjectSetOrderRule(Rule):
    id = "DET102"
    name = "object-set-order"
    requires = "sim"
    doc = (
        "No iteration/pop/sort/list() over sets of non-primitive objects and "
        "no id() in mapping keys or sort keys: both order by memory address."
    )

    _ITER_MSG = (
        "iterates a set whose elements are not provably primitive — set "
        "order is id()-hash order; use an insertion-ordered dict, sort by a "
        "value key, or annotate the binding Set[<primitive>]"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # Pass 1: collect set-typed bindings (module/function names and
        # `self.attr`), with primitiveness when inferable.
        sets: Dict[str, bool] = {}  # binding key -> elements_primitive

        def record(key: str, primitive: Optional[bool]) -> None:
            if primitive is None:
                primitive = False  # unknown counts as suspect
            # A binding seen with any suspect assignment stays suspect.
            sets[key] = sets.get(key, True) and primitive

        def binding_key(target: ast.AST) -> Optional[str]:
            attr = _self_attr(target)
            if attr is not None:
                return f"self.{attr}"
            if isinstance(target, ast.Name):
                return target.id
            return None

        def value_set_primitive(value: ast.AST) -> Optional[Optional[bool]]:
            """None = not a set; else True/False/unknown primitiveness."""
            if isinstance(value, ast.Call):
                name = _dotted_name(value.func)
                if name in ("set", "builtins.set"):
                    if not value.args:
                        return "unknown"
                    return "unknown"
                return None
            if isinstance(value, ast.Set):
                if all(isinstance(e, ast.Constant) for e in value.elts):
                    return True
                return False
            return None

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AnnAssign) and node.value is not None:
                kind = value_set_primitive(node.value)
                if kind is not None:
                    key = binding_key(node.target)
                    if key:
                        prim = _annotation_primitive(node.annotation)
                        record(key, prim if kind == "unknown" else kind)
            elif isinstance(node, ast.Assign):
                kind = value_set_primitive(node.value)
                if kind is not None:
                    for target in node.targets:
                        key = binding_key(target)
                        if key:
                            record(
                                key, None if kind == "unknown" else kind
                            )

        def is_suspect_set(expr: ast.AST) -> bool:
            key = None
            attr = _self_attr(expr)
            if attr is not None:
                key = f"self.{attr}"
            elif isinstance(expr, ast.Name):
                key = expr.id
            if key is None:
                return False
            return key in sets and not sets[key]

        # Pass 2: flag ordering-sensitive consumption.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and is_suspect_set(node.iter):
                yield ctx.finding(self, node, self._ITER_MSG)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    if is_suspect_set(gen.iter):
                        yield ctx.finding(self, node, self._ITER_MSG)
            elif isinstance(node, ast.For) and isinstance(node.iter, ast.Set):
                if not all(
                    isinstance(e, ast.Constant) for e in node.iter.elts
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "iterates a set literal of objects — set order is "
                        "id()-hash order",
                    )
            elif isinstance(node, ast.Call):
                name = _dotted_name(node.func)
                # set.pop() — removal order is id()-hash order.
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and not node.args
                    and not node.keywords
                    and is_suspect_set(node.func.value)
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "set.pop() removes in id()-hash order; pop from a "
                        "deque or insertion-ordered dict instead",
                    )
                # list/tuple(X) over a suspect set leaks id()-hash order
                # into a sequence.  sorted()/min()/max() are NOT flagged:
                # they impose deterministic value order (and raise TypeError
                # on unorderable elements rather than silently diverging).
                elif name in ("list", "tuple") and (
                    node.args and is_suspect_set(node.args[0])
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"{name}() over a set of objects freezes id()-hash "
                        "order into a sequence; sort by a value key or keep "
                        "an ordered structure",
                    )
                # id() as a sort key.
                if name in ("sorted", "min", "max"):
                    for kw in node.keywords:
                        if kw.arg != "key":
                            continue
                        if (
                            isinstance(kw.value, ast.Name)
                            and kw.value.id == "id"
                        ) or (
                            isinstance(kw.value, ast.Lambda)
                            and _contains_id_call(kw.value.body)
                        ):
                            yield ctx.finding(
                                self,
                                node,
                                "sort key uses id(): ordering by memory "
                                "address is allocation-dependent",
                            )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sort"
                ):
                    for kw in node.keywords:
                        if kw.arg == "key" and (
                            (
                                isinstance(kw.value, ast.Name)
                                and kw.value.id == "id"
                            )
                            or (
                                isinstance(kw.value, ast.Lambda)
                                and _contains_id_call(kw.value.body)
                            )
                        ):
                            yield ctx.finding(
                                self,
                                node,
                                "sort key uses id(): ordering by memory "
                                "address is allocation-dependent",
                            )
            elif isinstance(node, ast.Subscript):
                id_call = _contains_id_call(node.slice)
                if id_call is not None:
                    yield ctx.finding(
                        self,
                        node,
                        "id() used as a mapping key: safe only for an "
                        "insertion-ordered dict that is never sorted or "
                        "iterated by key — prefer a value key",
                    )


# -- DET103: wall clock, unseeded RNG, environment ----------------------------

_BANNED_TIME = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock_gettime",
    "localtime", "gmtime", "ctime", "sleep",
}
_UNSEEDED_RANDOM = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "getrandbits", "randbytes", "seed",
    "vonmisesvariate", "paretovariate", "weibullvariate", "lognormvariate",
}
_BANNED_DATETIME = {"now", "utcnow", "today"}


@register
class WallClockRule(Rule):
    id = "DET103"
    name = "wall-clock"
    requires = "sim"
    doc = (
        "No wall-clock reads, unseeded module-level random, os.environ, pid "
        "or uuid in sim-reachable code: sim time comes from the kernel, "
        "randomness from a seeded random.Random."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # Alias maps: local name -> canonical module, and names imported
        # from banned modules -> (module, original name).
        module_alias: Dict[str, str] = {}
        from_alias: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in ("time", "random", "os", "datetime", "uuid"):
                        module_alias[alias.asname or root] = root
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".")[0]
                if root in ("time", "random", "os", "datetime", "uuid"):
                    for alias in node.names:
                        from_alias[alias.asname or alias.name] = (
                            root, alias.name,
                        )

        def resolve(func: ast.AST) -> Optional[Tuple[str, str]]:
            """(module, function) when the call resolves to a banned module."""
            name = _dotted_name(func)
            if not name:
                return None
            parts = name.split(".")
            head = parts[0]
            if head in module_alias and len(parts) >= 2:
                return module_alias[head], ".".join(parts[1:])
            if head in from_alias and len(parts) == 1:
                return from_alias[head][0], from_alias[head][1]
            if head in from_alias and len(parts) >= 2:
                # e.g. `from datetime import datetime` then datetime.now()
                mod, orig = from_alias[head]
                return mod, f"{orig}." + ".".join(parts[1:])
            return None

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                resolved = resolve(node.func)
                if resolved is None:
                    continue
                mod, fn = resolved
                tail = fn.split(".")[-1]
                if mod == "time" and tail in _BANNED_TIME:
                    yield ctx.finding(
                        self,
                        node,
                        f"wall-clock call time.{tail}(): simulated time "
                        "comes from Simulator.now",
                    )
                elif mod == "datetime" and tail in _BANNED_DATETIME:
                    yield ctx.finding(
                        self,
                        node,
                        f"wall-clock call datetime …{tail}(): timestamps "
                        "must derive from sim time or the spec",
                    )
                elif mod == "random":
                    if tail == "Random":
                        if not node.args and not node.keywords:
                            yield ctx.finding(
                                self,
                                node,
                                "random.Random() without a seed draws from "
                                "OS entropy; pass an explicit seed",
                            )
                    elif tail in _UNSEEDED_RANDOM and fn == tail:
                        yield ctx.finding(
                            self,
                            node,
                            f"module-level random.{tail}() uses the shared "
                            "unseeded RNG; draw from a seeded "
                            "random.Random instance",
                        )
                elif mod == "os" and tail in ("getenv", "getpid"):
                    yield ctx.finding(
                        self,
                        node,
                        f"os.{tail}() read in sim-reachable code: behaviour "
                        "must be a function of (spec, seed) only",
                    )
                elif mod == "uuid" and tail in ("uuid1", "uuid4"):
                    yield ctx.finding(
                        self,
                        node,
                        f"uuid.{tail}() is nondeterministic; derive ids "
                        "from per-instance sequence numbers",
                    )
            elif isinstance(node, ast.Attribute):
                name = _dotted_name(node)
                if (
                    name == "os.environ"
                    or (
                        name is not None
                        and "." not in name.partition(".")[2]
                        and module_alias.get(name.split(".")[0]) == "os"
                        and name.split(".")[1] == "environ"
                    )
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "os.environ read in sim-reachable code: environment "
                        "must not influence a seeded run",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name == "environ":
                        yield ctx.finding(
                            self,
                            node,
                            "imports os.environ into sim-reachable code: "
                            "environment must not influence a seeded run",
                        )


# -- DET104: zero-overhead hook idiom ------------------------------------------

_HOOKISH = re.compile(r"(?:^|_)(?:hook|hooks|tracer|replicator|chaos)$")


@register
class HookTruthinessRule(Rule):
    id = "DET104"
    name = "hook-idiom"
    requires = "sim"
    doc = (
        "Chaos/trace/replication hook sites must gate with `if hook is not None`: the "
        "explicit identity test is the measured zero-overhead-off idiom "
        "(and a falsy-but-armed hook must still fire)."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        def hookish(expr: ast.AST) -> Optional[str]:
            if isinstance(expr, ast.Name) and _HOOKISH.search(expr.id):
                return expr.id
            if isinstance(expr, ast.Attribute) and _HOOKISH.search(expr.attr):
                return _dotted_name(expr) or expr.attr
            return None

        def flag(expr: ast.AST) -> Iterator[Finding]:
            name = hookish(expr)
            if name is not None:
                yield ctx.finding(
                    self,
                    expr,
                    f"truthiness test on hook {name!r}; use "
                    f"`{name} is not None` (ROADMAP zero-overhead hook "
                    "idiom)",
                )

        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                test = node.test
                if isinstance(test, ast.UnaryOp) and isinstance(
                    test.op, ast.Not
                ):
                    test = test.operand
                yield from flag(test)
            elif isinstance(node, ast.BoolOp):
                for value in node.values:
                    yield from flag(value)


# -- DET105: __slots__ advisory ------------------------------------------------

_NON_SLOTS_BASES = re.compile(
    r"(Exception|Error|Enum|Flag|NamedTuple|Protocol|TypedDict|ABC)$"
)


@register
class SlotsAdvisoryRule(Rule):
    id = "DET105"
    name = "missing-slots"
    severity = SEVERITY_ADVISORY
    requires = "hot-path"
    doc = (
        "Hot-path classes in sim/ and engine/ should declare __slots__ "
        "(advisory): per-instance dicts dominate allocation in the event "
        "loop."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            base_names = {
                (_dotted_name(b) or "").split(".")[-1] for b in node.bases
            }
            # Exception trees (by base or by naming convention) are not hot
            # allocation paths; instances are rare and carry tracebacks.
            if any(_NON_SLOTS_BASES.search(b) for b in base_names if b):
                continue
            if _NON_SLOTS_BASES.search(node.name):
                continue
            decorators = {
                (_dotted_name(
                    d.func if isinstance(d, ast.Call) else d
                ) or "").split(".")[-1]
                for d in node.decorator_list
            }
            if "dataclass" in decorators:
                slotted = any(
                    isinstance(d, ast.Call)
                    and any(
                        k.arg == "slots"
                        and isinstance(k.value, ast.Constant)
                        and k.value.value is True
                        for k in d.keywords
                    )
                    for d in node.decorator_list
                )
                if not slotted:
                    yield ctx.finding(
                        self,
                        node,
                        f"dataclass {node.name!r} without slots=True on a "
                        "hot path",
                    )
                continue
            class_attrs: Set[str] = set()
            has_slots = False
            init: Optional[ast.FunctionDef] = None
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            class_attrs.add(target.id)
                            if target.id == "__slots__":
                                has_slots = True
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    class_attrs.add(stmt.target.id)
                    if stmt.target.id == "__slots__":
                        has_slots = True
                elif (
                    isinstance(stmt, ast.FunctionDef)
                    and stmt.name == "__init__"
                ):
                    init = stmt
            if has_slots or init is None:
                continue
            self_names: Set[str] = set()
            for stmt in ast.walk(init):
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        stmt.targets
                        if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    for target in targets:
                        attr = _self_attr(target)
                        if attr:
                            self_names.add(attr)
            if not self_names:
                continue
            if self_names & class_attrs:
                # Class-attr default pattern (``cancelled = False`` on the
                # class, set per instance only when it flips):
                # __slots__ of the same name would shadow-conflict; not free.
                continue
            yield ctx.finding(
                self,
                node,
                f"class {node.name!r} stores instance state but declares no "
                "__slots__ (advisory: free win on hot paths)",
            )


# -- DET106: pickled memo caches ----------------------------------------------

_CACHE_ATTR = re.compile(r"(?:^|_)(?:memo|cache|cached)(?:_|$|s$|d$)")


@register
class PickleMemoRule(Rule):
    id = "DET106"
    name = "pickled-memo-cache"
    requires = "pool-crossing"
    doc = (
        "Classes whose objects cross the process pool must not pickle memo/"
        "cache attributes: define __getstate__ dropping them (payload bloat "
        "and stale-cache bugs)."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            has_getstate = any(
                isinstance(stmt, ast.FunctionDef)
                and stmt.name in ("__getstate__", "__reduce__", "__reduce_ex__")
                for stmt in node.body
            )
            if has_getstate:
                continue
            init = next(
                (
                    stmt
                    for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef)
                    and stmt.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            for stmt in ast.walk(init):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                value = stmt.value
                dictish = isinstance(value, ast.Dict) or (
                    isinstance(value, ast.Call)
                    and (_dotted_name(value.func) or "").split(".")[-1]
                    in ("dict", "defaultdict", "OrderedDict", "lru_cache")
                )
                if not dictish:
                    continue
                for target in targets:
                    attr = _self_attr(target)
                    if attr and _CACHE_ATTR.search(attr):
                        yield ctx.finding(
                            self,
                            stmt,
                            f"memo/cache attribute {attr!r} in class "
                            f"{node.name!r} will be pickled across the "
                            "process pool; add __getstate__ that drops it",
                        )


# -- DET107: identity-keyed comprehensions in coordination code ---------------


@register
class IdentityComprehensionRule(Rule):
    id = "DET107"
    name = "identity-comprehension"
    requires = "coord-core"
    doc = (
        "No dict/set comprehensions or literals keyed on id() in coord/ and "
        "core/: coordination decisions must never depend on memory layout."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.DictComp):
                if _contains_id_call(node.key):
                    yield ctx.finding(
                        self,
                        node,
                        "dict comprehension keyed on id(): identity keys in "
                        "coordination state order by memory address",
                    )
            elif isinstance(node, ast.SetComp):
                if _contains_id_call(node.elt):
                    yield ctx.finding(
                        self,
                        node,
                        "set comprehension of id() values: identity sets in "
                        "coordination state order by memory address",
                    )
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and _contains_id_call(key):
                        yield ctx.finding(
                            self,
                            node,
                            "dict literal keyed on id() in coordination "
                            "code",
                        )
            elif isinstance(node, ast.Set):
                for elt in node.elts:
                    if _contains_id_call(elt):
                        yield ctx.finding(
                            self,
                            node,
                            "set literal of id() values in coordination "
                            "code",
                        )


# -- DET108: bare except in sim coroutines ------------------------------------


@register
class BareExceptRule(Rule):
    id = "DET108"
    name = "bare-except"
    requires = "sim"
    doc = (
        "No bare `except:` (or `except BaseException:` without re-raise) in "
        "sim-reachable code: it swallows GeneratorExit/ProcessKilled and "
        "masks kill-order bugs."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    self,
                    node,
                    "bare except swallows GeneratorExit/ProcessKilled in "
                    "sim coroutines; catch Exception (or narrower)",
                )
                continue
            names = {
                (_dotted_name(t) or "")
                for t in (
                    node.type.elts
                    if isinstance(node.type, ast.Tuple)
                    else [node.type]
                )
            }
            if "BaseException" in names:
                reraises = any(
                    isinstance(stmt, ast.Raise) and stmt.exc is None
                    for stmt in ast.walk(node)
                )
                if not reraises:
                    yield ctx.finding(
                        self,
                        node,
                        "except BaseException without re-raise swallows "
                        "GeneratorExit/ProcessKilled in sim coroutines",
                    )
