"""The package graph is a DAG, and the node is the data plane only.

``sim -> storage -> engine -> core -> coord -> {workload, chaos, obs} ->
cluster -> experiments``: every runtime ``repro.*`` import under ``src/repro``
— module-level *and* function-local — points to the same or an earlier
layer.  ``TYPE_CHECKING`` blocks are exempt (they never run), and so are the
two packages that stand outside the stack: ``repro/__init__.py`` (the
top-level facade re-exports from everywhere) and ``repro.analysis`` (detlint,
which imports nothing of the system it lints — checked here too).

This generalises ``tests/test_failure_pipeline.py``'s ``core/failure.py``
check to the whole tree.  The bottom layer also carries nothing only tests
call: every name ``repro.sim`` exports, and every public ``Simulator``
method, has a reader in ``src/repro`` outside the module defining it; and
every RPC actor registers exactly the verbs the program calls.  The WAL is
read one way: only ``storage/log.py`` tells decision records or update
kinds apart.  And no module imports ``gc``: what the cyclic collector costs
is kept down by the heap's shape (``tests/test_no_cyclic_garbage.py``),
never by collector settings.
"""

import ast
import importlib
import inspect
from pathlib import Path

import repro
import repro.sim
from repro.coord.fdb import FdbService
from repro.coord.lease import LeaseService
from repro.coord.zookeeper import ZooKeeperService
from repro.core import invariants
from repro.core.base import CoordinationRuntime
from repro.core.runtime import MarlinRuntime
from repro.engine.node import ComputeNode
from repro.engine.replication import ReplicaTail
from repro.sim.core import Simulator
from repro.sim.network import LatencyModel, Network
from repro.storage.pagestore import PageStore
from repro.storage.service import StorageService
from tests.conftest import make_cluster

SRC = Path(repro.__file__).resolve().parent

#: Earlier layers know nothing of later ones; a set is one rank.
ORDER = (
    {"sim"}, {"storage"}, {"engine"}, {"core"}, {"coord"},
    {"workload", "chaos", "obs"}, {"cluster"}, {"experiments"},
)
RANK = {pkg: rank for rank, layer in enumerate(ORDER) for pkg in layer}

#: Everything ``ComputeNode`` registers on its own endpoint.
DATA_PLANE = {
    "user_txn", "user_branch", "branch_fast", "branch_abort", "vote_req",
    "decision", "heartbeat", "scan_gtable",
}
RECONFIG_VERBS = {"migr_prepare", "run_migrations", "warmup_pull"}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def runtime_imports(tree: ast.AST):
    """Every ``repro.<pkg>`` a module imports when it runs, at any depth."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, "relative import under src/repro"
            names = [node.module]
            if node.module == "repro":  # ``from repro import core``
                names = [f"repro.{alias.name}" for alias in node.names]
        else:
            stack.extend(ast.iter_child_nodes(node))
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield node.lineno, parts[1]


def test_every_runtime_import_points_down_the_stack():
    upward, seen = [], 0
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        pkg = rel.parts[0]
        if len(rel.parts) == 1:
            continue  # repro/__init__.py: the facade above every layer
        for lineno, target in runtime_imports(ast.parse(path.read_text())):
            seen += 1
            if pkg == "analysis" or target == "analysis":
                ok = pkg == target  # the linter and the system never meet
            else:
                ok = RANK[target] <= RANK[pkg]
            if not ok:
                upward.append(f"{rel}:{lineno} imports repro.{target}")
    assert seen > 100, "the walk found no imports: the check is vacuous"
    assert not upward, "\n".join(upward)


def test_every_package_has_a_layer():
    packages = {p.name for p in SRC.iterdir() if (p / "__init__.py").exists()}
    assert packages == set(RANK) | {"analysis"}


def test_no_import_is_parked_at_the_bottom_of_a_file():
    parked = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "noqa: E402" in line
    ]
    assert not parked, parked


def _imports_gc(tree: ast.AST):
    """Lines that import ``gc`` (or a name from it)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "gc" for name in names):
            yield node.lineno


def test_no_module_imports_gc():
    found = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno in _imports_gc(ast.parse(path.read_text()))
    ]
    assert not found, f"gc imported under src/repro: {found}"


def test_moved_modules_left_no_stub_behind():
    assert not (SRC / "coord" / "base.py").exists()
    assert not (SRC / "core" / "participant.py").exists()


class _BareRuntime:
    """Registers nothing: what the node's endpoint then holds is its own."""

    def attach(self, node):
        self.node = node


def test_reconfiguration_verbs_arrive_through_the_runtime():
    """The node's own endpoint table is the transaction path; all three
    reconfiguration verbs register in ``CoordinationRuntime.attach``."""
    cluster = make_cluster("zk-small", num_nodes=1)
    real = cluster.nodes[0]
    bare = ComputeNode(
        cluster.sim, cluster.network, 99, real.region, real.storage_address,
        cluster.gmap, runtime=_BareRuntime(), metrics=cluster.metrics,
    )
    assert set(bare.endpoint._handlers) == DATA_PLANE
    assert RECONFIG_VERBS <= set(real.endpoint._handlers) - DATA_PLANE
    assert CoordinationRuntime.attach.__module__ == "repro.core.base"


#: Every verb each service actor registers; each one has a program caller.
SERVICE_VERBS = {
    StorageService: {
        "append", "append_batch", "check_lsn", "get_page", "log_end_lsn",
        "read_log", "scan_table", "txn_outcome",
    },
    ZooKeeperService: {
        "zk_write", "zk_delete", "zk_scan", "sess_ping", "sess_check",
    },
    FdbService: {
        "fdb_get_read_version", "fdb_commit", "fdb_scan", "sess_ping",
        "sess_check",
    },
    LeaseService: {
        "lease_write", "lease_delete", "lease_scan", "lease_acquire",
        "lease_renew", "lease_release", "lease_table",
    },
}


def test_service_actors_register_only_called_verbs():
    sim = Simulator(seed=1)
    network = Network(sim, LatencyModel())
    for service, verbs in SERVICE_VERBS.items():
        registered = set(service(sim, network).endpoint._handlers)
        assert registered == verbs, service.__name__


#: The one module that reads what a WAL record means.
WAL_READER = SRC / "storage" / "log.py"


def _wal_readings(tree: ast.AST):
    """Places a module tells decision records or update kinds apart: a
    comparison against ``RecordKind.DECISION_*`` or an ``isinstance`` test
    for ``Delete`` / ``Increment``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in ast.walk(node):
                if isinstance(operand, ast.Attribute) and operand.attr in (
                    "DECISION_COMMIT", "DECISION_ABORT",
                ):
                    yield node.lineno, f"compares with {operand.attr}"
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
        ):
            for cls in ast.walk(node.args[1]):
                if getattr(cls, "id", None) in ("Delete", "Increment"):
                    yield node.lineno, f"isinstance(_, {cls.id})"


def test_the_wal_is_read_one_way():
    readings = {
        path: list(_wal_readings(ast.parse(path.read_text())))
        for path in sorted(SRC.rglob("*.py"))
    }
    assert readings.pop(WAL_READER), "log.py reads nothing: vacuous walk"
    stray = [
        f"{path.relative_to(SRC)}:{lineno} {what}"
        for path, found in readings.items()
        for lineno, what in found
    ]
    assert not stray, "\n".join(stray)
    assert not hasattr(PageStore, "_apply_entries")
    assert not hasattr(ReplicaTail, "_fold")
    assert not hasattr(invariants, "_first_decisions")
    assert "decisions(records)" in inspect.getsource(MarlinRuntime._apply_records)


#: Public ``Simulator`` methods kept without a reader in ``src/repro``.
SIM_ALLOWLIST = {"step": "test reference for `run_until`"}


def _referenced_names(tree: ast.AST, receivers=None) -> set:
    """Names a module mentions: bare names, imported names and attributes
    (only attributes read off one of ``receivers``, when given)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            value = node.value
            owner = getattr(value, "id", None) or getattr(value, "attr", None)
            if receivers is None or owner in receivers:
                names.add(node.attr)
        elif receivers is not None:
            continue
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _trees_except(*excluded: Path):
    for path in sorted(SRC.rglob("*.py")):
        if path not in excluded:
            yield ast.parse(path.read_text())


def test_sim_exports_have_readers_outside_their_module():
    unread = []
    facade = SRC / "sim" / "__init__.py"
    for name in repro.sim.__all__:
        home = next(
            mod for mod in ("core", "network", "resources", "rpc")
            if name in importlib.import_module(f"repro.sim.{mod}").__all__
        )
        defining = SRC / "sim" / f"{home}.py"
        if not any(
            name in _referenced_names(tree)
            for tree in _trees_except(defining, facade)
        ):
            unread.append(f"repro.sim.{home}.{name}")
    assert not unread, f"exported but read only by tests: {unread}"


def test_simulator_methods_have_readers_outside_the_kernel():
    from repro.sim.core import Simulator

    core = SRC / "sim" / "core.py"
    klass = next(
        node for node in ast.parse(core.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == Simulator.__name__
    )
    public = {
        node.name for node in klass.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    read = set()
    for tree in _trees_except(core):
        read |= _referenced_names(tree, receivers={"sim", "_sim"})
    assert {"timer", "timer_token", "run_until"} <= read, "vacuous walk"
    assert set(SIM_ALLOWLIST) <= public
    assert not set(SIM_ALLOWLIST) & read, "allowlisted method now has a reader"
    unread = sorted(public - read - set(SIM_ALLOWLIST))
    assert not unread, f"Simulator methods only tests call: {unread}"
