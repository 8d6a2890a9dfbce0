"""detlint test suite: per-rule fixtures, waivers, CLI, meta.

Fixture snippets live in ``tests/analysis_fixtures/`` — deliberately buggy
code that must never be imported or collected (see the decoy test there and
``test_fixture_dir_is_never_collected``).  Each rule gets a positive fixture
(the rule fires), a negative fixture (the sanctioned idiom stays quiet), and
the waiver machinery is exercised separately.

The four historical bug classes the linter encodes (PR 7's process-global txn
counter, PR 6's id()-ordered object-set sweep, wall-clock reads inside seeded
runs, PR 4's pickled memo cache) each also get an inline minimal-repro test:
the rule must fire on the exact shape that bit us.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import main as cli_main
from repro.analysis.config import repo_relative, tags_for_path
from repro.analysis.framework import all_rules, analyze_paths, analyze_source

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).parent / "analysis_fixtures"

RULE_IDS = (
    "DET101",
    "DET102",
    "DET103",
    "DET104",
    "DET105",
    "DET106",
    "DET107",
    "DET108",
)


def lint_fixture(name):
    path = FIXTURES / name
    return analyze_source(
        path.read_text(encoding="utf-8"), path=path.as_posix()
    )


def fired(findings, rule_id):
    return [f for f in findings if f.rule == rule_id and not f.waived]


# -- rule registry -------------------------------------------------------------


def test_registry_is_complete_and_documented():
    rules = {r.id: r for r in all_rules()}
    for rid in RULE_IDS:
        assert rid in rules
        assert rules[rid].name
        assert rules[rid].doc
    # DET105 is the only advisory tier; everything else gates.
    for rid, rule in rules.items():
        expected = "advisory" if rid == "DET105" else "error"
        assert rule.severity == expected, rid


# -- per-rule fixtures ---------------------------------------------------------


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_fires_on_positive_fixture(rule_id):
    findings = lint_fixture(f"{rule_id.lower()}_pos.py")
    hits = fired(findings, rule_id)
    assert hits, f"{rule_id} did not fire on its positive fixture"
    for f in hits:
        assert f.line > 0 and f.message and f.line_text
        if rule_id == "DET105":
            assert f.severity == "advisory" and not f.gates
        else:
            assert f.severity == "error" and f.gates


def test_det104_knows_all_three_node_hooks():
    """``tracer``, ``replicator`` and ``fault_hook`` (ComputeNode's docstring)
    each have a truthiness line in the positive fixture, and each fires."""
    hits = fired(lint_fixture("det104_pos.py"), "DET104")
    flagged = " ".join(f.line_text for f in hits)
    for hook in ("self.fault_hook", "self.tracer", "self.replicator"):
        assert f"{hook}:" in flagged, hook


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_quiet_on_negative_fixture(rule_id):
    findings = lint_fixture(f"{rule_id.lower()}_neg.py")
    assert not fired(findings, rule_id), (
        f"{rule_id} false-positive on its negative fixture: "
        + "; ".join(f"{f.line}: {f.message}" for f in fired(findings, rule_id))
    )


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_negative_fixtures_are_fully_clean(rule_id):
    # Not just quiet for their own rule: the sanctioned idioms must not trip
    # any *other* gating rule either.
    findings = lint_fixture(f"{rule_id.lower()}_neg.py")
    gating = [f for f in findings if f.gates]
    assert not gating, [
        (f.rule, f.line, f.message) for f in gating
    ]


# -- historical bug classes (acceptance criterion: each fires on a minimal
# -- repro of the regression it encodes) ---------------------------------------


def test_det101_fires_on_pr7_global_txn_counter():
    source = (
        "import itertools\n"
        "_txn_counter = itertools.count(1)\n"
        "class TxnContext:\n"
        "    def __init__(self, node_id):\n"
        "        self.txn_id = (node_id, next(_txn_counter))\n"
    )
    findings = analyze_source(source, path="repro/engine/txn.py")
    assert fired(findings, "DET101")


def test_det102_fires_on_pr6_object_set_sweep():
    source = (
        "class RpcEndpoint:\n"
        "    def __init__(self):\n"
        "        self._live_processes = set()\n"
        "    def kill_all(self):\n"
        "        for proc in self._live_processes:\n"
        "            proc.kill()\n"
    )
    findings = analyze_source(source, path="repro/sim/rpc.py")
    assert fired(findings, "DET102")


def test_det103_fires_on_wall_clock_in_sim_code():
    source = "import time\n\ndef stamp(event):\n    event.at = time.time()\n"
    findings = analyze_source(source, path="repro/engine/node.py")
    assert fired(findings, "DET103")


def test_det106_fires_on_pr4_pickled_memo_cache():
    source = (
        "class MetricsCollector:\n"
        "    def __init__(self):\n"
        "        self.latencies = []\n"
        "        self._pct_cache = {}\n"
    )
    findings = analyze_source(source, path="repro/cluster/metrics.py")
    assert fired(findings, "DET106")


def test_det106_stays_quiet_once_getstate_drops_the_memo():
    source = (
        "class MetricsCollector:\n"
        "    def __init__(self):\n"
        "        self._pct_cache = {}\n"
        "    def __getstate__(self):\n"
        "        state = self.__dict__.copy()\n"
        "        state['_pct_cache'] = {}\n"
        "        return state\n"
    )
    findings = analyze_source(source, path="repro/cluster/metrics.py")
    assert not fired(findings, "DET106")


# -- scoping -------------------------------------------------------------------


def test_rules_respect_reachability_tags():
    # Wall clock is fine in tooling-classified files...
    source = "import time\nT0 = time.time()\n"
    assert not fired(
        analyze_source(source, path="repro/experiments/parallel.py"), "DET103"
    )
    # ...and fatal in sim-reachable ones.
    assert fired(
        analyze_source(source, path="repro/coord/marlin.py"), "DET103"
    )


def test_tags_for_path_classification():
    assert tags_for_path("src/repro/sim/core.py") == {"sim", "hot-path"}
    assert tags_for_path("src/repro/analysis/cli.py") == {"tooling"}
    assert tags_for_path("src/repro/experiments/parallel.py") == {
        "tooling",
        "pool-crossing",
    }
    assert tags_for_path("src/repro/experiments/runner.py") == {
        "sim",
        "pool-crossing",
    }
    assert tags_for_path("src/repro/cluster/metrics.py") == {
        "sim",
        "pool-crossing",
    }
    assert tags_for_path("src/repro/coord/marlin.py") == {"sim", "coord-core"}
    assert tags_for_path("tests/test_analysis.py") == {"tooling"}
    assert repo_relative("/abs/src/repro/sim/core.py") == "repro/sim/core.py"
    assert repo_relative("tests/conftest.py") is None


def test_scope_pragma_overrides_path_classification():
    source = "# detlint: scope=sim\nimport time\nT0 = time.time()\n"
    # Path says tooling; pragma forces sim, so DET103 fires.
    assert fired(analyze_source(source, path="tests/whatever.py"), "DET103")


def test_scope_pragma_rejects_unknown_tags():
    with pytest.raises(ValueError, match="unknown scope tag"):
        analyze_source("# detlint: scope=warp-drive\nX = 1\n")


# -- waivers -------------------------------------------------------------------


def test_waived_fixture_has_zero_gating_findings():
    findings = lint_fixture("waived_ok.py")
    assert findings, "fixture should still produce (waived) findings"
    assert not any(f.gates for f in findings)
    for f in findings:
        assert f.waived and f.waiver_reason, (f.rule, f.line)


def test_reasonless_and_unknown_waivers_are_det100_errors():
    findings = lint_fixture("waiver_missing_reason.py")
    det100 = fired(findings, "DET100")
    messages = " / ".join(f.message for f in det100)
    assert any("no reason" in m for m in (f.message for f in det100))
    assert "DET999" in messages  # the unknown-rule waiver is named
    # The reasonless waiver does not suppress: its DET101 still gates.
    assert any(f.rule == "DET101" and f.gates for f in findings)
    # The well-formed waiver on the last line does suppress its DET101.
    assert any(
        f.rule == "DET101" and f.waived and f.waiver_reason for f in findings
    )


def test_det100_itself_cannot_be_waived():
    source = (
        "# detlint: ok(DET100) — attempt to silence the hygiene rule\n"
        "# detlint: ok(DET101)\n"
    )
    findings = analyze_source(source, path="repro/sim/x.py")
    assert any(f.rule == "DET100" and f.gates for f in findings)


def test_trailing_and_standalone_waiver_placement():
    trailing = (
        "# detlint: scope=sim\n"
        "import itertools\n"
        "_c = itertools.count(1)  # detlint: ok(DET101) — fixture, never imported\n"
    )
    standalone = (
        "# detlint: scope=sim\n"
        "import itertools\n"
        "# detlint: ok(DET101) — fixture, never imported\n"
        "_c = itertools.count(1)\n"
    )
    for source in (trailing, standalone):
        findings = analyze_source(source, path="x.py")
        assert not any(f.gates for f in findings)
        assert any(f.rule == "DET101" and f.waived for f in findings)


def test_syntax_error_becomes_det000():
    findings = analyze_source("def broken(:\n", path="x.py")
    assert [f.rule for f in findings] == ["DET000"]
    assert findings[0].gates


# -- CLI -----------------------------------------------------------------------


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in RULE_IDS:
        assert rid in out


def test_cli_text_output_and_exit_code(capsys):
    rc = cli_main([str(FIXTURES / "det101_pos.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "DET101" in out and "[error]" in out
    assert "detlint:" in out.splitlines()[-1]

    rc = cli_main([str(FIXTURES / "det101_neg.py")])
    assert rc == 0


def test_cli_json_output_round_trips(capsys):
    rc = cli_main([str(FIXTURES / "det101_pos.py"), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["version"] == 1
    assert doc["counts"]["error"] >= 1
    det101 = [f for f in doc["findings"] if f["rule"] == "DET101"]
    assert det101
    for f in det101:
        assert f["path"].endswith("det101_pos.py")
        assert f["line"] >= 1 and f["severity"] == "error"


def test_cli_rule_selection(capsys):
    # Only DET103 requested; the DET101 fixture has no wall-clock reads.
    rc = cli_main([str(FIXTURES / "det101_pos.py"), "--rules", "DET103"])
    capsys.readouterr()
    assert rc == 0
    with pytest.raises(SystemExit):
        cli_main([str(FIXTURES / "det101_pos.py"), "--rules", "DET999"])


def test_cli_missing_path_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["no/such/dir"])
    capsys.readouterr()
    assert exc.value.code == 2


# -- meta: the repo itself ------------------------------------------------------


def test_src_lints_clean():
    """CI-parity gate: zero unwaived error findings across src/."""
    findings = analyze_paths([str(SRC)])
    gating = [f for f in findings if f.gates]
    assert not gating, "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in gating
    )
    # Every waiver kept in the tree must carry its justification.
    for f in findings:
        if f.waived:
            assert f.waiver_reason, f"{f.path}:{f.line}: reasonless waiver"


def test_cli_entry_point_matches_ci_invocation():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 error(s)" in proc.stdout


# -- fixture hygiene ------------------------------------------------------------


def test_every_rule_has_pos_and_neg_fixtures():
    for rid in RULE_IDS:
        assert (FIXTURES / f"{rid.lower()}_pos.py").is_file()
        assert (FIXTURES / f"{rid.lower()}_neg.py").is_file()


def test_fixture_dir_is_never_collected():
    """The decoy test module in analysis_fixtures raises on import; pytest
    must skip the whole directory (norecursedirs + collect_ignore)."""
    decoy = FIXTURES / "test_decoy_not_collected.py"
    assert decoy.is_file()
    assert "raise RuntimeError" in decoy.read_text(encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "tests"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "test_decoy_not_collected" not in proc.stdout
