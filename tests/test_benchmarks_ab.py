"""The verdict arithmetic of ``benchmarks/ab.py`` (choosing-metrics §8).

Only the pure functions (verdicts, and the identity gates' epoch exemption):
the tool's subprocess half is exercised by CI's ``refactor-identity`` job,
which runs it for real.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "benchmarks_ab", Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BASE = [2.00, 2.10, 1.96, 2.04, 2.08, 1.98, 2.02, 2.06, 2.00, 2.04]


def scaled(factor):
    return [round(b * factor, 6) for b in BASE]


class TestClaim:
    def test_met_when_nine_of_ten_win_and_gap_exceeds_base_iqr(self):
        head = scaled(0.85)
        head[3] = BASE[3] + 0.01  # one loss
        row = ab.compare(BASE, head, "lower", 0.25, claimed=True)
        assert (row["wins"], row["losses"], row["pairs"]) == (9, 1, 10)
        assert row["verdict"] == "claim met"
        assert row["ratio"] == pytest.approx(0.85, abs=0.01)

    def test_not_met_with_two_losses(self):
        head = scaled(0.85)
        head[3] = head[7] = 2.5
        assert ab.compare(BASE, head, "lower", 0.25, claimed=True)["verdict"] == (
            "CLAIM NOT MET"
        )

    def test_ties_count_for_neither_side(self):
        head = scaled(0.85)
        head[0], head[1] = BASE[0], BASE[1]  # two ties: 8 wins of 10 pairs
        row = ab.compare(BASE, head, "lower", 0.25, claimed=True)
        assert (row["wins"], row["losses"]) == (8, 0)
        assert row["verdict"] == "CLAIM NOT MET"

    def test_not_met_when_gap_is_inside_the_base_spread(self):
        noisy = [2.0, 2.6, 1.7, 2.3, 2.5, 1.8, 2.1, 2.4, 1.9, 2.2]
        head = [b - 0.05 for b in noisy]  # wins every pair, by a hair
        row = ab.compare(noisy, head, "lower", 0.25, claimed=True)
        assert row["wins"] == 10 and row["verdict"] == "CLAIM NOT MET"

    def test_higher_is_better_direction(self):
        row = ab.compare(BASE, scaled(1.2), "higher", 0.25, claimed=True)
        assert row["wins"] == 10 and row["verdict"] == "claim met"
        assert ab.compare(BASE, scaled(0.8), "higher", 0.25, claimed=True)[
            "verdict"
        ] == "CLAIM NOT MET"


class TestUnclaimed:
    def test_identical_runs(self):
        assert ab.compare([188.16] * 3, [188.16] * 3, "higher", 0.1)["verdict"] == (
            "identical"
        )

    def test_within_bound_is_ok(self):
        assert ab.compare(BASE, scaled(1.05), "lower", 0.25)["verdict"] == "ok"
        assert ab.compare(BASE, scaled(0.9), "lower", 0.25)["verdict"] == "ok"

    def test_worse_than_bound_is_a_regression(self):
        assert ab.compare(BASE, scaled(1.3), "lower", 0.25)["verdict"] == "REGRESSION"
        assert ab.compare(BASE, scaled(0.7), "higher", 0.25)["verdict"] == "REGRESSION"

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [1.0, 2.0, 1.2, 1.9, 1.1, 2.1, 1.0, 1.8, 1.3, 2.0]
        row = ab.compare(noisy, [n * 1.02 for n in noisy], "lower", 0.25)
        assert row["verdict"] == "unresolved"

    def test_noisy_but_every_run_better_is_ok(self):
        noisy = [1.0, 2.0, 1.2, 1.9, 1.1, 2.1, 1.0, 1.8, 1.3, 2.0]
        row = ab.compare(noisy, [n * 0.3 for n in noisy], "lower", 0.25)
        assert row["verdict"] == "ok"

    def test_single_pair_has_degenerate_quartiles(self):
        row = ab.compare([68.9], [61.4], "lower", 0.25)
        assert row["base"] == (68.9, 68.9, 68.9) and row["verdict"] == "ok"
        assert ab.compare([68.9], [90.0], "lower", 0.25)["verdict"] == "REGRESSION"


class TestIdentityGates:
    def test_moved_bytes_fail_unless_the_cache_epoch_rotated(self, capsys):
        base = {"marlin run JSON": b"{}", "marlin trace": b"[1, 2]"}
        moved = {**base, "marlin trace": b"[1, 3]"}
        assert ab.moved_bytes(base, dict(base), same_epoch=True) == 0
        assert ab.moved_bytes(base, dict(base), same_epoch=False) == 0
        assert ab.moved_bytes(base, moved, same_epoch=True) == 1
        assert "MOVED" in capsys.readouterr().out
        # A rotated epoch declares a behaviour change: reported, not failed.
        assert ab.moved_bytes(base, moved, same_epoch=False) == 0
        out = capsys.readouterr().out
        assert "MOVED" in out and "gate trace: exempt" in out
