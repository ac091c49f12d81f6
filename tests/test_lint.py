"""Tests for `repro lint`: rules, suppression, baseline, exit codes, CLI."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis import (
    Baseline,
    collect_modules,
    lint_paths,
    list_rules,
    render_json,
    render_text,
)
from repro.analysis.baseline import BaselineEntry, finding_hash
from repro.cli import main
from repro.exceptions import AnalysisError

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / ".repro-lint-baseline.json"

ALL_RULE_IDS = [
    "R000", "R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008",
]


def lint_fixture(tree, select=None, **kwargs):
    return lint_paths([str(FIXTURES / tree)], select=select, **kwargs)


def findings_by_file(result):
    grouped = {}
    for finding in result.findings:
        name = finding.path.rsplit("/", 1)[-1]
        grouped.setdefault(name, []).append(finding)
    return grouped


class TestRegistry:
    def test_all_rules_registered(self):
        assert [rule.id for rule in list_rules()] == ALL_RULE_IDS

    def test_configured_packages_exist(self):
        # A rule scoped to a package that no longer exists matches
        # nothing, so a stale name would pass silently.
        for rule in list_rules():
            for package in rule.default_config.get("packages", []):
                assert (SRC / "repro" / package / "__init__.py").is_file(), (
                    rule.id,
                    package,
                )

    def test_unknown_rule_select_is_config_error(self):
        with pytest.raises(AnalysisError):
            lint_fixture("r001", select=["R777"])

    def test_unknown_severity_rule_is_config_error(self):
        with pytest.raises(AnalysisError):
            lint_fixture("r001", severities={"R777": "warning"})


class TestRuleDetection:
    """Each rule: pinned true positives in bad.py, zero findings in good.py."""

    @pytest.mark.parametrize(
        "tree, rule, bad_lines",
        [
            ("r001", "R001", [3, 10, 14, 18, 22]),
            ("r002", "R002", [10, 14, 18, 22]),
            ("r003", "R003", [6, 12, 16, 21]),
            ("r004", "R004", [3, 7, 11, 14]),
            ("r005", "R005", [7, 8, 9, 10]),
            # r006 spans two fixture packages: keygraphs/bad.py sorts
            # before service/bad.py, each pinning lines 6/12/16.
            ("r006", "R006", [6, 12, 16, 6, 12, 16]),
            ("r008", "R008", [5, 9]),
        ],
    )
    def test_bad_flagged_good_clean(self, tree, rule, bad_lines):
        result = lint_fixture(tree, select=[rule])
        grouped = findings_by_file(result)
        bad = [f for fs in grouped.values() for f in fs if "bad" in f.path]
        assert [f.line for f in bad] == bad_lines
        assert all(f.rule == rule for f in bad)
        assert not [f for fs in grouped.values() for f in fs if "good" in f.path]
        assert result.exit_code == 1

    def test_r007_unclassified_flag_flagged(self):
        result = lint_fixture("r007_bad", select=["R007"])
        assert [(f.rule, f.line) for f in result.findings] == [("R007", 9)]
        assert "mystery" in result.findings[0].message

    def test_r007_classified_and_written_clean(self):
        result = lint_fixture("r007_good", select=["R007"])
        assert result.findings == []
        assert result.exit_code == 0

    def test_r007_mapped_key_must_be_written(self):
        # The good cli.py linted WITHOUT its provenance writer: the
        # `workers` flag now promises a key nobody writes.
        result = lint_paths(
            [str(FIXTURES / "r007_good" / "cli.py")], select=["R007"]
        )
        assert len(result.findings) == 1
        assert "workers" in result.findings[0].message

    def test_r002_allows_monotonic_timers(self):
        result = lint_fixture("r002", select=["R002"])
        assert not [f for f in result.findings if "good" in f.path]

    def test_select_restricts_rules(self):
        result = lint_fixture("ci_gate", select=["R002"])
        assert {f.rule for f in result.findings} == {"R002"}

    def test_ignore_drops_rules(self):
        result = lint_fixture("ci_gate", ignore=["R001", "R002"])
        assert result.findings == []
        assert result.exit_code == 0


class TestSuppression:
    def test_valid_noqa_suppresses(self):
        result = lint_fixture("suppress", select=["R002"])
        suppressed = [f for f in result.suppressed if "suppressed.py" in f.path]
        assert len(suppressed) == 1
        assert not [f for f in result.findings if "suppressed.py" in f.path]

    def test_invalid_noqa_is_r000_and_suppresses_nothing(self):
        result = lint_fixture("suppress")
        invalid = [f for f in result.findings if "invalid.py" in f.path]
        assert [(f.rule, f.line) for f in invalid] == [
            ("R000", 7), ("R002", 7), ("R000", 11), ("R002", 11),
        ]

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.time()"
            "  # repro: noqa[R001] -- wrong rule named\n"
        )
        pkg = tmp_path / "simulation"
        pkg.mkdir()
        (pkg / "mod.py").write_text(src)
        result = lint_paths([str(tmp_path)], select=["R002"])
        assert len(result.findings) == 1
        assert result.suppressed == []


class TestSeverity:
    def test_warning_downgrade_makes_exit_zero(self):
        result = lint_fixture(
            "r008", select=["R008"], severities={"R008": "warning"}
        )
        assert len(result.findings) == 2
        assert all(f.severity == "warning" for f in result.findings)
        assert result.exit_code == 0


class TestBaseline:
    def test_round_trip(self, tmp_path):
        found = lint_fixture("r001", select=["R001"])
        baseline = Baseline.from_findings(
            found.findings, justification="fixture grandfathering"
        )
        path = tmp_path / "baseline.json"
        baseline.save(path)
        reloaded = Baseline.load(path)
        active, baselined = reloaded.split(found.findings)
        assert active == []
        assert len(baselined) == len(found.findings)

    def test_baselined_findings_do_not_fail(self, tmp_path):
        found = lint_fixture("r001", select=["R001"])
        path = tmp_path / "baseline.json"
        Baseline.from_findings(found.findings, justification="pinned").save(path)
        result = lint_fixture(
            "r001", select=["R001"], baseline=Baseline.load(path)
        )
        assert result.findings == []
        assert len(result.baselined) == len(found.findings)
        assert result.exit_code == 0

    def test_count_budget_is_consumed(self, tmp_path):
        found = lint_fixture("r008", select=["R008"])
        assert len(found.findings) == 2
        # Both findings share a file; give the baseline budget for one.
        entry_hash = finding_hash(found.findings[0])
        partial = Baseline(
            entries=[
                BaselineEntry(
                    rule="R008",
                    path=found.findings[0].path,
                    hash=entry_hash,
                    justification="only one grandfathered",
                    count=1,
                )
            ]
        )
        active, baselined = partial.split(found.findings)
        assert len(baselined) == 1
        assert len(active) == 1

    def test_missing_justification_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro-lint-baseline/v1",
                    "entries": [
                        {
                            "rule": "R001",
                            "path": "x.py",
                            "hash": "0" * 16,
                            "count": 1,
                            "justification": "",
                        }
                    ],
                }
            )
        )
        with pytest.raises(AnalysisError):
            Baseline.load(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"format": "something-else", "entries": []}))
        with pytest.raises(AnalysisError):
            Baseline.load(path)


class TestReporters:
    def test_json_report_shape(self):
        result = lint_fixture("ci_gate")
        payload = json.loads(render_json(result))
        assert payload["format"] == "repro-lint-report/v1"
        assert payload["summary"]["exit_code"] == 1
        assert payload["summary"]["active"] == len(result.findings)
        first = payload["findings"][0]
        assert {"rule", "path", "line", "col", "message", "severity"} <= set(first)

    def test_text_report_mentions_each_finding(self):
        result = lint_fixture("ci_gate")
        text = render_text(result)
        for finding in result.findings:
            assert f"{finding.path}:{finding.line}" in text

    def test_parse_error_reported_not_crashed(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        modules, errors = collect_modules([str(tmp_path)])
        assert modules == []
        assert [e.rule for e in errors] == ["R999"]
        result = lint_paths([str(tmp_path)])
        assert result.exit_code == 1


class TestCli:
    def test_exit_zero_on_clean_tree(self):
        assert main(["lint", str(FIXTURES / "r007_good"), "--no-baseline"]) == 0

    def test_exit_one_on_violation_tree(self, capsys):
        code = main(["lint", str(FIXTURES / "ci_gate"), "--no-baseline"])
        assert code == 1
        assert "R001" in capsys.readouterr().out

    def test_exit_two_on_config_error(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "ci_gate"), "--select", "R777"]
        )
        assert code == 2
        assert "R777" in capsys.readouterr().err

    def test_json_format(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "ci_gate"), "--no-baseline",
             "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] > 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_severity_override_flag(self):
        code = main(
            ["lint", str(FIXTURES / "r008"), "--no-baseline",
             "--select", "R008", "--severity", "R008=warning"]
        )
        assert code == 0

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        code = main(
            ["lint", str(FIXTURES / "r008"), "--select", "R008",
             "--write-baseline", str(baseline_path)]
        )
        assert code == 0
        assert baseline_path.exists()
        capsys.readouterr()
        code = main(
            ["lint", str(FIXTURES / "r008"), "--select", "R008",
             "--baseline", str(baseline_path)]
        )
        assert code == 0
        assert "baselined" in capsys.readouterr().out


class TestCiGate:
    """Pin the exact commands the CI lint leg runs."""

    def test_src_tree_clean_against_committed_baseline(self, capsys):
        """`repro lint src/` must be green with the committed baseline."""
        assert BASELINE.exists()
        code = main(["lint", str(SRC), "--baseline", str(BASELINE),
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0, payload["findings"]
        assert payload["summary"]["active"] == 0

    def test_committed_baseline_entries_are_justified(self):
        baseline = Baseline.load(BASELINE)
        assert baseline.entries, "baseline exists but grandfathers nothing"
        for entry in baseline.entries:
            assert len(entry.justification.split()) >= 3

    def test_gate_fails_on_seeded_violation(self):
        """A synthetic violation tree must trip the gate (exit 1)."""
        assert main(["lint", str(FIXTURES / "ci_gate"), "--no-baseline"]) == 1
