"""CLI and reporter behaviour of `repro-lint`."""

from __future__ import annotations

import json

import pytest

from repro.devtools import LintEngine, rule_names
from repro.devtools.cli import main


@pytest.fixture
def bad_tree(tree):
    tree.write("repro/core/bad.py", """\
        def check(p, log=[]):
            return p == 1.0
        """)
    return tree


def test_exit_zero_on_clean_tree(tree, capsys):
    tree.write("repro/core/fine.py", "X = 1\n")
    assert main([str(tree.root)]) == 0
    assert "OK: 0 blocking findings" in capsys.readouterr().out


def test_exit_one_on_findings(bad_tree, capsys):
    assert main([str(bad_tree.root)]) == 1
    out = capsys.readouterr().out
    assert "float-equality" in out and "mutable-default" in out


def test_warn_only_exits_zero_and_calls_findings_advisory(bad_tree, capsys):
    assert main(["--warn-only", "--no-cache", str(bad_tree.root)]) == 0
    out = capsys.readouterr().out
    assert "2 advisory findings" in out and "blocking" not in out


def test_json_format_is_parseable(bad_tree, capsys):
    assert main(["--format", "json", str(bad_tree.root)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["unsuppressed"] == 2
    assert {f["rule"] for f in payload["findings"]} == {
        "float-equality", "mutable-default"}


def test_rule_selection(bad_tree, capsys):
    assert main(["--rules", "no-import-random", str(bad_tree.root)]) == 0
    capsys.readouterr()


def test_unknown_rule_is_usage_error(bad_tree, capsys):
    assert main(["--rules", "does-not-exist", str(bad_tree.root)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_names_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in rule_names():
        assert name in out


def test_show_suppressed_prints_annotated_findings(tree, capsys):
    tree.write("repro/core/noted.py", """\
        def check(p):
            return p == 1.0  # repro: allow-float-equality -- sentinel
        """)
    assert main(["--show-suppressed", str(tree.root)]) == 0
    assert "(suppressed)" in capsys.readouterr().out


def test_parse_error_is_reported(tree):
    tree.write("repro/core/broken.py", "def broken(:\n")
    report = LintEngine().lint_paths([tree.root])
    assert [f.rule for f in report.unsuppressed] == ["parse-error"]


# ---------------------------------------------------------------------------
# --jobs: the parallel pass 1

def _spread_tree(tree):
    tree.write("repro/core/bad.py", """\
        def check(p, log=[]):
            return p == 1.0
        """)
    tree.write("repro/core/fine.py", "X = 1\n")
    tree.write("repro/phy/more.py", """\
        def threshold(x):
            return x == 0.25
        """)
    return tree


def test_jobs_flag_produces_identical_findings(tree, capsys):
    _spread_tree(tree)
    assert main(["--format", "json", str(tree.root)]) == 1
    serial = json.loads(capsys.readouterr().out)
    assert main(["--format", "json", "--jobs", "2", str(tree.root)]) == 1
    parallel = json.loads(capsys.readouterr().out)
    # Byte-identical modulo wall time: same findings, same order.
    serial.pop("timing"), parallel.pop("timing")
    assert parallel == serial


def test_jobs_zero_is_usage_error(tree, capsys):
    tree.write("repro/core/fine.py", "X = 1\n")
    assert main(["--jobs", "0", str(tree.root)]) == 2
    assert "jobs" in capsys.readouterr().err


def test_engine_parallel_run_matches_serial(tree, tmp_path):
    _spread_tree(tree)
    serial = LintEngine().lint_paths([tree.root])
    parallel = LintEngine().lint_paths([tree.root], jobs=2)
    assert parallel.findings == serial.findings
    assert parallel.modules_checked == serial.modules_checked


def test_parallel_run_fills_the_cache(tree, tmp_path):
    _spread_tree(tree)
    cache = tmp_path / "cache.json"
    cold = LintEngine(cache_path=cache).lint_paths([tree.root], jobs=2)
    assert (cold.cache_hits, cold.cache_misses) == (0, 3)
    warm = LintEngine(cache_path=cache).lint_paths([tree.root])
    assert (warm.cache_hits, warm.cache_misses) == (3, 0)
    assert warm.findings == cold.findings


def test_json_report_carries_pass1_wall_time(tree, capsys):
    tree.write("repro/core/fine.py", "X = 1\n")
    assert main(["--format", "json", str(tree.root)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["timing"]["pass1_seconds"] >= 0.0
