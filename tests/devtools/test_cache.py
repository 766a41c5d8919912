"""The incremental cache: hit accounting, invalidation, robustness."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

from repro.devtools import LintEngine
from repro.devtools.cache import rule_sources_digest

BAD = """\
    def check(p, log=[]):
        return p == 1.0
    """

RULES = ("float-equality", "mutable-default")


def _engine(tmp_path, select=RULES):
    return LintEngine(select=select, cache_path=tmp_path / "cache.json")


class TestCacheLifecycle:
    def test_cold_run_misses_then_warm_run_hits(self, tree, tmp_path):
        tree.write("repro/core/a.py", BAD)
        tree.write("repro/core/b.py", "X = 1\n")
        cold = _engine(tmp_path).lint_paths([tree.root])
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        warm = _engine(tmp_path).lint_paths([tree.root])
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)

    def test_warm_run_replays_identical_findings(self, tree, tmp_path):
        tree.write("repro/core/a.py", BAD)
        cold = _engine(tmp_path).lint_paths([tree.root])
        warm = _engine(tmp_path).lint_paths([tree.root])
        assert warm.findings == cold.findings
        assert not warm.ok and len(warm.blocking) == 2

    def test_cached_suppressions_still_apply(self, tree, tmp_path):
        tree.write("repro/core/a.py", """\
            def check(p):
                return p == 1.0  # repro: allow-float-equality -- sentinel
            """)
        assert _engine(tmp_path).lint_paths([tree.root]).ok
        warm = _engine(tmp_path).lint_paths([tree.root])
        assert warm.ok
        assert [f.rule for f in warm.suppressed] == ["float-equality"]

    def test_edited_file_misses_while_others_hit(self, tree, tmp_path):
        tree.write("repro/core/a.py", BAD)
        tree.write("repro/core/b.py", "X = 1\n")
        _engine(tmp_path).lint_paths([tree.root])
        tree.write("repro/core/b.py", "X = 2\n")
        mixed = _engine(tmp_path).lint_paths([tree.root])
        assert (mixed.cache_hits, mixed.cache_misses) == (1, 1)

    def test_edit_changes_findings_not_stale_replay(self, tree, tmp_path):
        tree.write("repro/core/a.py", "X = 1\n")
        assert _engine(tmp_path).lint_paths([tree.root]).ok
        tree.write("repro/core/a.py", BAD)
        report = _engine(tmp_path).lint_paths([tree.root])
        assert len(report.blocking) == 2


class TestCacheInvalidation:
    def test_different_rule_selection_invalidates(self, tree, tmp_path):
        tree.write("repro/core/a.py", BAD)
        _engine(tmp_path).lint_paths([tree.root])
        other = _engine(tmp_path, select=("float-equality",))
        report = other.lint_paths([tree.root])
        assert (report.cache_hits, report.cache_misses) == (0, 1)

    def test_corrupt_cache_file_is_treated_as_empty(self, tree, tmp_path):
        tree.write("repro/core/a.py", BAD)
        (tmp_path / "cache.json").write_text("{not json", encoding="utf-8")
        report = _engine(tmp_path).lint_paths([tree.root])
        assert (report.cache_hits, report.cache_misses) == (0, 1)
        assert len(report.blocking) == 2
        # And the corrupt file was replaced with a loadable one.
        assert json.loads((tmp_path / "cache.json").read_text())

    def test_failed_save_keeps_the_previous_entries(self, tree, tmp_path,
                                                    disk_full):
        tree.write("repro/core/a.py", BAD)
        _engine(tmp_path).lint_paths([tree.root])
        tree.write("repro/core/b.py", "X = 1\n")
        with disk_full():
            _engine(tmp_path).lint_paths([tree.root])
        report = _engine(tmp_path).lint_paths([tree.root])
        assert (report.cache_hits, report.cache_misses) == (1, 1)
        assert sorted(entry.name for entry in tmp_path.iterdir()) == [
            "cache.json", "src"]

    def test_no_cache_path_means_no_accounting(self, tree):
        tree.write("repro/core/a.py", BAD)
        report = LintEngine(select=RULES).lint_paths([tree.root])
        assert (report.cache_hits, report.cache_misses) == (0, 0)


class TestRuleSourceInvalidation:
    """Cached findings were produced by rule *code*: editing a rule module
    (same rule names, same config) must invalidate the whole cache."""

    def test_digest_tracks_rule_file_bytes(self, tmp_path):
        path = tmp_path / "fake_rule.py"
        path.write_text("THRESHOLD = 1\n")
        module = types.ModuleType("_fake_rule_mod")
        module.__file__ = str(path)
        sys.modules["_fake_rule_mod"] = module
        try:
            class FakeRule:
                pass
            FakeRule.__module__ = "_fake_rule_mod"
            before = rule_sources_digest([FakeRule()])
            assert before == rule_sources_digest([FakeRule()])  # stable
            path.write_text("THRESHOLD = 2\n")
            after = rule_sources_digest([FakeRule()])
        finally:
            del sys.modules["_fake_rule_mod"]
        assert before != after

    def test_editing_a_rule_module_invalidates_the_cache(
            self, tree, tmp_path, monkeypatch):
        tree.write("repro/core/a.py", BAD)
        # Point one active rule's defining module at a scratch copy so the
        # test can "edit the rule" without touching the real source tree.
        probe = _engine(tmp_path)
        module = sys.modules[type(probe.rules[0]).__module__]
        copy = tmp_path / "rule_copy.py"
        copy.write_bytes(Path(module.__file__).read_bytes())
        monkeypatch.setattr(module, "__file__", str(copy))
        _engine(tmp_path).lint_paths([tree.root])
        warm = _engine(tmp_path).lint_paths([tree.root])
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        copy.write_bytes(copy.read_bytes() + b"\n# rule logic edited\n")
        edited = _engine(tmp_path).lint_paths([tree.root])
        assert (edited.cache_hits, edited.cache_misses) == (0, 1)


class TestLazyParsing:
    def test_warm_hits_skip_parsing_unless_a_project_rule_needs_it(
            self, tree, tmp_path):
        """Cache hits hand back unparsed modules; per-file rules replay
        from the cache, so with only those selected no AST is built."""
        tree.write("repro/core/a.py", BAD)
        engine = _engine(tmp_path)
        engine.lint_paths([tree.root])
        warm = _engine(tmp_path)
        project, _ = warm.build_project([tree.root])
        assert [m.is_parsed for m in project.modules] == [False]
