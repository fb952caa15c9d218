"""Suppression-index edge cases: multi-rule disables, pragmas guarding
decorated definitions, and stale-suppression reporting."""

from __future__ import annotations

import ast
import textwrap

from repro.cli import main
from repro.devtools import Diagnostic, lint_source, scan_suppressions


def dedent(source: str) -> str:
    return textwrap.dedent(source)


def diag(line: int, rule: str) -> Diagnostic:
    return Diagnostic("f.py", line, 1, rule, "m")


class TestMultiRuleDisables:
    def test_one_pragma_many_rules(self):
        index = scan_suppressions(
            "x = 1  # repro-lint: disable=a-rule,b-rule, c-rule\n"
        )
        for rule in ("a-rule", "b-rule", "c-rule"):
            assert index.is_suppressed(diag(1, rule))
        assert not index.is_suppressed(diag(1, "d-rule"))

    def test_stacked_pragmas_accumulate_on_one_target(self):
        source = (
            "# repro-lint: disable=a-rule\n"
            "x = 1  # repro-lint: disable=b-rule\n"
        )
        index = scan_suppressions(source)
        assert index.is_suppressed(diag(2, "a-rule"))
        assert index.is_suppressed(diag(2, "b-rule"))

    def test_file_and_line_scopes_are_independent(self):
        source = (
            "# repro-lint: disable-file=a-rule\n"
            "x = 1  # repro-lint: disable=b-rule\n"
        )
        index = scan_suppressions(source)
        assert index.is_suppressed(diag(99, "a-rule"))  # anywhere
        assert index.is_suppressed(diag(2, "b-rule"))
        assert not index.is_suppressed(diag(99, "b-rule"))

    def test_duplicate_rule_in_one_pragma_collapses(self):
        index = scan_suppressions("x = 1  # repro-lint: disable=a-rule,a-rule\n")
        (sup,) = index.suppressions
        assert sup.rules == ("a-rule",)

    def test_multi_rule_lint_integration(self):
        source = dedent(
            """
            import numpy as np

            __all__ = []
            gen = np.random.default_rng(0)  # repro-lint: disable=rng-factory,units-mixing
            """
        )
        assert lint_source(source, path="benchmarks/x.py") == []


class TestPragmasAreComments:
    def test_pragma_text_in_a_string_waives_nothing(self):
        source = dedent(
            """
            import numpy as np

            __all__ = []
            HINT = "waive with # repro-lint: disable-file=rng-factory"
            gen = np.random.default_rng(0)
            """
        )
        diags = lint_source(source, path="benchmarks/x.py")
        assert [d.rule for d in diags] == ["rng-factory"]

    def test_pragma_text_in_a_docstring_is_not_indexed(self):
        source = '"""Waive with ``# repro-lint: disable=a-rule``."""\nx = 1\n'
        assert scan_suppressions(source).suppressions == []

    def test_comment_after_a_multiline_string_trails_its_last_line(self):
        source = 'x = """a\nb"""  # repro-lint: disable=a-rule\ny = 2\n'
        index = scan_suppressions(source)
        assert index.is_suppressed(diag(2, "a-rule"))
        assert not index.is_suppressed(diag(3, "a-rule"))


class TestDecoratedDefs:
    DECORATED = dedent(
        """
        import functools

        # repro-lint: disable=some-rule
        @functools.lru_cache
        def cached(x):
            return x
        """
    )

    def index(self, source):
        return scan_suppressions(source, ast.parse(source))

    def test_pragma_above_decorator_covers_the_def_line(self):
        index = self.index(self.DECORATED)
        # rules anchor at the def line (6), not the decorator line (5)
        assert index.is_suppressed(diag(6, "some-rule"))

    def test_pragma_trailing_the_decorator_covers_the_def_line(self):
        source = dedent(
            """
            import functools

            @functools.lru_cache  # repro-lint: disable=some-rule
            def cached(x):
                return x
            """
        )
        index = self.index(source)
        assert index.is_suppressed(diag(5, "some-rule"))

    def test_without_tree_only_the_literal_line_is_covered(self):
        index = scan_suppressions(self.DECORATED)  # no AST handed in
        assert index.is_suppressed(diag(5, "some-rule"))
        assert not index.is_suppressed(diag(6, "some-rule"))

    def test_decorated_def_lint_integration(self):
        source = dedent(
            """
            import functools

            __all__ = []

            # module-exports anchors its diagnostic at the def line
            # repro-lint: disable=module-exports
            @functools.lru_cache
            def helper(x):
                return x
            """
        )
        assert lint_source(source, path="src/x.py") == []

    def test_unsuppressed_decorated_def_still_fires(self):
        source = dedent(
            """
            import functools

            __all__ = []

            @functools.lru_cache
            def helper(x):
                return x
            """
        )
        diags = lint_source(source, path="src/x.py")
        assert [d.rule for d in diags] == ["module-exports"]
        assert diags[0].line == 7  # anchored at the def, not the decorator


class TestStaleSuppressions:
    def test_matched_pragma_is_not_stale(self):
        index = scan_suppressions("x = 1  # repro-lint: disable=a-rule\n")
        assert index.is_suppressed(diag(1, "a-rule"))
        assert list(index.iter_stale()) == []

    def test_unmatched_pragma_is_stale(self):
        index = scan_suppressions("x = 1  # repro-lint: disable=a-rule\n")
        assert list(index.iter_stale()) == [(1, "a-rule")]

    def test_staleness_is_per_rule_within_one_pragma(self):
        index = scan_suppressions(
            "x = 1  # repro-lint: disable=a-rule,b-rule\n"
        )
        assert index.is_suppressed(diag(1, "a-rule"))
        assert list(index.iter_stale()) == [(1, "b-rule")]

    def test_unknown_rules_are_not_ours_to_judge(self):
        index = scan_suppressions("x = 1  # repro-lint: disable=their-rule\n")
        assert list(index.iter_stale(known_rules={"our-rule"})) == []
        assert list(index.iter_stale(known_rules={"their-rule"})) == [
            (1, "their-rule")
        ]

    def test_all_pragma_stale_only_when_nothing_matched(self):
        source = "x = 1  # repro-lint: disable=all\n"
        index = scan_suppressions(source)
        assert list(index.iter_stale()) == [(1, "all")]
        index = scan_suppressions(source)
        assert index.is_suppressed(diag(1, "any-rule"))
        assert list(index.iter_stale()) == []

    def test_lint_source_reports_stale(self):
        source = dedent(
            """
            __all__ = []
            x = 1  # repro-lint: disable=rng-factory
            """
        )
        diags = lint_source(source, path="src/x.py", report_stale=True)
        assert [d.rule for d in diags] == ["stale-suppression"]
        assert diags[0].line == 3
        assert "rng-factory" in diags[0].message

    def test_live_waiver_not_reported(self):
        source = dedent(
            """
            import numpy as np

            __all__ = []
            gen = np.random.default_rng(0)  # repro-lint: disable=rng-factory
            """
        )
        assert lint_source(source, path="src/x.py", report_stale=True) == []

    def test_foreign_rule_waiver_not_reported_by_lint(self):
        # nondet-* waivers are consumed by `repro analyze`, not the
        # shallow linter — lint --stale must not call them stale.
        source = dedent(
            """
            import time

            __all__ = []
            T0 = time.time()  # repro-lint: disable=nondet-wallclock
            """
        )
        diags = lint_source(source, path="src/x.py", report_stale=True)
        assert "stale-suppression" not in {d.rule for d in diags}

    def test_cli_stale_flag(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(
            "__all__ = []\nx = 1  # repro-lint: disable=rng-factory\n",
            encoding="utf-8",
        )
        assert main(["lint", str(target)]) == 0
        assert main(["lint", "--stale", str(target)]) == 1
        assert "stale-suppression" in capsys.readouterr().out
