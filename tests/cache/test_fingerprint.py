"""Unit tests for AST-normalized module fingerprinting.

The invalidation contract: editing an experiment module or anything it
transitively imports (first-party only) changes the fingerprint; editing
comments/whitespace — or modules outside the import closure — does not.
"""

import textwrap

import pytest

from repro.cache.fingerprint import (
    FingerprintError,
    clear_fingerprint_caches,
    fingerprint_module,
    normalized_source_digest,
)


def write(path, source: str) -> None:
    path.write_text(textwrap.dedent(source), encoding="utf-8")


@pytest.fixture
def tree(tmp_path):
    """A fake first-party package: exp -> helper -> leaf, plus an
    unrelated module outside the closure."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    write(pkg / "__init__.py", "")
    write(
        pkg / "exp.py",
        """
        from pkg.helper import double

        def run(x):
            return double(x) + 1
        """,
    )
    write(
        pkg / "helper.py",
        """
        from pkg.leaf import BASE

        def double(x):
            return 2 * x + BASE
        """,
    )
    write(pkg / "leaf.py", "BASE = 0\n")
    write(pkg / "unrelated.py", "def nope():\n    return 0\n")
    clear_fingerprint_caches()
    yield tmp_path
    clear_fingerprint_caches()


def fp(tree):
    clear_fingerprint_caches()
    return fingerprint_module("pkg.exp", root=tree, prefix="pkg")


class TestClosure:
    def test_transitive_first_party_imports_included(self, tree):
        result = fp(tree)
        assert "pkg.exp" in result.modules
        assert "pkg.helper" in result.modules
        assert "pkg.leaf" in result.modules
        assert "pkg" in result.modules  # ancestor package __init__

    def test_unrelated_module_excluded(self, tree):
        assert "pkg.unrelated" not in fp(tree).modules

    def test_relative_imports_resolve(self, tree):
        write(
            tree / "pkg" / "exp.py",
            """
            from .helper import double

            def run(x):
                return double(x)
            """,
        )
        assert "pkg.helper" in fp(tree).modules

    def test_missing_module_raises(self, tree):
        with pytest.raises(FingerprintError):
            clear_fingerprint_caches()
            fingerprint_module("pkg.ghost", root=tree, prefix="pkg")


class TestInvalidation:
    def test_editing_experiment_module_changes_digest(self, tree):
        before = fp(tree).digest
        write(
            tree / "pkg" / "exp.py",
            """
            from pkg.helper import double

            def run(x):
                return double(x) + 2
            """,
        )
        assert fp(tree).digest != before

    def test_editing_transitive_helper_changes_digest(self, tree):
        before = fp(tree).digest
        write(tree / "pkg" / "leaf.py", "BASE = 1\n")
        assert fp(tree).digest != before

    def test_comment_edit_keeps_digest(self, tree):
        before = fp(tree).digest
        write(
            tree / "pkg" / "exp.py",
            """
            # a brand-new comment that must not invalidate the cache
            from pkg.helper import double

            def run(x):
                return double(x) + 1  # trailing commentary
            """,
        )
        assert fp(tree).digest == before

    def test_whitespace_edit_keeps_digest(self, tree):
        before = fp(tree).digest
        write(
            tree / "pkg" / "helper.py",
            """
            from pkg.leaf import BASE


            def double(x):


                return 2 * x + BASE
            """,
        )
        assert fp(tree).digest == before

    def test_editing_unrelated_module_keeps_digest(self, tree):
        before = fp(tree).digest
        write(tree / "pkg" / "unrelated.py", "def nope():\n    return 99\n")
        assert fp(tree).digest == before


class TestNormalizedSourceDigest:
    def test_comment_and_whitespace_invariant(self):
        a = normalized_source_digest("x = 1\n")
        b = normalized_source_digest("# hi\nx  =  1   # bye\n\n")
        assert a == b

    def test_semantic_change_detected(self):
        assert normalized_source_digest("x = 1\n") != normalized_source_digest(
            "x = 2\n"
        )

    def test_docstring_changes_are_semantic(self):
        # ast.dump keeps docstrings: they are part of the module's value.
        assert normalized_source_digest('"""a"""\n') != normalized_source_digest(
            '"""b"""\n'
        )

    def test_syntax_error_raises(self):
        with pytest.raises(FingerprintError):
            normalized_source_digest("def (:\n")


class TestRealRegistry:
    def test_every_experiment_fingerprints(self):
        from repro.cache.store import cache_key_for
        from repro.experiments.registry import EXPERIMENTS

        digests = {
            eid: cache_key_for(eid, True, 0).fingerprint for eid in EXPERIMENTS
        }
        assert all(len(d) == 64 for d in digests.values())
        # closures converge on the shared first-party layers, so digests
        # may coincide; identity comes from the experiment_id in the key
        keys = {cache_key_for(eid, True, 0).digest for eid in EXPERIMENTS}
        assert len(keys) == len(EXPERIMENTS)

    def test_experiment_module_is_in_its_closure(self):
        fp = fingerprint_module("repro.experiments.fig1_worst_case_profile")
        assert "repro.experiments.fig1_worst_case_profile" in fp.modules
        assert len(fp.modules) > 10  # transitive closure, not a single file

    def test_fingerprint_is_deterministic(self):
        first = fingerprint_module("repro.experiments.fig1_worst_case_profile")
        second = fingerprint_module("repro.experiments.fig1_worst_case_profile")
        assert first.digest == second.digest
        assert first.modules == second.modules


def reference_module_walk(module, root, prefix):
    """The closure walk without memos: read, hash and parse every file
    each time it is reached."""
    import ast
    import hashlib

    from repro.cache.fingerprint import first_party_imports, module_path

    seen = {}
    stack = [module]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        path = module_path(current, root)
        if path is None:
            continue
        source = path.read_text(encoding="utf-8")
        seen[current] = normalized_source_digest(source)
        parts = current.split(".")
        stack.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        stack.extend(first_party_imports(ast.parse(source), current, prefix, root))
    combined = hashlib.sha256()
    for name in sorted(seen):
        combined.update(f"{name}\x00{seen[name]}\x00".encode("utf-8"))
    return combined.hexdigest()


class TestModuleModeParsesOnce:
    def test_every_experiment_matches_the_reference_walk(self, monkeypatch):
        import ast
        import functools
        from pathlib import Path

        import repro
        from repro.cache import fingerprint
        from repro.experiments.registry import EXPERIMENTS

        root = Path(repro.__file__).resolve().parent.parent
        modules = set()
        for exp in EXPERIMENTS.values():
            runner = exp.runner
            while isinstance(runner, functools.partial):
                runner = runner.func
            modules.add(runner.__module__)
        parses = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parses.append(1)
            return real_parse(source, *args, **kwargs)

        clear_fingerprint_caches()
        monkeypatch.setattr(fingerprint.ast, "parse", counting_parse)
        fps = {m: fingerprint_module(m) for m in sorted(modules)}
        monkeypatch.undo()
        # one parse per file in the union of the closures, not one per
        # (closure, file) pair
        assert len(parses) == len(set().union(*(f.modules for f in fps.values())))
        for module, fp_ in fps.items():
            assert fp_.digest == reference_module_walk(module, root, "repro"), module
