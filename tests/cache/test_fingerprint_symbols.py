"""Per-symbol fingerprint closure (REPRO_CACHE_FINGERPRINT=symbol).

The acceptance pin for call-graph-powered cache keys: a comment-only
edit anywhere keeps every cache entry warm, while editing a single
experiment-private helper invalidates only that experiment's entries —
the other experiments' keys are untouched.
"""

import json
import textwrap

import pytest

from repro.cache.fingerprint import (
    FINGERPRINT_MEMO,
    FingerprintError,
    clear_fingerprint_caches,
    experiment_fingerprint,
    fingerprint_memo_state,
    fingerprint_mode,
    fingerprint_module,
    fingerprint_symbols,
    source_tree_digest,
)
from repro.cache.store import Cache, CacheKey
from repro.runtime.artifact import RunArtifact


def write(path, source: str) -> None:
    path.write_text(textwrap.dedent(source), encoding="utf-8")


@pytest.fixture
def tree(tmp_path):
    """Two experiments: ``exp_a`` has a private helper, both share
    ``common``."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    write(pkg / "__init__.py", "")
    write(
        pkg / "exp_a.py",
        """
        from pkg.common import shared
        from pkg.helper_a import only_a

        EXPERIMENT_ID = "a"

        def run(quick=True, seed=0):
            return only_a(seed) + shared(seed)

        def scratch(x):
            return x - 1
        """,
    )
    write(
        pkg / "exp_b.py",
        """
        from pkg.common import shared

        EXPERIMENT_ID = "b"

        def run(quick=True, seed=0):
            return shared(seed) * 2
        """,
    )
    write(
        pkg / "helper_a.py",
        """
        def only_a(x):
            return x + 1
        """,
    )
    write(
        pkg / "common.py",
        """
        def shared(x):
            return x
        """,
    )
    clear_fingerprint_caches()
    yield tmp_path
    clear_fingerprint_caches()


def fps(tree):
    clear_fingerprint_caches()
    return {
        name: fingerprint_symbols(f"pkg.{name}", root=tree, prefix="pkg")
        for name in ("exp_a", "exp_b")
    }


class TestInvalidationScope:
    def test_comment_only_edit_keeps_every_key_warm(self, tree):
        before = fps(tree)
        for name in ("helper_a", "common", "exp_a", "exp_b"):
            path = tree / "pkg" / f"{name}.py"
            path.write_text(
                "# a comment, reflowed\n" + path.read_text(encoding="utf-8"),
                encoding="utf-8",
            )
        after = fps(tree)
        assert after["exp_a"].digest == before["exp_a"].digest
        assert after["exp_b"].digest == before["exp_b"].digest

    def test_private_helper_edit_invalidates_only_its_experiment(self, tree):
        before = fps(tree)
        write(
            tree / "pkg" / "helper_a.py",
            """
            def only_a(x):
                return x + 2
            """,
        )
        after = fps(tree)
        assert after["exp_a"].digest != before["exp_a"].digest
        assert after["exp_b"].digest == before["exp_b"].digest

    def test_shared_helper_edit_invalidates_both(self, tree):
        before = fps(tree)
        write(
            tree / "pkg" / "common.py",
            """
            def shared(x):
                return x + 1
            """,
        )
        after = fps(tree)
        assert after["exp_a"].digest != before["exp_a"].digest
        assert after["exp_b"].digest != before["exp_b"].digest

    def test_unreachable_sibling_symbol_edit_keeps_key(self, tree):
        """Per-symbol granularity *within* a module: ``scratch`` lives in
        exp_a.py but run() never reaches it."""
        before = fps(tree)
        source = (tree / "pkg" / "exp_a.py").read_text(encoding="utf-8")
        write(
            tree / "pkg" / "exp_a.py",
            source.replace("return x - 1", "return x - 2"),
        )
        after = fps(tree)
        assert after["exp_a"].digest == before["exp_a"].digest

    def test_entry_body_edit_invalidates(self, tree):
        before = fps(tree)
        source = (tree / "pkg" / "exp_a.py").read_text(encoding="utf-8")
        write(
            tree / "pkg" / "exp_a.py",
            source.replace("+ shared(seed)", "+ shared(seed) + 1"),
        )
        after = fps(tree)
        assert after["exp_a"].digest != before["exp_a"].digest

    def test_import_time_surface_edit_invalidates(self, tree):
        """Module-level code runs on import, so it is part of every
        entry key of that module."""
        before = fps(tree)
        source = (tree / "pkg" / "common.py").read_text(encoding="utf-8")
        write(tree / "pkg" / "common.py", source + "\nLIMIT = 7\n")
        after = fps(tree)
        assert after["exp_a"].digest != before["exp_a"].digest

    def test_modules_reflect_reachability(self, tree):
        result = fps(tree)
        assert "pkg.helper_a" in result["exp_a"].modules
        assert "pkg.helper_a" not in result["exp_b"].modules
        assert "pkg.common" in result["exp_b"].modules

    def test_symbol_closure_is_finer_than_module_closure(self, tree):
        """The whole point: module mode invalidates exp_b on a
        helper_a-adjacent edit path that symbol mode scopes away."""
        clear_fingerprint_caches()
        sym = fingerprint_symbols("pkg.exp_b", root=tree, prefix="pkg")
        mod = fingerprint_module("pkg.exp_b", root=tree, prefix="pkg")
        assert set(sym.modules) <= set(mod.modules)
        assert sym.digest != mod.digest  # different key spaces


class TestEntryIndirection:
    """Runners built by partial/decorator/re-export resolve to the code
    that defines them instead of over-approximating to every symbol."""

    def test_partial_entry_tracks_wrapped_impl(self, tree):
        write(
            tree / "pkg" / "exp_p.py",
            """
            import functools

            from pkg.helper_a import only_a

            def _impl(quick=True, seed=0, variant=0):
                return only_a(seed) + variant

            def scratch(x):
                return x - 1

            run = functools.partial(_impl, variant=1)
            """,
        )
        clear_fingerprint_caches()
        before = fingerprint_symbols("pkg.exp_p", root=tree, prefix="pkg")
        # edit the wrapped impl's helper: the key must move
        write(
            tree / "pkg" / "helper_a.py",
            """
            def only_a(x):
                return x + 9
            """,
        )
        clear_fingerprint_caches()
        after = fingerprint_symbols("pkg.exp_p", root=tree, prefix="pkg")
        assert after.digest != before.digest

    def test_decorator_assignment_entry_resolves(self, tree):
        write(
            tree / "pkg" / "exp_d.py",
            """
            from pkg.common import shared

            def _wrap(fn):
                return fn

            def _impl(quick=True, seed=0):
                return shared(seed)

            run = _wrap(_impl)
            """,
        )
        clear_fingerprint_caches()
        before = fingerprint_symbols("pkg.exp_d", root=tree, prefix="pkg")
        write(
            tree / "pkg" / "common.py",
            """
            def shared(x):
                return x - 5
            """,
        )
        clear_fingerprint_caches()
        after = fingerprint_symbols("pkg.exp_d", root=tree, prefix="pkg")
        assert after.digest != before.digest

    def test_reexported_entry_resolves_to_defining_symbol(self, tree):
        write(
            tree / "pkg" / "exp_r.py",
            """
            from pkg.exp_a import run
            """,
        )
        clear_fingerprint_caches()
        fp = fingerprint_symbols("pkg.exp_r", root=tree, prefix="pkg")
        # exp_a.run reaches helper_a; the re-exporting key must too
        assert "pkg.helper_a" in fp.modules
        before = fp
        write(
            tree / "pkg" / "helper_a.py",
            """
            def only_a(x):
                return x * 7
            """,
        )
        clear_fingerprint_caches()
        after = fingerprint_symbols("pkg.exp_r", root=tree, prefix="pkg")
        assert after.digest != before.digest

    def test_reexported_entry_ignores_unreachable_sibling(self, tree):
        write(
            tree / "pkg" / "exp_r.py",
            """
            from pkg.exp_a import run
            """,
        )
        clear_fingerprint_caches()
        before = fingerprint_symbols("pkg.exp_r", root=tree, prefix="pkg")
        # exp_a.scratch is unreachable from run: the key must stay put
        source = (tree / "pkg" / "exp_a.py").read_text(encoding="utf-8")
        write(
            tree / "pkg" / "exp_a.py",
            source.replace("return x - 1", "return x - 3"),
        )
        clear_fingerprint_caches()
        after = fingerprint_symbols("pkg.exp_r", root=tree, prefix="pkg")
        assert after.digest == before.digest


class TestEdgesAndModes:
    def test_missing_module_raises(self, tree):
        with pytest.raises(FingerprintError, match="not found"):
            fingerprint_symbols("pkg.ghost", root=tree, prefix="pkg")

    def test_missing_entry_falls_back_to_whole_module(self, tree):
        # helper_a has no `run`: the sound fallback is all its symbols
        fp = fingerprint_symbols("pkg.helper_a", root=tree, prefix="pkg")
        assert "pkg.helper_a" in fp.modules

    def test_deterministic_across_calls(self, tree):
        first = fps(tree)
        second = fps(tree)
        assert first["exp_a"].digest == second["exp_a"].digest
        assert first["exp_b"].digest == second["exp_b"].digest

    def test_mode_default_is_symbol(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_FINGERPRINT", raising=False)
        assert fingerprint_mode() == "symbol"

    def test_mode_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_FINGERPRINT", "module")
        assert fingerprint_mode() == "module"
        monkeypatch.setenv("REPRO_CACHE_FINGERPRINT", " SYMBOL ")
        assert fingerprint_mode() == "symbol"

    def test_mode_garbage_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_FINGERPRINT", "per-function")
        with pytest.raises(FingerprintError, match="REPRO_CACHE_FINGERPRINT"):
            fingerprint_mode()


def make_artifact(experiment_id: str) -> RunArtifact:
    return RunArtifact(
        experiment_id=experiment_id,
        title="T",
        claim="C",
        metrics={"reproduced": True},
        verdict="REPRODUCED",
        seed=0,
        quick=True,
        wall_time_s=0.25,
        counters={},
        repro_version="1.0.0",
        git_revision="abc1234",
    )


class TestStoreIntegration:
    """End-to-end: cache entries stay warm/invalid exactly per scope."""

    def keys(self, tree):
        result = fps(tree)
        return {
            name: CacheKey(
                experiment_id=name,
                quick=True,
                seed=0,
                fingerprint=result[name].digest,
            )
            for name in ("exp_a", "exp_b")
        }

    def test_entries_warm_until_their_code_changes(self, tree, tmp_path):
        store = Cache(tmp_path / "store")
        before = self.keys(tree)
        store.put(before["exp_a"], make_artifact("exp_a"))
        store.put(before["exp_b"], make_artifact("exp_b"))

        # comment-only sweep: both entries still hit
        path = tree / "pkg" / "helper_a.py"
        path.write_text(
            "# reviewed\n" + path.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        warm = self.keys(tree)
        assert store.get(warm["exp_a"]) is not None
        assert store.get(warm["exp_b"]) is not None

        # semantic edit to exp_a's private helper: only exp_a misses
        write(
            tree / "pkg" / "helper_a.py",
            """
            def only_a(x):
                return x * 3
            """,
        )
        after = self.keys(tree)
        assert store.get(after["exp_a"]) is None
        assert store.get(after["exp_b"]) is not None


class TestThreadSafety:
    def test_concurrent_fingerprints_are_deterministic(self, tree):
        # The serve daemon fingerprints from executor threads (the store
        # fast path; every jobs=0 execute).  The shared incremental
        # GraphBuilder must not be extended by two threads at once —
        # unserialized, concurrent builds corrupt the graph and emit
        # nondeterministic digests, i.e. wrong cache keys.
        import threading
        from concurrent.futures import ThreadPoolExecutor

        reference = fps(tree)  # sequential oracle
        clear_fingerprint_caches()
        barrier = threading.Barrier(8)

        def one(name):
            barrier.wait()  # maximize overlap on the cold caches
            return fingerprint_symbols(
                f"pkg.{name}", root=tree, prefix="pkg"
            ).digest

        names = ["exp_a", "exp_b"] * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            digests = list(pool.map(one, names))
        for name, digest in zip(names, digests):
            assert digest == reference[name].digest


class TestFingerprintMemo:
    """The memo in a store's ``.fingerprints.json``: a hit builds no
    graph, any byte edit misses, and what it holds always equals a fresh
    fingerprint."""

    def lookup(self, tree, name, store):
        return experiment_fingerprint(
            f"pkg.{name}", memo_root=store, root=tree, prefix="pkg"
        )

    def memo(self, store):
        return json.loads((store / FINGERPRINT_MEMO).read_text(encoding="utf-8"))

    def fresh(self, tree, name):
        clear_fingerprint_caches()
        return fingerprint_symbols(f"pkg.{name}", root=tree, prefix="pkg").digest

    def test_hit_after_clear_builds_no_graph(self, tree, tmp_path, monkeypatch):
        from repro.devtools.analyze.callgraph import GraphBuilder

        store = tmp_path / "store"
        first = {name: self.lookup(tree, name, store) for name in ("exp_a", "exp_b")}
        assert self.memo(store)["tree"] == source_tree_digest(tree, "pkg")
        clear_fingerprint_caches()

        def no_build(self, *args, **kwargs):
            raise AssertionError("a memo hit must not build the graph")

        monkeypatch.setattr(GraphBuilder, "build", no_build)
        for name in ("exp_a", "exp_b"):
            assert self.lookup(tree, name, store) == first[name]
        monkeypatch.undo()
        for name in ("exp_a", "exp_b"):
            assert first[name] == self.fresh(tree, name)

    def test_comment_only_edit_misses_with_same_digest(self, tree, tmp_path):
        store = tmp_path / "store"
        before = self.lookup(tree, "exp_a", store)
        old_tree = self.memo(store)["tree"]
        path = tree / "pkg" / "helper_a.py"
        path.write_text(
            "# reflowed\n" + path.read_text(encoding="utf-8"), encoding="utf-8"
        )
        clear_fingerprint_caches()
        assert self.lookup(tree, "exp_a", store) == before
        # it missed: the memo was rewritten for the edited tree
        assert self.memo(store)["tree"] != old_tree
        assert self.memo(store)["tree"] == source_tree_digest(tree, "pkg")

    def test_helper_edit_moves_only_its_experiment(self, tree, tmp_path):
        store = tmp_path / "store"
        before = {name: self.lookup(tree, name, store) for name in ("exp_a", "exp_b")}
        write(
            tree / "pkg" / "helper_a.py",
            """
            def only_a(x):
                return x + 2
            """,
        )
        clear_fingerprint_caches()
        after = {name: self.lookup(tree, name, store) for name in ("exp_a", "exp_b")}
        assert after["exp_a"] != before["exp_a"]
        assert after["exp_b"] == before["exp_b"]
        assert after == {name: self.fresh(tree, name) for name in after}

    @pytest.mark.parametrize("kind", ["corrupt", "another-tree", "another-mode"])
    def test_unusable_memo_is_ignored_and_rewritten(
        self, tree, tmp_path, monkeypatch, kind
    ):
        store = tmp_path / "store"
        store.mkdir()
        if kind == "corrupt":
            (store / FINGERPRINT_MEMO).write_text("{not json", encoding="utf-8")
        elif kind == "another-tree":
            (store / FINGERPRINT_MEMO).write_text(
                json.dumps({"tree": "0" * 64, "digests": {"pkg.exp_a:run": "f" * 64}}),
                encoding="utf-8",
            )
        else:
            monkeypatch.setenv("REPRO_CACHE_FINGERPRINT", "module")
            module_digest = self.lookup(tree, "exp_a", store)
            monkeypatch.delenv("REPRO_CACHE_FINGERPRINT")
            assert module_digest != self.fresh(tree, "exp_a")
        clear_fingerprint_caches()
        digest = self.lookup(tree, "exp_a", store)
        assert digest == self.fresh(tree, "exp_a")
        assert self.memo(store) == {
            "tree": source_tree_digest(tree, "pkg"),
            "digests": {"pkg.exp_a:run": digest},
        }

    @pytest.mark.parametrize("failing", ["tempfile.mkstemp", "os.replace"])
    def test_failed_write_costs_nothing_but_time(
        self, tree, tmp_path, monkeypatch, failing
    ):
        store = tmp_path / "store"

        def refuse(*args, **kwargs):
            raise OSError("read-only store")

        monkeypatch.setattr(failing, refuse)
        digest = self.lookup(tree, "exp_a", store)
        monkeypatch.undo()
        assert digest == self.fresh(tree, "exp_a")
        assert list(store.iterdir()) == []  # no memo, no .tmp-* debris

    def test_sequential_writers_keep_each_others_entries(self, tree, tmp_path):
        store = tmp_path / "store"
        clear_fingerprint_caches()  # writer 1
        a = self.lookup(tree, "exp_a", store)
        clear_fingerprint_caches()  # writer 2, a new process
        b = self.lookup(tree, "exp_b", store)
        assert self.memo(store)["digests"] == {"pkg.exp_a:run": a, "pkg.exp_b:run": b}

    def test_state_reads_current_stale_or_absent(self, tree, tmp_path):
        store = tmp_path / "store"
        def state():
            return fingerprint_memo_state(store, root=tree, prefix="pkg")

        assert state() == {"state": "absent", "fingerprints": 0}
        self.lookup(tree, "exp_a", store)
        self.lookup(tree, "exp_b", store)
        assert state() == {"state": "current", "fingerprints": 2}
        write(tree / "pkg" / "common.py", "def shared(x):\n    return -x\n")
        clear_fingerprint_caches()
        assert state() == {"state": "stale", "fingerprints": 2}


class TestRealTreeMemo:
    def test_memo_equals_fresh_fingerprints_for_every_experiment(self, tmp_path):
        import functools

        from repro.cache.store import cache_key_for
        from repro.experiments.registry import EXPERIMENTS

        store = Cache(tmp_path / "store")
        clear_fingerprint_caches()
        keys = {eid: cache_key_for(eid, True, 0, store) for eid in EXPERIMENTS}
        clear_fingerprint_caches()
        memo = json.loads((store.root / FINGERPRINT_MEMO).read_text(encoding="utf-8"))
        assert memo["tree"] == source_tree_digest()
        for eid, exp in EXPERIMENTS.items():
            runner = exp.runner
            while isinstance(runner, functools.partial):
                runner = runner.func
            fresh = fingerprint_symbols(runner.__module__, entry=runner.__name__)
            assert memo["digests"][f"{runner.__module__}:{runner.__name__}"] == fresh.digest
            assert keys[eid].fingerprint == fresh.digest
