"""The sharded ``ab/cd/<digest>`` layout — the store's only one — and
its read-only-store contract."""

import shutil

from repro.cache.gc import GCBudget, collect, sidecar_path
from repro.cache.store import Cache, CacheKey
from repro.runtime.artifact import RunArtifact


def make_artifact(**overrides) -> RunArtifact:
    base = dict(
        experiment_id="x",
        title="T",
        claim="C",
        metrics={"reproduced": True},
        verdict="REPRODUCED",
        seed=0,
        quick=True,
        wall_time_s=0.25,
        counters={"sim.runs": 1},
        repro_version="1.0.0",
        git_revision="abc1234",
    )
    base.update(overrides)
    return RunArtifact(**base)


def make_key(**overrides) -> CacheKey:
    base = dict(experiment_id="x", quick=True, seed=0, fingerprint="f" * 64)
    base.update(overrides)
    return CacheKey(**base)


class TestShardedLayout:
    def test_put_lands_two_levels_deep(self, tmp_path):
        store = Cache(tmp_path / "store")
        key = make_key()
        path = store.put(key, make_artifact())
        digest = key.digest
        assert path == store.root / digest[:2] / digest[2:4] / f"{digest}.json"
        assert path.is_file()

    def test_off_layout_copies_are_foreign(self, tmp_path):
        """A valid entry anywhere but its own ``ab/cd/`` shard (the
        one-level ``ab/<digest>.json`` or flat ``<digest>.json`` layouts
        of older builds, or another shard) is never read, counted,
        evicted, or removed."""
        store = Cache(tmp_path / "store")
        key = make_key()
        canonical = store.put(key, make_artifact())
        foreign = [
            store.root / key.digest[:2] / canonical.name,
            store.root / canonical.name,
            store.root / "zz" / "zz" / canonical.name,
        ]
        for path in foreign:
            path.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(canonical, path)
        canonical.unlink()
        sidecar_path(canonical).unlink()
        assert store.get(key) is None
        assert list(store.iter_entry_paths()) == []
        assert store.stats().entries == 0
        report = collect(store, GCBudget(max_bytes=None, max_entries=0))
        assert report.examined_entries == 0
        assert store.clear() == 0
        assert all(path.exists() for path in foreign)


class TestReadOnlyStore:
    """``get`` on a store it cannot write to: misses, never errors — a
    shared read-only CI cache must degrade to recomputation, not take
    the run down (the documented contract).

    Write denial is simulated by making the entry lock unacquirable
    (acquiring it creates the lock file, the first write any mutation
    path needs), which works regardless of the uid tests run under —
    root would bypass a chmod-based setup entirely.
    """

    def _lock_out_writes(self, monkeypatch):
        from contextlib import contextmanager

        @contextmanager
        def denied(entry_path):
            raise PermissionError(13, "Read-only file system", str(entry_path))
            yield  # pragma: no cover

        monkeypatch.setattr("repro.cache.store.entry_lock", denied)

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path, monkeypatch):
        store = Cache(tmp_path / "store")
        key = make_key()
        path = store.put(key, make_artifact())
        path.write_text("{ not json", encoding="utf-8")
        self._lock_out_writes(monkeypatch)
        assert store.get(key) is None
        assert path.exists()  # discard impossible: left in place

    def test_mismatched_entry_is_a_miss_not_an_error(
        self, tmp_path, monkeypatch
    ):
        store = Cache(tmp_path / "store")
        key = make_key()
        path = store.put(key, make_artifact())
        other = store.canonical_path(make_key(seed=9).digest)
        other.parent.mkdir(parents=True, exist_ok=True)
        path.rename(other)  # entry now lives under the wrong digest
        self._lock_out_writes(monkeypatch)
        assert store.get(make_key(seed=9)) is None
