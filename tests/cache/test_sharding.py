"""The sharded ``ab/cd/<digest>`` layout — the store's only one — and
its read-only-store contract."""

import os
import shutil
from pathlib import Path

from repro.cache.gc import GCBudget, collect
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
        assert store.get(key) is None
        assert list(store.iter_entry_paths()) == []
        assert store.stats().entries == 0
        report = collect(store, GCBudget(max_bytes=None, max_entries=0))
        assert report.examined_entries == 0
        assert store.clear() == 0
        assert all(path.exists() for path in foreign)

    def test_older_build_dotfiles_are_foreign(self, tmp_path):
        """The ``.meta-*`` access sidecars and ``.lock-*`` files that
        older builds kept beside each entry are never read, counted,
        reaped or removed — not even when their entry is evicted."""
        store = Cache(tmp_path / "store")
        key = make_key()
        path = store.put(key, make_artifact())
        leftovers = [
            path.parent / f".meta-{path.name}",
            path.parent / f".lock-{path.name}",
        ]
        for leftover in leftovers:
            leftover.write_text("{}", encoding="utf-8")
            os.utime(leftover, (0, 0))
        stats = store.stats()
        assert (stats.entries, stats.tmp_files) == (1, 0)
        report = collect(
            store, GCBudget(max_bytes=None, max_entries=0, tmp_grace_s=0.0)
        )
        assert report.evicted_entries == 1
        assert report.reaped_tmp_files == 0
        assert store.clear() == 0
        assert all(leftover.exists() for leftover in leftovers)


class TestReadOnlyStore:
    """``get`` on a store it cannot write to: a good entry hits, a bad
    one misses, and nothing raises — a shared read-only CI cache must
    degrade to recomputation, not take the run down (the documented
    contract).

    Write denial is simulated by making both writes ``get`` can attempt
    — the hit's ``os.utime`` and the discard's ``Path.unlink`` — raise,
    which works regardless of the uid tests run under (root would
    bypass a chmod-based setup entirely).
    """

    def _lock_out_writes(self, monkeypatch):
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Read-only file system", str(path))

        monkeypatch.setattr("repro.cache.store.os.utime", denied)
        monkeypatch.setattr(Path, "unlink", denied)

    def test_good_entry_hits(self, tmp_path, monkeypatch):
        store = Cache(tmp_path / "store")
        key = make_key()
        path = store.put(key, make_artifact())
        os.utime(path, (0, 0))
        self._lock_out_writes(monkeypatch)
        entry = store.get(key)
        assert entry is not None and entry.artifact == make_artifact()
        assert path.stat().st_mtime == 0  # the stamp was denied

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

    def test_gc_counts_an_entry_it_cannot_evict_as_surviving(
        self, tmp_path, monkeypatch
    ):
        """An eviction whose unlink fails leaves the entry on disk, so the
        report must count it as surviving, not drop it from every tally."""
        store = Cache(tmp_path / "store")
        path = store.put(make_key(), make_artifact())
        size = path.stat().st_size
        self._lock_out_writes(monkeypatch)
        report = collect(store, GCBudget(max_bytes=None, max_entries=0))
        assert (report.examined_entries, report.evicted_entries) == (1, 0)
        assert (report.surviving_entries, report.surviving_bytes) == (1, size)
        assert report.evictions == ()
        assert path.exists() and store.stats().entries == 1
