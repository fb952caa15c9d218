"""Unit tests for the budgeted artifact-store GC (repro.cache.gc)."""

import os

import pytest

from repro.cache.gc import (
    DEFAULT_MAX_BYTES,
    GCBudget,
    auto_collect,
    collect,
    iter_debris,
    read_gc_state,
)
from repro.cache.store import Cache, CacheKey
from repro.errors import CacheError
from repro.runtime.artifact import RunArtifact

NOW = 1_000_000.0  # fixed "current time" handed to collect()


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


def put_aged(store, seed, last_access, padding=0):
    """Put one entry and pin its mtime (its LRU clock) to
    ``last_access``, so eviction order is deterministic regardless of
    real clock time.  ``padding`` extra claim characters make the entry
    that many bytes larger than its unpadded siblings."""
    key = make_key(seed=seed)
    path = store.put(key, make_artifact(seed=seed, claim="C" * (1 + padding)))
    os.utime(path, (last_access, last_access))
    return key, path


class TestAccessClock:
    """One file per entry, and its mtime is its LRU clock: a put sets
    it, a hit moves it, and nothing that only reads the store does."""

    def test_put_leaves_exactly_one_file_in_its_shard(self, tmp_path):
        store = Cache(tmp_path / "store")
        path = store.put(make_key(), make_artifact())
        assert list(path.parent.iterdir()) == [path]

    def test_hit_moves_mtime_forward_and_keeps_bytes(self, tmp_path):
        store = Cache(tmp_path / "store")
        key, path = put_aged(store, 0, NOW)
        payload = path.read_bytes()
        assert store.get(key) is not None
        assert path.stat().st_mtime > NOW
        assert path.read_bytes() == payload

    def test_reads_leave_mtime_alone(self, tmp_path):
        # The clock is mtime, not atime: under relatime a plain read can
        # move atime, and stats/verify/iteration must not reorder LRU.
        store = Cache(tmp_path / "store")
        key, path = put_aged(store, 0, NOW)
        assert store.stats().entries == 1
        assert [e.key for e in store.iter_entries()] == [key]
        assert path.stat().st_mtime == NOW
        report = collect(store, GCBudget(max_bytes=None, max_age_days=1.0))
        assert [e.digest for e in report.evictions] == [key.digest]


class TestEvictionOrder:
    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        store = Cache(tmp_path / "store")
        keys = {}
        for seed, age in [(0, NOW - 300), (1, NOW - 100), (2, NOW - 200)]:
            keys[seed], _ = put_aged(store, seed, age)
        report = collect(
            store, GCBudget(max_bytes=None, max_entries=2), now=NOW
        )
        assert report.evicted_entries == 1
        assert report.evictions[0].reason == "entries"
        assert report.evictions[0].digest == keys[0].digest  # the oldest
        assert store.get(keys[0]) is None
        assert store.get(keys[1]) is not None
        assert store.get(keys[2]) is not None

    def test_max_bytes_evicts_oldest_until_under_budget(self, tmp_path):
        store = Cache(tmp_path / "store")
        keys = {}
        for seed, age in [(0, NOW - 300), (1, NOW - 200), (2, NOW - 100)]:
            keys[seed], path = put_aged(store, seed, age)
        size = path.stat().st_size  # seeds 0-2 serialize to equal sizes
        report = collect(store, GCBudget(max_bytes=size + size // 2), now=NOW)
        assert [e.digest for e in report.evictions] == [
            keys[0].digest,
            keys[1].digest,
        ]
        assert {e.reason for e in report.evictions} == {"bytes"}
        assert report.surviving_entries == 1
        assert report.surviving_bytes == size
        assert store.get(keys[2]) is not None

    def test_max_age_evicts_only_expired(self, tmp_path):
        store = Cache(tmp_path / "store")
        stale, _ = put_aged(store, 0, NOW - 3 * 86400.0)
        fresh, _ = put_aged(store, 1, NOW - 600.0)
        report = collect(
            store, GCBudget(max_bytes=None, max_age_days=1.0), now=NOW
        )
        assert report.evicted_entries == 1
        assert report.evictions[0].reason == "age"
        assert store.get(stale) is None
        assert store.get(fresh) is not None

    def test_equal_age_evicts_larger_first(self, tmp_path):
        store = Cache(tmp_path / "store")
        small, _ = put_aged(store, 0, NOW - 100)
        big, _ = put_aged(store, 1, NOW - 100, padding=5000)
        report = collect(
            store, GCBudget(max_bytes=None, max_entries=1), now=NOW
        )
        assert report.evicted_entries == 1
        assert report.evictions[0].digest == big.digest
        assert store.get(small) is not None

    def test_eviction_removes_entry_and_empty_shard(self, tmp_path):
        store = Cache(tmp_path / "store")
        key, path = put_aged(store, 0, NOW - 100)
        collect(store, GCBudget(max_bytes=None, max_entries=0), now=NOW)
        assert not path.exists()
        assert not path.parent.exists()  # empty shard dir pruned

    def test_dry_run_deletes_nothing(self, tmp_path):
        store = Cache(tmp_path / "store")
        key, path = put_aged(store, 0, NOW - 100)
        report = collect(
            store, GCBudget(max_bytes=None, max_entries=0), dry_run=True,
            now=NOW,
        )
        assert report.dry_run
        assert report.evicted_entries == 1
        assert path.exists()
        assert store.get(key) is not None
        # dry runs must not pollute the persistent counters either
        assert read_gc_state(store.root) is None

    def test_unlimited_budget_keeps_everything(self, tmp_path):
        store = Cache(tmp_path / "store")
        for seed in range(3):
            put_aged(store, seed, NOW - seed * 100)
        report = collect(store, GCBudget(max_bytes=None), now=NOW)
        assert report.evicted_entries == 0
        assert report.surviving_entries == 3

    def test_missing_store_is_empty_report(self, tmp_path):
        report = collect(Cache(tmp_path / "ghost"), GCBudget(), now=NOW)
        assert report.examined_entries == 0
        assert report.evicted_entries == 0


class TestDebris:
    def test_orphaned_tmp_reaped_past_grace(self, tmp_path):
        store = Cache(tmp_path / "store")
        store.put(make_key(), make_artifact())
        shard = next(store.iter_entry_paths()).parent
        old = shard / ".tmp-orphan.json"
        old.write_text("partial", encoding="utf-8")
        os.utime(old, (NOW - 7200, NOW - 7200))
        young = store.root / ".tmp-inflight.json"
        young.write_text("partial", encoding="utf-8")
        os.utime(young, (NOW - 10, NOW - 10))
        report = collect(store, GCBudget(max_bytes=None), now=NOW)
        assert report.reaped_tmp_files == 1
        assert not old.exists()
        assert young.exists()  # within the grace window: maybe in flight

    def test_zero_grace_reaps_fresh_debris(self, tmp_path):
        store = Cache(tmp_path / "store")
        store.root.mkdir(parents=True)
        debris = store.root / ".tmp-now.json"
        debris.write_text("x", encoding="utf-8")
        os.utime(debris, (NOW, NOW))
        report = collect(
            store, GCBudget(max_bytes=None, tmp_grace_s=0.0), now=NOW + 10
        )
        assert report.reaped_tmp_files == 1
        assert not debris.exists()

    def test_iter_debris_sees_root_and_shard_levels(self, tmp_path):
        store = Cache(tmp_path / "store")
        store.put(make_key(), make_artifact())
        shard = next(store.iter_entry_paths()).parent
        (store.root / ".tmp-a").write_text("x", encoding="utf-8")
        (shard / ".tmp-b").write_text("x", encoding="utf-8")
        assert len(list(iter_debris(store.root))) == 2

    def test_stats_counts_debris_without_reaping(self, tmp_path):
        store = Cache(tmp_path / "store")
        store.put(make_key(), make_artifact())
        debris = store.root / ".tmp-a"
        debris.write_text("xyz", encoding="utf-8")
        stats = store.stats()
        assert stats.entries == 1
        assert stats.tmp_files == 1
        assert stats.tmp_bytes == 3
        assert debris.exists()


class TestGCState:
    def test_counters_accumulate_across_collections(self, tmp_path):
        store = Cache(tmp_path / "store")
        put_aged(store, 0, NOW - 200)
        put_aged(store, 1, NOW - 100)
        collect(store, GCBudget(max_bytes=None, max_entries=1), now=NOW)
        collect(store, GCBudget(max_bytes=None, max_entries=0), now=NOW)
        state = read_gc_state(store.root)
        assert state["collections"] == 2
        assert state["evicted_entries"] == 2
        assert state["last"]["evicted_entries"] == 1
        assert state["last"]["timestamp"] == NOW

    def test_stats_surfaces_gc_state(self, tmp_path):
        store = Cache(tmp_path / "store")
        put_aged(store, 0, NOW - 100)
        assert store.stats().gc is None
        collect(store, GCBudget(max_bytes=None, max_entries=0), now=NOW)
        stats = store.stats()
        assert stats.gc["collections"] == 1
        assert stats.gc["evicted_entries"] == 1

    def test_corrupt_state_treated_as_absent(self, tmp_path):
        store = Cache(tmp_path / "store")
        store.root.mkdir(parents=True)
        (store.root / ".gc-state.json").write_text("{oops", encoding="utf-8")
        assert read_gc_state(store.root) is None


class TestBudgetFromEnv:
    def test_defaults(self, monkeypatch):
        for name in (
            "REPRO_CACHE_MAX_BYTES",
            "REPRO_CACHE_MAX_ENTRIES",
            "REPRO_CACHE_MAX_AGE_DAYS",
        ):
            monkeypatch.delenv(name, raising=False)
        budget = GCBudget.from_env()
        assert budget.max_bytes == DEFAULT_MAX_BYTES
        assert budget.max_entries is None
        assert budget.max_age_days is None

    def test_values_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1234")
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "7")
        monkeypatch.setenv("REPRO_CACHE_MAX_AGE_DAYS", "2.5")
        budget = GCBudget.from_env()
        assert budget.max_bytes == 1234
        assert budget.max_entries == 7
        assert budget.max_age_days == 2.5

    def test_nonpositive_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "-1")
        monkeypatch.setenv("REPRO_CACHE_MAX_AGE_DAYS", "0")
        budget = GCBudget.from_env()
        assert budget.max_bytes is None
        assert budget.max_entries is None
        assert budget.max_age_days is None

    def test_garbage_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "a lot")
        with pytest.raises(CacheError):
            GCBudget.from_env()


class TestAutoCollect:
    def test_disabled_by_env(self, tmp_path, monkeypatch):
        store = Cache(tmp_path / "store")
        store.put(make_key(), make_artifact())
        monkeypatch.setenv("REPRO_CACHE_GC", "off")
        assert auto_collect(store.root) is None
        assert read_gc_state(store.root) is None

    def test_missing_store_is_noop(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_GC", raising=False)
        assert auto_collect(tmp_path / "ghost") is None

    def test_collects_under_env_budget(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_GC", raising=False)
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "1")
        store = Cache(tmp_path / "store")
        put_aged(store, 0, NOW - 200)
        put_aged(store, 1, NOW - 100)
        report = auto_collect(store.root)
        assert report is not None
        assert report.evicted_entries == 1
        assert store.stats().entries == 1


class TestRunnerAutoGC:
    def test_run_triggers_auto_gc(self, tmp_path, monkeypatch):
        from repro.runtime.runner import ExperimentRunner

        root = tmp_path / "store"
        monkeypatch.delenv("REPRO_CACHE_GC", raising=False)
        ExperimentRunner(cache="auto", cache_dir=str(root)).run(["fig1"])
        state = read_gc_state(Cache(root).root)
        assert state is not None
        assert state["collections"] == 1
        assert state["evicted_entries"] == 0  # fresh store, under budget

    def test_run_respects_gc_off(self, tmp_path, monkeypatch):
        from repro.runtime.runner import ExperimentRunner

        root = tmp_path / "store"
        monkeypatch.setenv("REPRO_CACHE_GC", "off")
        ExperimentRunner(cache="auto", cache_dir=str(root)).run(["fig1"])
        assert read_gc_state(Cache(root).root) is None

    def test_cache_off_never_collects(self, tmp_path, monkeypatch):
        from repro.runtime.runner import ExperimentRunner

        root = tmp_path / "store"
        monkeypatch.delenv("REPRO_CACHE_GC", raising=False)
        ExperimentRunner(cache="off", cache_dir=str(root)).run(["fig1"])
        assert not root.exists()

    def test_run_enforces_entry_budget(self, tmp_path, monkeypatch):
        from repro.runtime.runner import ExperimentRunner

        root = tmp_path / "store"
        monkeypatch.delenv("REPRO_CACHE_GC", raising=False)
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "1")
        runner = ExperimentRunner(cache="auto", cache_dir=str(root))
        runner.run(["fig1", "mmcount"])
        assert Cache(root).stats().entries == 1


class TestConcurrency:
    def test_get_during_gc_is_a_clean_miss_or_hit(self, tmp_path, monkeypatch):
        """An eviction forced between ``get``'s read and its mtime
        stamp: ``get`` returns the entry it read, does not raise, and
        does not bring the evicted file back."""
        store = Cache(tmp_path / "store")
        key, path = put_aged(store, 0, NOW - 100)
        real_utime = os.utime
        stamped = []

        def evict_then_stamp(target, *args, **kwargs):
            collect(store, GCBudget(max_bytes=None, max_entries=0), now=NOW)
            stamped.append(target)
            return real_utime(target, *args, **kwargs)

        monkeypatch.setattr("repro.cache.store.os.utime", evict_then_stamp)
        entry = store.get(key)
        monkeypatch.undo()
        assert stamped == [path]  # the eviction did land mid-get
        assert entry is not None
        assert entry.key == key
        assert entry.artifact == make_artifact(seed=0)
        assert not path.exists()
        assert store.get(key) is None
