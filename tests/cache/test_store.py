"""Unit tests for the content-addressed artifact store."""

import dataclasses
import itertools
import json
import re
import tempfile
from pathlib import Path

import pytest

from repro.cache.store import (
    CACHE_ENTRY_VERSION,
    Cache,
    CacheKey,
    cache_key_for,
    default_cache_dir,
    environment_tag,
)
from repro.errors import ExperimentError
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


class TestCacheKey:
    def test_digest_is_stable(self):
        assert make_key().digest == make_key().digest

    @pytest.mark.parametrize(
        "field, value",
        [
            ("experiment_id", "y"),
            ("quick", False),
            ("seed", 1),
            ("fingerprint", "e" * 64),
            ("schema_version", 99),
            ("environment", "py0.0-numpy0-scipy0"),
        ],
    )
    def test_any_field_changes_digest(self, field, value):
        assert make_key(**{field: value}).digest != make_key().digest

    def test_environment_defaults_to_current(self):
        assert make_key().environment == environment_tag()

    def test_cache_key_for_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            cache_key_for("nope", True, 0)

    def test_cache_md_table_names_every_key_field(self):
        """docs/CACHE.md's cache-key table lists exactly CacheKey's
        fields, under their real names."""
        doc = Path(__file__).resolve().parents[2] / "docs" / "CACHE.md"
        text = doc.read_text(encoding="utf-8")
        lines = text.split("## The cache key\n", 1)[1].splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("|"))
        table = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
        assert table[0].split("|")[1].strip() == "component"
        named = {
            name
            for row in table[2:]
            for name in re.findall(r"`(\w+)`", row.split("|")[1])
        }
        assert named == {f.name for f in dataclasses.fields(CacheKey)}


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "here"))
        assert default_cache_dir() == tmp_path / "here"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"


class TestPutGet:
    def test_roundtrip(self, tmp_path):
        store = Cache(tmp_path / "store")
        key = make_key()
        path = store.put(key, make_artifact())
        assert path.is_file()
        entry = store.get(key)
        assert entry is not None
        assert entry.key == key
        assert entry.artifact == make_artifact()
        assert entry.stored_wall_time_s == pytest.approx(0.25)

    def test_miss_returns_none(self, tmp_path):
        assert Cache(tmp_path / "store").get(make_key()) is None

    def test_put_strips_cache_stamp(self, tmp_path):
        store = Cache(tmp_path / "store")
        key = make_key()
        stamped = make_artifact(cache_hit=True, saved_wall_time_s=9.0)
        store.put(key, stamped)
        entry = store.get(key)
        assert entry.artifact.cache_hit is None
        assert entry.artifact.saved_wall_time_s is None
        assert entry.artifact.wall_time_s == pytest.approx(0.25)

    def test_corrupt_entry_is_miss_and_removed(self, tmp_path):
        store = Cache(tmp_path / "store")
        key = make_key()
        path = store.put(key, make_artifact())
        path.write_text("{not json", encoding="utf-8")
        assert store.get(key) is None
        # a dead entry must be unlinked, not left uncounted and
        # unevictable (it can never hit again)
        assert not path.exists()

    def test_missing_entry_is_silent_miss(self, tmp_path):
        # plain OSError (nothing there) stays a quiet miss — only
        # *corrupt* files are discarded
        store = Cache(tmp_path / "store")
        assert store.get(make_key()) is None
        assert not store.root.exists() or not list(store.iter_entry_paths())

    def test_wrong_entry_version_discarded(self, tmp_path):
        store = Cache(tmp_path / "store")
        key = make_key()
        path = store.put(key, make_artifact())
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["cache_entry_version"] = CACHE_ENTRY_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(key) is None
        assert not path.exists()

    def test_last_writer_wins(self, tmp_path):
        store = Cache(tmp_path / "store")
        key = make_key()
        store.put(key, make_artifact(wall_time_s=1.0))
        store.put(key, make_artifact(wall_time_s=2.0))
        assert store.get(key).stored_wall_time_s == pytest.approx(2.0)


class TestPutCleanup:
    def test_failed_serialization_leaves_no_tmp_debris(
        self, tmp_path, monkeypatch
    ):
        # json.dump raising a non-OSError (a TypeError on an
        # unserializable value) must still unlink the mkstemp file —
        # the old `except OSError` cleanup missed exactly this case
        store = Cache(tmp_path / "store")

        def boom(*args, **kwargs):
            raise TypeError("not serializable")

        monkeypatch.setattr("repro.cache.store.json.dump", boom)
        with pytest.raises(TypeError):
            store.put(make_key(), make_artifact())
        assert [p for p in store.root.rglob("*") if p.is_file()] == []

    def test_os_failure_raises_cache_error_and_cleans_up(
        self, tmp_path, monkeypatch
    ):
        from repro.errors import CacheError

        store = Cache(tmp_path / "store")

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.cache.store.os.replace", boom)
        with pytest.raises(CacheError):
            store.put(make_key(), make_artifact())
        monkeypatch.undo()
        assert [p for p in store.root.rglob("*") if p.is_file()] == []

    def test_put_lands_when_its_shard_is_pruned_before_mkstemp(
        self, tmp_path, monkeypatch
    ):
        # A collection prunes empty shard directories, so one can vanish
        # between put's mkdir and its mkstemp; put must retry, not fail.
        from repro.cache.gc import prune_empty_shards

        store = Cache(tmp_path / "store")
        real_mkstemp = tempfile.mkstemp
        pruned = []

        def prune_then_mkstemp(*args, **kwargs):
            if not pruned:
                prune_empty_shards(store.root)
                pruned.append(kwargs["dir"])
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr("repro.cache.store.tempfile.mkstemp", prune_then_mkstemp)
        key = make_key()
        path = store.put(key, make_artifact())
        monkeypatch.undo()
        assert pruned == [path.parent]
        assert store.get(key).artifact == make_artifact()


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path):
        store = Cache(tmp_path / "store")
        store.put(make_key(seed=0), make_artifact(wall_time_s=1.0))
        store.put(make_key(seed=1), make_artifact(wall_time_s=2.0))
        store.put(
            make_key(experiment_id="y"), make_artifact(experiment_id="y")
        )
        stats = store.stats()
        assert stats.entries == 3
        assert stats.by_experiment == {"x": 2, "y": 1}
        assert stats.total_bytes > 0
        assert stats.stored_wall_time_s == pytest.approx(3.25)
        assert store.clear() == 3
        assert store.stats().entries == 0

    def test_iter_entries_in_digest_order(self, tmp_path):
        store = Cache(tmp_path / "store")
        for seed in range(4):
            store.put(make_key(seed=seed), make_artifact(seed=seed))
        digests = [e.key.digest for e in store.iter_entries()]
        assert digests == sorted(digests)

    def test_stats_on_missing_root(self, tmp_path):
        stats = Cache(tmp_path / "ghost").stats()
        assert stats.entries == 0 and stats.total_bytes == 0
        assert stats.tmp_files == 0 and stats.gc is None
        assert Cache(tmp_path / "ghost").clear() == 0

    def test_clear_sweeps_debris(self, tmp_path):
        store = Cache(tmp_path / "store")
        path = store.put(make_key(), make_artifact())
        (path.parent / ".tmp-orphan.json").write_text("x", encoding="utf-8")
        (store.root / ".tmp-root.json").write_text("x", encoding="utf-8")
        assert store.clear() == 1  # counts entries, not debris
        assert list(store.root.rglob(".tmp-*")) == []
        assert store.stats().entries == 0
        assert store.stats().tmp_files == 0
