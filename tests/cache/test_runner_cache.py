"""Integration tests: the cache wired through api.run/ExperimentRunner
and store verification."""

import pytest

from repro.api import run
from repro.cache.store import Cache, cache_key_for
from repro.errors import ExperimentError
from repro.runtime.runner import ExperimentRunner


class TestRunOneCache:
    def test_off_never_touches_store(self, tmp_path):
        store = Cache(tmp_path / "store")
        artifact = run("fig1", cache="off", cache_dir=str(store.root))
        assert artifact.cache_hit is None
        assert store.stats().entries == 0

    def test_auto_miss_then_hit(self, tmp_path):
        root = str(tmp_path / "store")
        cold = run("fig1", cache="auto", cache_dir=root)
        assert cold.cache_hit is False
        assert cold.wall_time_s > 0
        warm = run("fig1", cache="auto", cache_dir=root)
        assert warm.cache_hit is True
        assert warm.wall_time_s == 0.0
        assert warm.saved_wall_time_s == pytest.approx(cold.wall_time_s)
        assert (
            warm.without_timing().to_json() == cold.without_timing().to_json()
        )
        assert warm.render() == cold.render()

    def test_different_seed_misses(self, tmp_path):
        root = str(tmp_path / "store")
        run("fig1", seed=0, cache="auto", cache_dir=root)
        other = run("fig1", seed=1, cache="auto", cache_dir=root)
        assert other.cache_hit is False

    def test_refresh_recomputes_and_overwrites(self, tmp_path):
        root = str(tmp_path / "store")
        run("fig1", cache="auto", cache_dir=root)
        refreshed = run("fig1", cache="refresh", cache_dir=root)
        assert refreshed.cache_hit is False
        assert refreshed.wall_time_s > 0
        store = Cache(root)
        entry = store.get(cache_key_for("fig1", True, 0))
        assert entry.stored_wall_time_s == pytest.approx(
            refreshed.wall_time_s
        )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ExperimentError):
            run("fig1", cache="sometimes")
        with pytest.raises(ExperimentError):
            ExperimentRunner(cache="sometimes")


class TestRunnerCache:
    IDS = ["fig1", "mmcount"]

    def test_parallel_warm_run_bit_identical(self, tmp_path):
        root = str(tmp_path / "store")
        cold = ExperimentRunner(jobs=1, cache="auto", cache_dir=root).run(
            self.IDS
        )
        warm = ExperimentRunner(jobs=2, cache="auto", cache_dir=root).run(
            self.IDS
        )
        assert all(a.cache_hit is False for a in cold)
        assert all(a.cache_hit is True for a in warm)
        for c, w in zip(cold, warm):
            assert w.without_timing().to_json() == c.without_timing().to_json()

    def test_cold_parallel_run_populates_store(self, tmp_path):
        root = str(tmp_path / "store")
        ExperimentRunner(jobs=2, cache="auto", cache_dir=root).run(self.IDS)
        assert Cache(root).stats().entries == len(self.IDS)


class TestVerifyStore:
    def test_verify_ok_at_serial_and_parallel(self, tmp_path):
        from repro.cache.verify import verify_store

        root = str(tmp_path / "store")
        ExperimentRunner(cache="auto", cache_dir=root).run(["fig1", "mmcount"])
        store = Cache(root)
        for jobs in (1, 2):
            report = verify_store(store, sample=None, seed=0, jobs=jobs)
            assert report.ok
            assert report.checked == 2
            assert {r.status for r in report.records} == {"ok"}

    def test_verify_flags_mismatch(self, tmp_path):
        from repro.cache.verify import verify_store

        root = str(tmp_path / "store")
        run("fig1", cache="auto", cache_dir=root)
        store = Cache(root)
        key = cache_key_for("fig1", True, 0)
        entry = store.get(key)
        import dataclasses

        forged = dataclasses.replace(entry.artifact, verdict="MISMATCH")
        store.put(key, forged)
        report = verify_store(store, sample=None, seed=0)
        assert not report.ok
        assert report.mismatches == 1

    def test_verify_ignores_git_revision(self, tmp_path):
        from repro.cache.verify import verify_store

        root = str(tmp_path / "store")
        run("fig1", cache="auto", cache_dir=root)
        store = Cache(root)
        key = cache_key_for("fig1", True, 0)
        entry = store.get(key)
        import dataclasses

        # The commit that wrote an entry is provenance: an entry stored
        # at another revision (or on a dirty tree) still verifies...
        moved = dataclasses.replace(entry.artifact, git_revision="0000000-dirty")
        store.put(key, moved)
        report = verify_store(store, sample=None, seed=0)
        assert report.ok and report.checked == 1
        # ...while a forged result at that revision is still caught.
        store.put(key, dataclasses.replace(moved, verdict="MISMATCH"))
        assert verify_store(store, sample=None, seed=0).mismatches == 1

    def test_verify_reports_stale_without_rerunning(self, tmp_path):
        from repro.cache.verify import verify_store

        root = str(tmp_path / "store")
        run("fig1", cache="auto", cache_dir=root)
        store = Cache(root)
        key = cache_key_for("fig1", True, 0)
        entry = store.get(key)
        import dataclasses

        stale_key = dataclasses.replace(key, fingerprint="0" * 64)
        store.put(stale_key, entry.artifact)
        report = verify_store(store, sample=None, seed=0)
        assert report.ok  # stale entries are reported, not failures
        assert report.stale == 1
        assert report.checked == 1

    def test_sampling_is_deterministic(self, tmp_path):
        from repro.cache.verify import verify_store

        root = str(tmp_path / "store")
        ExperimentRunner(cache="auto", cache_dir=root).run(
            ["fig1", "mmcount", "lemma1"]
        )
        store = Cache(root)
        first = verify_store(store, sample=2, seed=7)
        second = verify_store(store, sample=2, seed=7)
        assert [r.experiment_id for r in first.records] == [
            r.experiment_id for r in second.records
        ]
        assert first.checked == 2


class TestManifestCacheAccounting:
    def test_manifest_records_hits_and_saved_time(self, tmp_path):
        from repro.runtime.manifest import RunManifest

        root = str(tmp_path / "store")
        runner = ExperimentRunner(cache="auto", cache_dir=root)
        cold = runner.run(["fig1"])
        warm = runner.run(["fig1"])
        manifest = RunManifest.build(
            warm, seed=0, quick=True, jobs=1, total_wall_time_s=0.01
        )
        assert manifest.cache_hits == 1
        assert manifest.entries[0].cache_hit is True
        assert manifest.saved_wall_time_s == pytest.approx(
            cold[0].wall_time_s
        )
        assert manifest.serial_equivalent_wall_time_s == pytest.approx(
            cold[0].wall_time_s
        )
        assert manifest.cache_speedup == float("inf")
