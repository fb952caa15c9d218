"""The ``repro.api`` façade: the blessed surface."""

import pytest

from repro import api


class TestSurface:
    def test_all_is_the_contract(self):
        assert api.__all__ == [
            "WIRE_VERSION",
            "RunRequest",
            "RunResponse",
            "execute",
            "run",
            "run_all",
            "solve",
            "load_artifact",
            "Cache",
        ]
        for name in api.__all__:
            member = getattr(api, name)
            assert callable(member) or name == "WIRE_VERSION"

    def test_package_attribute_reaches_facade(self):
        import repro

        assert repro.api is api


class TestRun:
    def test_run_returns_instrumented_artifact(self):
        artifact = api.run("fig1")
        assert artifact.experiment_id == "fig1"
        assert artifact.wall_time_s > 0
        assert artifact.counters

    def test_run_hits_cache_on_second_call(self):
        cold = api.run("fig1")
        warm = api.run("fig1")
        assert cold.cache_hit is False and warm.cache_hit is True
        assert warm.without_timing().to_json() == cold.without_timing().to_json()

    def test_run_cache_off(self):
        artifact = api.run("fig1", cache="off")
        assert artifact.cache_hit is None

    def test_run_all_subset_ordered_mapping(self):
        artifacts = api.run_all(["mmcount", "fig1"])
        assert list(artifacts) == ["mmcount", "fig1"]
        assert all(a.experiment_id == eid for eid, a in artifacts.items())


class TestSolve:
    def test_accepts_typed_objects(self):
        from repro.algorithms.library import MM_SCAN
        from repro.profiles.distributions import PointMass

        solution = api.solve(MM_SCAN, 64, PointMass(16))
        assert solution.eq8_product() > 0

    def test_accepts_names_and_dsl(self):
        from repro.algorithms.library import MM_SCAN
        from repro.profiles.distributions import PointMass

        by_name = api.solve("MM-SCAN", 64, "point:16")
        by_object = api.solve(MM_SCAN, 64, PointMass(16))
        assert by_name is by_object  # same memo entry

    def test_unknown_spec_name_raises(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            api.solve("NOPE", 64, "point:16")


class TestLoadArtifact:
    def test_round_trips_run_json(self, tmp_path):
        artifact = api.run("fig1", cache="off")
        path = tmp_path / "fig1.json"
        path.write_text(artifact.to_json(), encoding="utf-8")
        loaded = api.load_artifact(str(path))
        assert loaded == artifact

    def test_reads_raw_store_entry(self, tmp_path):
        api.run("fig1", cache_dir=str(tmp_path / "store"))
        entry = next(api.Cache(tmp_path / "store").iter_entries())
        loaded = api.load_artifact(str(entry.path))
        assert loaded.experiment_id == "fig1"

    def test_missing_file_raises(self, tmp_path):
        from repro.errors import ArtifactError

        with pytest.raises(ArtifactError):
            api.load_artifact(str(tmp_path / "ghost.json"))

    def test_invalid_json_raises(self, tmp_path):
        from repro.errors import ArtifactError

        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        with pytest.raises(ArtifactError):
            api.load_artifact(str(bad))

