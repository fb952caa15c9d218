"""Unit tests for the schema-versioned RunArtifact."""

import dataclasses

import pytest

from repro.errors import ArtifactError
from repro.experiments.common import ExperimentResult
from repro.runtime.artifact import SCHEMA_VERSION, ResultTable, RunArtifact


def make_artifact(**overrides) -> RunArtifact:
    base = dict(
        experiment_id="x",
        title="Title",
        claim="Claim",
        tables=(
            ResultTable(
                title="T",
                headers=("a", "b"),
                rows=((1, 2.5), ("s", True), (None, -3.0)),
            ),
        ),
        metrics={"reproduced": True, "ratio": 1.25, "sizes": [1, 2, 3]},
        verdict="REPRODUCED",
        notes="a note",
        seed=0,
        quick=True,
        wall_time_s=0.125,
        counters={"sim.runs": 3, "sim.boxes": 120},
        repro_version="1.0.0",
        git_revision="abc1234",
    )
    base.update(overrides)
    return RunArtifact(**base)


class TestRoundTrip:
    def test_lossless_equality(self):
        artifact = make_artifact()
        loaded = RunArtifact.from_json(artifact.to_json())
        assert loaded == artifact

    def test_json_fixpoint(self):
        artifact = make_artifact()
        once = artifact.to_json()
        assert RunArtifact.from_json(once).to_json() == once

    def test_rendering_survives_round_trip(self):
        artifact = make_artifact()
        assert RunArtifact.from_json(artifact.to_json()).render() == artifact.render()

    def test_real_experiment_round_trips(self):
        from repro.api import run

        artifact = run("fig1", quick=True, seed=0, cache="off")
        loaded = RunArtifact.from_json(artifact.to_json())
        assert loaded == artifact
        assert loaded.counters == artifact.counters
        assert loaded.wall_time_s == pytest.approx(artifact.wall_time_s)


class TestSchemaVersion:
    def test_current_version_stamped(self):
        assert make_artifact().schema_version == SCHEMA_VERSION
        assert make_artifact().to_dict()["schema_version"] == SCHEMA_VERSION

    @pytest.mark.parametrize("bad", [0, SCHEMA_VERSION + 1, "1", None])
    def test_unknown_version_refused(self, bad):
        payload = make_artifact().to_dict()
        payload["schema_version"] = bad
        with pytest.raises(ArtifactError):
            RunArtifact.from_dict(payload)

    def test_not_an_object_refused(self):
        with pytest.raises(ArtifactError):
            RunArtifact.from_json("[1, 2]")
        with pytest.raises(ArtifactError):
            RunArtifact.from_json("not json")

    def test_v1_payload_still_reads(self):
        payload = make_artifact().to_dict()
        payload["schema_version"] = 1
        payload.pop("cache_hit", None)
        payload.pop("saved_wall_time_s", None)
        loaded = RunArtifact.from_dict(payload)
        assert loaded.schema_version == 1
        assert loaded.cache_hit is None
        assert loaded.saved_wall_time_s is None


class TestImmutability:
    def test_frozen(self):
        artifact = make_artifact()
        with pytest.raises(dataclasses.FrozenInstanceError):
            artifact.verdict = "changed"

    def test_without_timing_clears_timing_and_cache_stamp(self):
        artifact = make_artifact(cache_hit=True, saved_wall_time_s=2.5)
        stripped = artifact.without_timing()
        assert stripped.wall_time_s is None
        assert stripped.cache_hit is None
        assert stripped.saved_wall_time_s is None
        assert stripped.counters == artifact.counters
        assert stripped.metrics == artifact.metrics

    def test_without_cache_stamp_keeps_wall_time(self):
        artifact = make_artifact(cache_hit=False, saved_wall_time_s=2.5)
        canonical = artifact.without_cache_stamp()
        assert canonical.wall_time_s == pytest.approx(0.125)
        assert canonical.cache_hit is None
        assert canonical.saved_wall_time_s is None

    def test_cached_and_live_agree_modulo_timing(self):
        live = make_artifact()
        cached = make_artifact(
            wall_time_s=0.0, cache_hit=True, saved_wall_time_s=0.125
        )
        assert live.without_timing().to_json() == cached.without_timing().to_json()


class TestJsonifyRefusals:
    def test_unserializable_metric_refused(self):
        artifact = make_artifact(metrics={"gen": object()})
        with pytest.raises(ArtifactError):
            artifact.to_dict()

    def test_non_string_metric_key_refused(self):
        artifact = make_artifact(metrics={1: "x"})
        with pytest.raises(ArtifactError):
            artifact.to_dict()


class TestBuilderFinalize:
    def test_finalize_matches_builder_fields(self):
        result = ExperimentResult("x", "Title", "Claim")
        result.add_table("T", ["a", "b"], [(1, 2.5)])
        result.metrics["reproduced"] = True
        result.verdict = "REPRODUCED"
        result.notes = "n"
        artifact = result.finalize(quick=True, seed=7)
        assert artifact.experiment_id == "x"
        assert artifact.tables == tuple(result.tables)
        assert artifact.metrics == result.metrics
        assert artifact.verdict == "REPRODUCED"
        assert artifact.notes == "n"
        assert artifact.seed == 7 and artifact.quick is True
        assert artifact.repro_version

    def test_finalize_render_matches_builder_render(self):
        result = ExperimentResult("x", "Title", "Claim")
        result.add_table("T", ["a", "b"], [(1, 2.5), ("left", False)])
        result.metrics["reproduced"] = True
        result.verdict = "REPRODUCED"
        assert result.finalize().render() == result.render()

    def test_finalize_snapshot_is_independent(self):
        result = ExperimentResult("x", "t", "c")
        artifact = result.finalize()
        result.add_table("T", ["a"], [(1,)])
        result.metrics["later"] = 1
        assert artifact.tables == ()
        assert artifact.metrics == {}

    def test_reproduced_property(self):
        assert make_artifact(metrics={}).reproduced is True
        assert make_artifact(metrics={"reproduced": False}).reproduced is False
