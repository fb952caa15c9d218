"""Unit tests for the longitudinal bench history (repro.bench)."""

import json

import pytest

from repro.bench import (
    HISTORY_SCHEMA_VERSION,
    append_record,
    check_regression,
    empty_history,
    load_history,
    render_trend,
)
from repro.errors import CacheError

SIM = "sim-scalar-vs-chunked"
SIM_WORKLOADS = (
    "adversarial-worst-case",
    "adversarial-recursive",
    "randomized-placement",
    "mc-iid-uniform",
)


def record(
    speedup=5.0,
    environment="py3.11-numpy1-scipy1",
    quick=True,
    revision="abc1234",
    workloads=SIM_WORKLOADS,
    benchmark=SIM,
) -> dict:
    """One bench record shaped like run_bench's sim output."""
    return {
        "bench_schema_version": 2,
        "benchmark": benchmark,
        "quick": quick,
        "seed": 0,
        "workloads": [
            {
                "name": name,
                "n": 1024,
                "scalar_wall_time_s": 1.0,
                "chunked_wall_time_s": 1.0 / speedup,
                "speedup": speedup,
                "bit_identical": True,
            }
            for name in workloads
        ],
        "scalar_wall_time_s": float(len(workloads)),
        "chunked_wall_time_s": len(workloads) / speedup,
        "speedup": speedup,
        "bit_identical": True,
        "environment": environment,
        "repro_version": "1.0.0",
        "git_revision": revision,
    }


class TestLoadAppend:
    def test_missing_file_is_empty_history(self, tmp_path):
        history = load_history(tmp_path / "BENCH_sim.json", SIM)
        assert history == empty_history(SIM)
        assert history["records"] == []

    def test_appends_accumulate_in_order(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        append_record(path, record(speedup=10.0, revision="aaa"))
        history = append_record(path, record(speedup=12.0, revision="bbb"))
        assert [r["git_revision"] for r in history["records"]] == [
            "aaa",
            "bbb",
        ]
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk["history_schema_version"] == HISTORY_SCHEMA_VERSION
        assert len(on_disk["records"]) == 2

    def test_corrupt_history_is_loud(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CacheError):
            load_history(path, SIM)

    def test_unknown_schema_version_refused(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        payload = empty_history(SIM)
        payload["history_schema_version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CacheError):
            load_history(path, SIM)

    def test_non_object_payload_refused(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(CacheError):
            load_history(path, SIM)

    def test_missing_records_list_refused(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        payload = empty_history(SIM)
        payload["records"] = "nope"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CacheError):
            load_history(path, SIM)

    def test_append_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "BENCH_sim.json"
        append_record(path, record())
        assert path.is_file()

    def test_append_refuses_another_benchmarks_history(self, tmp_path):
        # a machine record in the sim history would be judged against
        # sim records under a header that still says sim
        path = tmp_path / "BENCH_sim.json"
        append_record(path, record())
        before = path.read_text(encoding="utf-8")
        machine = record(benchmark="machine-scalar-vs-kernel")
        with pytest.raises(CacheError) as exc:
            append_record(path, machine)
        assert SIM in str(exc.value)
        assert "machine-scalar-vs-kernel" in str(exc.value)
        assert path.read_text(encoding="utf-8") == before


class TestRegressionCheck:
    def test_empty_history_has_no_baseline(self):
        verdict = check_regression(empty_history(SIM))
        assert verdict["status"] == "no-baseline"
        assert verdict["latest_speedup"] is None

    def test_first_record_has_no_baseline(self, tmp_path):
        history = empty_history(SIM)
        history["records"] = [record(speedup=10.0)]
        verdict = check_regression(history)
        assert verdict["status"] == "no-baseline"
        assert verdict["latest_speedup"] == 10.0
        assert verdict["baseline_records"] == 0

    def test_steady_speedup_is_ok(self):
        history = empty_history(SIM)
        history["records"] = [
            record(speedup=10.0),
            record(speedup=9.0),
            record(speedup=9.5),
        ]
        verdict = check_regression(history)
        assert verdict["status"] == "ok"
        assert verdict["baseline_speedup"] == pytest.approx(9.5)
        assert verdict["baseline_records"] == 2

    def test_collapsed_speedup_flags_regression(self):
        history = empty_history(SIM)
        history["records"] = [
            record(speedup=10.0),
            record(speedup=12.0),
            record(speedup=2.0),  # < 0.5 x median(10, 12)
        ]
        verdict = check_regression(history)
        assert verdict["status"] == "regression"
        assert verdict["baseline_speedup"] == pytest.approx(11.0)
        assert verdict["ratio"] == pytest.approx(2.0 / 11.0)

    def test_threshold_is_configurable(self):
        history = empty_history(SIM)
        history["records"] = [
            record(speedup=10.0),
            record(speedup=10.0),
            record(speedup=8.0),
        ]
        assert check_regression(history, threshold=0.5)["status"] == "ok"
        assert (
            check_regression(history, threshold=0.9)["status"] == "regression"
        )

    def test_single_prior_record_is_not_a_baseline(self):
        # min_records=2 by default: one predecessor is noise, not a
        # baseline (an environment-tag change restarts the class)
        history = empty_history(SIM)
        history["records"] = [record(speedup=10.0), record(speedup=1.0)]
        verdict = check_regression(history)
        assert verdict["status"] == "no-baseline"
        assert verdict["baseline_records"] == 1
        assert verdict["min_records"] == 2

    def test_min_records_is_configurable(self):
        history = empty_history(SIM)
        history["records"] = [record(speedup=10.0), record(speedup=1.0)]
        assert (
            check_regression(history, min_records=1)["status"] == "regression"
        )
        assert (
            check_regression(history, min_records=3)["status"] == "no-baseline"
        )

    def test_min_records_must_be_positive(self):
        with pytest.raises(CacheError):
            check_regression(empty_history(SIM), min_records=0)

    def test_different_workload_sets_are_not_comparable(self):
        # speedup is a minimum over workloads: a 4-workload record must
        # not be judged against 2-workload baselines
        history = empty_history(SIM)
        two = ("adversarial-worst-case", "mc-iid-uniform")
        history["records"] = [
            record(speedup=5.0, workloads=two),
            record(speedup=5.2, workloads=two),
            record(speedup=2.0),
        ]
        verdict = check_regression(history)
        assert verdict["status"] == "no-baseline"
        assert verdict["baseline_records"] == 0

    def test_different_config_is_not_comparable(self):
        # a full-mode run must not be judged against quick baselines
        history = empty_history(SIM)
        history["records"] = [
            record(speedup=10.0, quick=True),
            record(speedup=10.0, quick=True),
            record(speedup=1.1, quick=False),
        ]
        verdict = check_regression(history)
        assert verdict["status"] == "no-baseline"
        assert verdict["baseline_records"] == 0

    def test_different_environment_is_not_comparable(self):
        history = empty_history(SIM)
        history["records"] = [
            record(speedup=10.0, environment="py3.10-numpy1-scipy1"),
            record(speedup=1.0, environment="py3.11-numpy2-scipy1"),
        ]
        assert check_regression(history)["status"] == "no-baseline"

    def test_records_without_speedup_ignored(self):
        history = empty_history(SIM)
        broken = record()
        broken["speedup"] = None  # fast side took 0s on a broken clock
        history["records"] = [
            record(speedup=10.0),
            record(speedup=10.0),
            broken,
            record(speedup=9.0),
        ]
        verdict = check_regression(history)
        assert verdict["status"] == "ok"
        assert verdict["baseline_records"] == 2


class TestRenderTrend:
    def test_empty_history_renders_placeholder(self):
        assert "no records" in render_trend(empty_history(SIM))

    def test_rows_in_chronological_order(self):
        history = empty_history(SIM)
        history["records"] = [
            record(speedup=10.0, revision="older12"),
            record(speedup=11.0, revision="newer34"),
        ]
        text = render_trend(history)
        assert text.index("older12") < text.index("newer34")
        assert "10.0x" in text and "11.0x" in text

    def test_non_identical_record_flagged(self):
        history = empty_history(SIM)
        bad = record()
        bad["bit_identical"] = False
        history["records"] = [bad]
        assert "NO" in render_trend(history)

    def test_sim_history_gets_sim_columns(self):
        history = empty_history(SIM)
        history["records"] = [record(speedup=5.0, revision="sim1234")]
        text = render_trend(history)
        assert "sim-scalar-vs-chunked" in text
        assert "scalar(s)" in text and "chunked(s)" in text
        assert "5.0x" in text and "sim1234" in text


class TestBenchmarkParameter:
    def test_empty_history_takes_benchmark_name(self):
        doc = empty_history(benchmark="sim-scalar-vs-chunked")
        assert doc["benchmark"] == "sim-scalar-vs-chunked"

    def test_missing_file_adopts_requested_benchmark(self, tmp_path):
        doc = load_history(
            tmp_path / "BENCH_sim.json", benchmark="sim-scalar-vs-chunked"
        )
        assert doc["benchmark"] == "sim-scalar-vs-chunked"

    def test_append_record_seeds_benchmark(self, tmp_path):
        path = tmp_path / "BENCH_machine.json"
        doc = append_record(
            path, record(benchmark="machine-scalar-vs-kernel")
        )
        assert doc["benchmark"] == "machine-scalar-vs-kernel"
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk["benchmark"] == "machine-scalar-vs-kernel"
