"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_with_flags(self):
        args = build_parser().parse_args(["run", "fig1", "gap", "--full", "--seed", "3"])
        assert args.ids == ["fig1", "gap"]
        assert not args.quick and args.seed == 3

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig1"])
        assert args.jobs == 1 and args.json_dir is None
        assert args.quick  # quick is the default for run
        assert args.cache == "auto" and args.cache_dir is None

    def test_run_jobs_and_json_flags(self):
        args = build_parser().parse_args(
            ["run", "all", "--jobs", "4", "--json", "artifacts"]
        )
        assert args.jobs == 4 and args.json_dir == "artifacts"

    def test_run_cache_flags(self):
        parser = build_parser()
        assert parser.parse_args(["run", "fig1", "--no-cache"]).cache == "off"
        assert parser.parse_args(["run", "fig1", "--refresh"]).cache == "refresh"
        args = parser.parse_args(["run", "fig1", "--cache-dir", "/tmp/c"])
        assert args.cache_dir == "/tmp/c"

    def test_no_cache_and_refresh_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig1", "--no-cache", "--refresh"])

    def test_quick_full_mutually_exclusive_everywhere(self):
        parser = build_parser()
        for sub in (
            ["run", "fig1"],
            ["show-profile", "64"],
            ["solve", "--n", "64", "--dist", "point:16"],
            ["bench", "--suite", "sim"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args([*sub, "--quick", "--full"])

    def test_show_profile(self):
        args = build_parser().parse_args(["show-profile", "64"])
        assert args.pos_n == 64 and args.n is None
        flagged = build_parser().parse_args(["show-profile", "--n", "64"])
        assert flagged.n == 64
        assert flagged.quick and flagged.seed == 0

    def test_solve_defaults_to_full(self):
        args = build_parser().parse_args(
            ["solve", "--n", "64", "--dist", "point:16"]
        )
        assert not args.quick  # exact DP is the default for solve
        assert args.seed == 0 and args.json_dir is None

    def test_cache_subcommands(self):
        parser = build_parser()
        assert parser.parse_args(["cache", "stats"]).cache_command == "stats"
        assert parser.parse_args(["cache", "clear"]).cache_command == "clear"
        verify = parser.parse_args(
            ["cache", "verify", "--sample", "0", "--jobs", "4", "--seed", "2"]
        )
        assert verify.cache_command == "verify"
        assert verify.sample == 0 and verify.jobs == 4 and verify.seed == 2
        with pytest.raises(SystemExit):
            parser.parse_args(["cache"])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench", "--suite", "sim"])
        assert args.output is None  # BENCH_<suite>.json
        assert args.quick and args.seed == 0
        assert args.history is False

    def test_bench_suite_flag(self):
        args = build_parser().parse_args(["bench", "--suite", "sim"])
        assert args.suite == "sim"

    def test_bench_history_flag(self):
        args = build_parser().parse_args(["bench", "--suite", "sim", "--history"])
        assert args.history is True

    def test_cache_gc_flags(self):
        parser = build_parser()
        args = parser.parse_args(["cache", "gc"])
        assert args.cache_command == "gc"
        assert args.max_bytes is None and args.max_entries is None
        assert args.max_age_days is None and args.tmp_grace_s is None
        assert not args.dry_run and not args.fail_on_debris
        args = parser.parse_args(
            [
                "cache", "gc", "--max-bytes", "1024", "--max-entries", "5",
                "--max-age-days", "30", "--tmp-grace-s", "0",
                "--dry-run", "--fail-on-debris",
            ]
        )
        assert args.max_bytes == 1024 and args.max_entries == 5
        assert args.max_age_days == 30.0 and args.tmp_grace_s == 0.0
        assert args.dry_run and args.fail_on_debris

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "shuffle" in out

    def test_run_single(self, capsys):
        assert main(["run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_show_profile(self, capsys):
        assert main(["show-profile", "64"]) == 0
        out = capsys.readouterr().out
        assert "boxes" in out

    def test_show_profile_invalid(self, capsys):
        assert main(["show-profile", "10"]) == 2

    def test_show_profile_needs_a_size(self, capsys):
        assert main(["show-profile"]) == 2
        assert "problem size" in capsys.readouterr().err

    def test_show_profile_conflicting_sizes(self, capsys):
        assert main(["show-profile", "64", "--n", "256"]) == 2

    def test_show_profile_full_prints_census(self, capsys):
        assert main(["show-profile", "256", "--full"]) == 0
        out = capsys.readouterr().out
        assert "box census" in out and "1: 4096" in out

    def test_show_profile_json(self, tmp_path, capsys):
        import json

        assert main(["show-profile", "256", "--json", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "profile.json").read_text())
        assert payload["n"] == 256 and payload["boxes"] == 4681
        assert payload["size_census"]["1"] == 4096

    def test_solve_json(self, tmp_path, capsys):
        import json

        assert main(
            [
                "solve", "--n", "64", "--dist", "point:16",
                "--json", str(tmp_path), "--seed", "5",
            ]
        ) == 0
        payload = json.loads((tmp_path / "solve.json").read_text())
        assert payload["seed"] == 5 and payload["quick"] is False
        assert payload["levels"] and "eq8_product" in payload

    def test_solve_quick_announces_approximation(self, capsys):
        assert main(["solve", "--n", "64", "--dist", "point:16", "--quick"]) == 0
        assert "Wald-midpoint" in capsys.readouterr().out


class TestCacheCommands:
    def test_warm_run_reports_hits(self, capsys):
        assert main(["run", "fig1"]) == 0
        capsys.readouterr()
        assert main(["run", "fig1"]) == 0
        captured = capsys.readouterr()
        assert "REPRODUCED" in captured.out
        assert "cache: 1/1 hit(s)" in captured.err

    def test_no_cache_never_hits(self, capsys):
        assert main(["run", "fig1", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["run", "fig1", "--no-cache"]) == 0
        assert "cache:" not in capsys.readouterr().err

    def test_warm_output_matches_cold(self, capsys):
        assert main(["run", "fig1"]) == 0
        cold = capsys.readouterr().out
        assert main(["run", "fig1"]) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_stats_clear_roundtrip(self, capsys):
        assert main(["run", "fig1"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out and "fig1" in out
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_verify_ok(self, capsys):
        assert main(["run", "fig1"]) == 0
        capsys.readouterr()
        assert main(["cache", "verify", "--sample", "0"]) == 0
        out = capsys.readouterr().out
        assert "1 checked, 0 mismatch(es)" in out

    def test_json_manifest_records_gc_counters(self, tmp_path, capsys):
        from repro.runtime import RunManifest

        art_dir = tmp_path / "artifacts"
        assert main(["run", "fig1", "--json", str(art_dir)]) == 0
        manifest = RunManifest.from_json(
            (art_dir / "manifest.json").read_text()
        )
        assert manifest.gc is not None
        assert manifest.gc["evicted_entries"] == 0

    def test_stats_reports_debris_and_gc(self, capsys):
        from repro.cache.store import default_cache_dir

        assert main(["run", "fig1"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        # a `run` auto-GCs afterwards, so stats already shows counters
        assert "temp debris: 0 file(s)" in out
        assert "gc: 1 collection(s)" in out
        debris = default_cache_dir() / ".tmp-orphan.json"
        debris.write_text("x", encoding="utf-8")
        assert main(["cache", "stats"]) == 0
        assert "temp debris: 1 file(s)" in capsys.readouterr().out

    def test_stats_reports_fingerprint_memo(self, tmp_path, capsys):
        import json

        from repro.cache.fingerprint import FINGERPRINT_MEMO
        from repro.cache.store import default_cache_dir

        assert main(["cache", "stats"]) == 0
        assert "fingerprint memo: absent" in capsys.readouterr().out
        assert main(["run", "fig1"]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "stats"
        assert main(["cache", "stats", "--json", str(out_dir)]) == 0
        assert "fingerprint memo: current (1 fingerprint)" in capsys.readouterr().out
        payload = json.loads((out_dir / "cache_stats.json").read_text())
        assert payload["fingerprint_memo"] == {"state": "current", "fingerprints": 1}
        (default_cache_dir() / FINGERPRINT_MEMO).write_text(
            json.dumps({"tree": "0" * 64, "digests": {}}), encoding="utf-8"
        )
        assert main(["cache", "stats"]) == 0
        assert "fingerprint memo: stale (another tree)" in capsys.readouterr().out

    def test_gc_dry_run_deletes_nothing(self, capsys):
        assert main(["run", "fig1"]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would evict 0/1" in out
        assert main(["cache", "stats"]) == 0
        assert "entries: 1" in capsys.readouterr().out

    def test_gc_lifetime_flag_is_a_usage_error(self, capsys):
        # The creation-time budget went with the access sidecars that
        # held creation times; an entry file's mtime is its last access.
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "gc", "--max-lifetime-days", "7"])
        assert excinfo.value.code == 2

    def test_gc_evicts_under_entry_budget(self, capsys):
        assert main(["run", "fig1", "--seed", "0"]) == 0
        assert main(["run", "fig1", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--max-entries", "1"]) == 0
        out = capsys.readouterr().out
        assert "evicted 1/2" in out
        assert main(["cache", "stats"]) == 0
        assert "entries: 1" in capsys.readouterr().out

    def test_gc_fail_on_debris(self, capsys):
        from repro.cache.store import default_cache_dir

        assert main(["run", "fig1"]) == 0
        capsys.readouterr()
        # quiesced store, zero grace: the CI guard passes when clean...
        assert main(
            ["cache", "gc", "--dry-run", "--fail-on-debris",
             "--tmp-grace-s", "0"]
        ) == 0
        capsys.readouterr()
        # ...and fails once orphaned write debris shows up
        (default_cache_dir() / ".tmp-orphan.json").write_text(
            "x", encoding="utf-8"
        )
        assert main(
            ["cache", "gc", "--dry-run", "--fail-on-debris",
             "--tmp-grace-s", "0"]
        ) == 1
        assert "orphaned .tmp-*" in capsys.readouterr().err

    def test_gc_json_payload(self, tmp_path, capsys):
        import json

        assert main(["run", "fig1"]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--json", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "cache_gc.json").read_text())
        assert payload["command"] == "cache-gc"
        assert payload["examined_entries"] == 1
        assert payload["dry_run"] is False

    def test_json_manifest_records_warm_hits(self, tmp_path, capsys):
        from repro.runtime import RunManifest

        assert main(["run", "fig1"]) == 0
        art_dir = tmp_path / "artifacts"
        assert main(["run", "fig1", "--json", str(art_dir)]) == 0
        manifest = RunManifest.from_json((art_dir / "manifest.json").read_text())
        assert manifest.cache_hits == 1
        assert manifest.entries[0].cache_hit is True
        assert manifest.saved_wall_time_s > 0


class TestOutputFile:
    def test_run_writes_report_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.txt"
        assert main(["run", "fig1", "-o", str(out)]) == 0
        text = out.read_text()
        assert "fig1" in text and "REPRODUCED" in text

    def test_report_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["run", "fig1", "mmcount", "-o", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_text() == printed


class TestJsonArtifacts:
    def test_json_dir_written(self, tmp_path, capsys):
        from repro.runtime import RunArtifact, RunManifest

        art_dir = tmp_path / "artifacts"
        assert main(["run", "fig1", "--json", str(art_dir)]) == 0
        artifact = RunArtifact.from_json((art_dir / "fig1.json").read_text())
        assert artifact.experiment_id == "fig1"
        assert artifact.reproduced and artifact.wall_time_s > 0
        manifest = RunManifest.from_json((art_dir / "manifest.json").read_text())
        assert manifest.jobs == 1 and manifest.seed == 0 and manifest.quick
        assert [e.experiment_id for e in manifest.entries] == ["fig1"]
        assert manifest.entries[0].artifact == "fig1.json"
        assert manifest.total_wall_time_s > 0

    def test_json_with_jobs(self, tmp_path, capsys):
        from repro.runtime import RunManifest

        art_dir = tmp_path / "artifacts"
        assert main(
            ["run", "fig1", "mmcount", "--jobs", "2", "--json", str(art_dir)]
        ) == 0
        manifest = RunManifest.from_json((art_dir / "manifest.json").read_text())
        assert manifest.jobs == 2
        assert {e.experiment_id for e in manifest.entries} == {"fig1", "mmcount"}
        assert (art_dir / "mmcount.json").exists()

    def test_text_output_independent_of_jobs(self, tmp_path, capsys):
        assert main(["run", "fig1", "mmcount"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "fig1", "mmcount", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel


class TestPackageInit:
    def test_lazy_simulation_attr(self):
        import repro

        assert repro.SymbolicSimulator is not None

    def test_lazy_analysis_attr(self):
        import repro

        assert callable(repro.expected_cost_ratio)

    def test_unknown_attr(self):
        import repro

        with pytest.raises(AttributeError):
            repro.no_such_thing

    def test_version(self):
        import repro

        assert repro.__version__
