"""The bench harness (repro.bench), run once per registered suite."""

import json
import re
from pathlib import Path

import pytest

from repro.bench import BENCH_SCHEMA_VERSION, SUITES, run_bench
from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent

#: Workload names per suite; committed histories and PERF.md quote them.
WORKLOADS = {
    "sim": [
        "adversarial-worst-case",
        "adversarial-recursive",
        "randomized-placement",
        "mc-iid-uniform",
    ],
    "machine": [
        "multiprofile-lru-crosscheck",
        "realistic-squarified",
        "dam-capacity-sweep",
    ],
}


@pytest.fixture(scope="module", params=sorted(SUITES))
def quick_record(request):
    return request.param, run_bench(request.param, quick=True, seed=3)


def test_every_suite_is_a_cli_choice():
    assert set(SUITES) == set(WORKLOADS)
    for suite in SUITES:
        assert build_parser().parse_args(["bench", "--suite", suite]).suite == suite


def test_quick_payload_shape_and_identity(quick_record):
    suite, record = quick_record
    assert record["bench_schema_version"] == BENCH_SCHEMA_VERSION
    assert record["benchmark"] == SUITES[suite].benchmark
    assert record["quick"] is True
    assert [w["name"] for w in record["workloads"]] == WORKLOADS[suite]
    # the speedup is only evidence because the results are identical
    assert record["bit_identical"] is True
    for workload in record["workloads"]:
        assert workload["bit_identical"] is True
        assert workload["scalar_wall_time_s"] > 0
        assert workload["chunked_wall_time_s"] > 0
        assert workload["n"] > 0
    # top-level speedup = the weakest workload, not the flattering one
    assert record["speedup"] == min(w["speedup"] for w in record["workloads"])


def test_payload_is_json_serializable_and_tagged(quick_record):
    _, record = quick_record
    assert json.loads(json.dumps(record)) == record
    assert "environment" in record and "git_revision" in record
    assert record["seed"] == 3


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_bench_writes_report(suite, tmp_path, capsys):
    out = tmp_path / f"BENCH_{suite}.json"
    assert main(["bench", "--suite", suite, "-o", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["benchmark"] == SUITES[suite].benchmark
    captured = capsys.readouterr().out
    assert f"{suite} bench:" in captured and SUITES[suite].fast in captured
    assert "bit-identical: True" in captured


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_bench_history_appends(suite, tmp_path, capsys):
    out = tmp_path / f"BENCH_{suite}.json"
    args = ["bench", "--suite", suite, "-o", str(out), "--history"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "no baseline yet (0 of 2 comparable prior record(s)" in first
    assert main(args) == 0
    second = capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["benchmark"] == SUITES[suite].benchmark
    assert len(doc["records"]) == 2
    # one comparable predecessor is still below the min_records floor
    assert "1 of 2 comparable prior record(s)" in second
    assert f"bench history ({SUITES[suite].benchmark})" in second
    assert f"{SUITES[suite].fast}(s)" in second


@pytest.mark.parametrize(
    "argv",
    [
        ["bench"],
        ["bench", "--suite", "cache"],
        ["bench", "--suite", "sim", "fig1"],
        ["bench", "--suite", "machine", "fig1"],
    ],
    ids=["no-suite", "cache-suite", "sim-with-id", "machine-with-id"],
)
def test_bench_rejects_usage_errors(argv):
    # a usage error must not silently run some other benchmark
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


_ROW = re.compile(
    r"^\| (?P<name>[a-z-]+) \| (?P<mode>quick|full), n=4\^(?P<exp>\d+) \| "
    r"(?P<scalar>[\d.]+) s \| (?P<fast>[\d.]+) s \| \**(?P<speedup>[\d.]+)×\** \|$"
)


def _perf_tables() -> dict[str, list[re.Match]]:
    """PERF.md's methodology tables, keyed by suite via the fast-side
    label in each table's header."""
    tables: dict[str, list[re.Match]] = {}
    rows = None
    for line in (ROOT / "docs" / "PERF.md").read_text(encoding="utf-8").splitlines():
        header = re.match(r"^\| workload \| config \| scalar \| (\w+) \| speedup \|$", line)
        if header:
            suite = next(s for s, e in SUITES.items() if e.fast == header.group(1))
            rows = tables.setdefault(suite, [])
        elif rows is not None and line.startswith("|") and not line.startswith("|---"):
            row = _ROW.match(line)
            assert row, f"unparsed PERF.md row: {line}"
            rows.append(row)
        elif not line.startswith("|"):
            rows = None
    return tables


def _printed(value: float, cell: str) -> str:
    decimals = len(cell.partition(".")[2])
    return f"{value:.{decimals}f}"


def test_perf_tables_match_committed_records():
    tables = _perf_tables()
    assert set(tables) == set(SUITES)
    for suite, rows in tables.items():
        assert rows
        history = json.loads((ROOT / f"BENCH_{suite}.json").read_text(encoding="utf-8"))
        assert history["benchmark"] == SUITES[suite].benchmark
        for row in rows:
            quick = row["mode"] == "quick"
            newest = next(
                w
                for record in reversed(history["records"])
                if record["quick"] is quick
                for w in record["workloads"]
                if w["name"] == row["name"]
            )
            assert newest["n"] == 4 ** int(row["exp"]), row.group(0)
            for cell, key in (
                ("scalar", "scalar_wall_time_s"),
                ("fast", "chunked_wall_time_s"),
                ("speedup", "speedup"),
            ):
                assert row[cell] == _printed(newest[key], row[cell]), (row.group(0), cell)
