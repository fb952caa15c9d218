"""BENCHMARK.json and the code that prints the metrics agree."""

import json

from conftest import BENCH_DIR
from layers import PER_LAYER
from run import END_TO_END, WORKLOADS

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_per_layer_metrics_match():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in PER_LAYER]


def test_workloads_match():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)
