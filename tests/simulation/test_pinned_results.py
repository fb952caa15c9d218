"""Simulator results pinned as a table, scalar and chunked alike.

The differential suites compare the chunked engine with the scalar
per-box loop, but both share the cursor's descent (``_normalize``) and
the placements' draws, so a bug there moves both sides together and no
differential test sees it.  This table was recorded by the scalar loop
before the per-box closed forms existed; both engines must keep
reproducing it field for field.

Regenerate (only when a deliberate semantic change is made, and say so
in CHANGES.md) with::

    PYTHONPATH=src python tests/simulation/test_pinned_results.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.library import MM_SCAN, STRASSEN
from repro.algorithms.randomized import (
    coin_flip_placement,
    random_slot_placement,
    random_split_placement,
)
from repro.algorithms.spec import RegularSpec, ScanPlacement
from repro.analysis.nocatchup import finish_positions
from repro.profiles.distributions import UniformRange
from repro.profiles.sources import cycled, sampled
from repro.profiles.worst_case import (
    matched_worst_case_profile,
    worst_case_profile,
)
from repro.simulation.symbolic import SymbolicSimulator
from repro.util.rng import ReplayableStream

TABLE = Path(__file__).with_name("pinned_results.json")

# A guard against a cursor that stops making progress on a cycled
# source; every pinned run completes far below it.
MAX_BOXES = 200_000

SPECS = {
    "MM-SCAN": (MM_SCAN, 64),
    "STRASSEN": (STRASSEN, 64),
    "(8,4,0.5)": (RegularSpec(8, 4, 0.5), 64),
    "(4,2,1)": (RegularSpec(4, 2, 1.0), 64),
}

PLACEMENTS = {
    "end": lambda spec: (spec.with_placement(ScanPlacement.END), None),
    "front": lambda spec: (spec.with_placement(ScanPlacement.FRONT), None),
    "split": lambda spec: (spec.with_placement(ScanPlacement.SPLIT), None),
    "slot@11": lambda spec: (
        spec,
        random_slot_placement(spec, ReplayableStream(11)),
    ),
    "multinomial@11": lambda spec: (
        spec,
        random_split_placement(spec, ReplayableStream(11)),
    ),
    "coin@11": lambda spec: (
        spec,
        coin_flip_placement(spec, ReplayableStream(11)),
    ),
}

SOURCES = {
    "worst-case": lambda spec, n: cycled(
        worst_case_profile(spec.a, spec.b, n, spec.base_size)
    ),
    "matched": lambda spec, n: cycled(matched_worst_case_profile(spec, n)),
    "uniform": lambda spec, n: sampled(UniformRange(1, 64), ReplayableStream(3)),
}

MODELS = ("simplified", "recursive", "greedy")

FIELDS = ("boxes_used", "leaves_done", "scan_accesses", "time_used", "completed")


def cases():
    """Every ``(key, spec, n, placement, model, kappa, source)`` of the
    grid; ``placement`` and ``source`` are factories (sources are
    single-use and placements carry per-run state)."""
    for spec_name, (base_spec, n) in SPECS.items():
        for place_name, place in PLACEMENTS.items():
            for model in MODELS:
                for kappa in (1, base_spec.b):
                    for source_name, source in SOURCES.items():
                        key = "/".join(
                            (spec_name, place_name, model, f"k{kappa}", source_name)
                        )
                        yield key, base_spec, n, place, model, kappa, source


def run_case(base_spec, n, place, model, kappa, source, fastpath):
    spec, randomizer = place(base_spec)
    sim = SymbolicSimulator(
        spec,
        n,
        model=model,
        completion_divisor=kappa,
        scan_randomizer=randomizer,
    )
    rec = sim.run(source(spec, n), max_boxes=MAX_BOXES, fastpath=fastpath)
    row = {field: getattr(rec, field) for field in FIELDS}
    row["bounded_potential"] = float(rec.bounded_potential).hex()
    return row


def finish_table():
    """``finish_positions`` for one box list per model and spec."""
    out = {}
    for spec_name, (spec, n) in SPECS.items():
        gen = np.random.default_rng(5)
        boxes = [int(s) for s in gen.integers(1, n // spec.b, size=24)]
        total = spec.subtree_accesses(n)
        starts = sorted({0, *(int(p) for p in gen.integers(0, total, size=12))})
        for model in ("simplified", "greedy"):
            out[f"{spec_name}/{model}"] = {
                "boxes": boxes,
                "starts": starts,
                "finishes": finish_positions(spec, n, boxes, starts, model=model),
            }
    return out


def compute_table(fastpath=False):
    runs = {
        key: run_case(spec, n, place, model, kappa, source, fastpath)
        for key, spec, n, place, model, kappa, source in cases()
    }
    return {"runs": runs, "finish_positions": finish_table()}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("fastpath", [False, True], ids=["scalar", "chunked"])
def test_simulator_reproduces_pinned_table(pinned, fastpath):
    expected = pinned["runs"]
    keys = [key for key, *_ in cases()]
    assert sorted(keys) == sorted(expected)
    for key, spec, n, place, model, kappa, source in cases():
        got = run_case(spec, n, place, model, kappa, source, fastpath)
        assert got == expected[key], key


def test_every_pinned_run_completes(pinned):
    assert all(row["completed"] for row in pinned["runs"].values())


def test_finish_positions_reproduce_pinned_table(pinned):
    assert finish_table() == pinned["finish_positions"]


def _write_table() -> None:
    table = compute_table()
    runs = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(row, sort_keys=True)}"
        for key, row in sorted(table["runs"].items())
    )
    finishes = json.dumps(table["finish_positions"], sort_keys=True)
    TABLE.write_text(
        f'{{\n "finish_positions": {finishes},\n "runs": {{\n{runs}\n }}\n}}\n'
    )


if __name__ == "__main__":
    _write_table()
