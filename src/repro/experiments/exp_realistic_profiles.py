"""Experiment ``realistic`` — natural fluctuation patterns don't bite.

The introduction motivates cache-adaptivity with real system behaviours:
winner-take-all cache residency crashed by periodic flushes, and noisy
co-tenant contention.  The paper's results say the logarithmic gap
requires profiles *tailored to the recursion*; this experiment quantifies
that on the realistic patterns themselves: generate the step profiles,
squarify them (the inscribed-box reduction of [5]), and measure MM-SCAN's
adaptivity ratio across problem sizes — it stays bounded on every natural
pattern while the tailored adversary's grows, even though the natural
profiles fluctuate wildly.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.library import MM_SCAN
from repro.algorithms.traces import synthetic_trace
from repro.analysis.adaptivity import RatioSeries, worst_case_ratio
from repro.experiments.common import ExperimentResult, RunArtifact
from repro.machine.ca_machine import simulate_ca
from repro.profiles.base import MemoryProfile
from repro.profiles.generators import random_walk_profile, winner_take_all_profile
from repro.profiles.reduction import squarify
from repro.profiles.sources import cycled
from repro.simulation.symbolic import SymbolicSimulator
from repro.util.rng import fixed_seeds

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "run"]

EXPERIMENT_ID = "realistic"
TITLE = "Introduction's scenarios: realistic fluctuation patterns stay adaptive"
CLAIM = (
    "On winner-take-all/flush and random-walk contention profiles "
    "(squarified), MM-SCAN's ratio stays O(1); only the tailored adversary "
    "extracts the log"
)


def _profiles_for(n: int, seed: int):
    yield "winner-take-all + flush", squarify(
        winner_take_all_profile(max_size=n, flush_floor=max(2, n // 64), cycles=16)
    )
    yield "shallow sawtooth", squarify(
        winner_take_all_profile(max_size=max(4, n // 4), flush_floor=2, cycles=48)
    )
    for i, s in enumerate(fixed_seeds(seed, 2)):
        yield f"random walk #{i + 1}", squarify(
            random_walk_profile(
                start=max(4, n // 8),
                steps=10 * n,
                min_size=2,
                max_size=n,
                up_probability=0.55,
                crash_probability=0.003,
                crash_factor=0.25,
                rng=s,
            )
        )


def run(quick: bool = True, seed: int = 0) -> RunArtifact:
    result = ExperimentResult(EXPERIMENT_ID, TITLE, CLAIM)
    spec = MM_SCAN
    ks = range(3, 7 if quick else 9)
    ns = [4**k for k in ks]

    ok = True
    series: dict[str, list[float]] = {}
    rows = []
    for n in ns:
        row = [n, worst_case_ratio(spec, n)]
        for name, boxes in _profiles_for(n, seed):
            sim = SymbolicSimulator(spec, n, model="recursive")
            rec = sim.run_to_completion(cycled(boxes))
            series.setdefault(name, []).append(rec.adaptivity_ratio)
            row.append(rec.adaptivity_ratio)
        rows.append(tuple(row))
    result.add_table(
        "adaptivity ratio of MM-SCAN on squarified realistic profiles",
        ["n", "tailored adversary"] + list(series),
        rows,
    )

    verdict_rows = []
    for name, ratios in series.items():
        rs = RatioSeries(tuple(ns), tuple(ratios), base=4.0)
        bounded = rs.verdict == "constant"
        ok &= bounded
        verdict_rows.append((name, max(ratios), rs.log_slope, rs.verdict))
    result.add_table(
        "growth classification (paper: only tailored profiles grow)",
        ["profile family", "max ratio", "log-slope", "verdict"],
        verdict_rows,
    )
    # --- trace-level spot check of the squarified profiles ---------------
    # Replay MM-SCAN's synthetic trace (smallest n) under each family's
    # profile expanded to per-I/O steps through the general CA machine,
    # exercising the LRU stack-distance fast path on realistic capacity
    # fluctuations.  The asserted facts are theorems — the expanded
    # profile supplies at least one I/O per reference so the run must
    # complete, and the I/O count is bracketed by the distinct-block
    # count and the reference count — so a healthy machine leaves ``ok``
    # (and the artifact) untouched.
    n0 = ns[0]
    trace = synthetic_trace(spec, n0)
    distinct = trace.distinct_blocks()
    for _name, boxes in _profiles_for(n0, seed):
        steps = np.repeat(boxes.boxes, boxes.boxes)
        reps = -(-len(trace) // int(steps.size))
        ca = simulate_ca(
            trace, MemoryProfile(np.tile(steps, reps)), policy="lru"
        )
        ok &= ca.completed and distinct <= ca.io_count <= len(trace)

    result.metrics["reproduced"] = ok
    result.verdict = (
        "REPRODUCED: every natural pattern stays bounded; the gap needs "
        "an adversary synchronized to the recursion"
        if ok
        else "MISMATCH: a natural pattern shows growth"
    )
    return result.finalize(quick=quick, seed=seed)
