"""Experiment ``randomized`` — the paper's concluding open question.

"Could randomized algorithms also overcome worst-case profiles and result
in cache-adaptivity?"  We randomize the one scheduling freedom
Definition 2 grants the algorithm — where in the node each scan runs —
and race the randomized MM-SCAN against the canonical adversary
``M_{8,4}(n)`` (which is tailored to trailing scans).

Measured answer (for this adversary): *yes* — with per-node random scan
placement the ratio stops growing, under all three randomizers (single
random slot, multinomial split, front/back coin flip) and under both the
generous (κ=1) and constant-faithful (κ=b) box semantics, while the
deterministic algorithm pays the full ``log₄ n + 1``.  (This does not
contradict the paper's negative results, which perturb the *profile*
around a deterministic algorithm; here the *algorithm* denies the fixed
adversary its alignment.  Whether an adversary aware of the distribution
over executions can still win is the remaining open half.)
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.library import MM_SCAN
from repro.algorithms.randomized import (
    coin_flip_placement,
    random_slot_placement,
    random_split_placement,
)
from repro.analysis.adaptivity import RatioSeries, worst_case_ratio
from repro.experiments.common import ExperimentResult, RunArtifact
from repro.profiles.sources import cycled
from repro.profiles.worst_case import worst_case_profile
from repro.simulation.symbolic import SymbolicSimulator
from repro.util.rng import fixed_seeds

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "run"]

EXPERIMENT_ID = "randomized"
TITLE = "Open question: randomized scan placement vs the worst-case profile"
CLAIM = (
    "Per-node random scan placement de-synchronizes the canonical "
    "adversary: the randomized algorithm's ratio stays O(1) where the "
    "deterministic one pays Theta(log n)"
)

_RANDOMIZERS = {
    "random slot": random_slot_placement,
    "multinomial split": random_split_placement,
    "front/back coin": coin_flip_placement,
}


def _mean_ratio(spec, n, factory, trials, seed, completion_divisor):
    profile = worst_case_profile(spec.a, spec.b, n, spec.base_size)
    vals = []
    for s in fixed_seeds(seed, trials):
        sim = SymbolicSimulator(
            spec,
            n,
            model="recursive",
            completion_divisor=completion_divisor,
            scan_randomizer=factory(spec, s),
        )
        rec = sim.run_to_completion(cycled(profile))
        vals.append(rec.adaptivity_ratio)
    return float(np.mean(vals)), float(np.max(vals))


def run(quick: bool = True, seed: int = 0) -> RunArtifact:
    result = ExperimentResult(EXPERIMENT_ID, TITLE, CLAIM)
    spec = MM_SCAN
    ks = range(2, 6 if quick else 8)
    ns = [4**k for k in ks]
    trials = 6 if quick else 20

    ok = True
    verdict_rows = []
    for kappa, kappa_label in ((1, "κ=1"), (spec.b, "κ=b")):
        series: dict[str, list[float]] = {name: [] for name in _RANDOMIZERS}
        maxima: dict[str, list[float]] = {name: [] for name in _RANDOMIZERS}
        rows = []
        for n in ns:
            row = [n, worst_case_ratio(spec, n)]
            for name, factory in _RANDOMIZERS.items():
                mean, worst_trial = _mean_ratio(spec, n, factory, trials, seed, kappa)
                series[name].append(mean)
                maxima[name].append(worst_trial)
                row.append(mean)
            rows.append(tuple(row))
        result.add_table(
            f"{kappa_label}: mean ratio on M_{{8,4}}(n), deterministic vs randomized",
            ["n", "deterministic"] + list(_RANDOMIZERS),
            rows,
        )
        for name in _RANDOMIZERS:
            rs = RatioSeries(tuple(ns), tuple(series[name]), base=4.0)
            rs_max = RatioSeries(tuple(ns), tuple(maxima[name]), base=4.0)
            flat = rs.verdict == "constant" and rs_max.verdict == "constant"
            ok &= flat
            verdict_rows.append(
                (kappa_label, name, rs.log_slope, rs.verdict, rs_max.verdict)
            )

    result.add_table(
        "growth classification of the randomized algorithm",
        ["model", "randomizer", "mean log-slope", "mean verdict", "max verdict"],
        verdict_rows,
    )
    result.metrics["reproduced"] = ok
    result.notes = (
        "Extension beyond the paper: answers its concluding open question "
        "affirmatively against the fixed canonical adversary. The adversary "
        "here is oblivious to the algorithm's coins; a distribution-aware "
        "adversary remains open."
    )
    result.verdict = (
        "SUPPORTED: every randomizer flattens the ratio that the "
        "deterministic algorithm pays logarithmically"
        if ok
        else "MIXED: some randomizer still shows growth"
    )
    return result.finalize(quick=quick, seed=seed)
