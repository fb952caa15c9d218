"""Experiment ``ablation`` — sensitivity of the results to modelling choices.

DESIGN.md fixes three modelling knobs the paper leaves implicit; this
experiment ablates each, with the adversary *matched* to the algorithm it
attacks (the paper converts every ``(a,b,1)`` algorithm to trailing-scan
form precisely so one adversary fits all — here we build the
per-placement adversary instead and check the gap survives):

1. **Scan placement.**  END: the canonical gap, ratio exactly
   ``log₄n+1``.  SPLIT: still logarithmic, with slope exactly
   ``(a+1)^{1-e}`` (the split dilutes each box's potential).  FRONT: the
   matched adversary's box lands at the *start* of its node, which is
   exactly where the κ=1 normalization is most generous (the box
   swallows the node), so the gap needs the constant-faithful κ=b
   semantics — the same model boundary as the order perturbation.
2. **Box semantics.**  simplified and recursive agree exactly on the
   adversary (every box exactly consumed) and both show i.i.d.
   adaptivity; greedy keeps the gap but breaks i.i.d. adaptivity — a
   known artifact (it denies divide-and-conquer its block reuse, so a
   size-``s`` box does ``s`` work instead of ``s^e``), documenting why
   the simplified/recursive semantics are the right ones.
3. **Completion divisor κ ∈ {1, 2, b}.**  The adversarial gap is
   κ-insensitive; i.i.d. constants shift with κ but stay bounded.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.library import MM_SCAN
from repro.algorithms.spec import ScanPlacement
from repro.analysis.adaptivity import RatioSeries
from repro.analysis.smoothing import iid_ratio_trials
from repro.experiments.common import ExperimentResult, RunArtifact
from repro.profiles.distributions import UniformPowers
from repro.profiles.sources import cycled, sampled
from repro.profiles.worst_case import matched_worst_case_profile
from repro.simulation.symbolic import SymbolicSimulator
from repro.util.rng import spawn

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "run"]

EXPERIMENT_ID = "ablation"
TITLE = "Ablations: scan placement, box semantics, completion divisor"
CLAIM = (
    "With the adversary matched to the algorithm, the gap and its i.i.d. "
    "closure survive every modelling knob; the two knob settings that "
    "break it (FRONT at kappa=1, greedy iid) are documented model artifacts"
)


def _adversary_ratio(spec, n, model, kappa):
    profile = matched_worst_case_profile(spec, n)
    sim = SymbolicSimulator(spec, n, model=model, completion_divisor=kappa)
    rec = sim.run_to_completion(cycled(profile))
    return rec.adaptivity_ratio


def run(quick: bool = True, seed: int = 0) -> RunArtifact:
    result = ExperimentResult(EXPERIMENT_ID, TITLE, CLAIM)
    ks = range(2, 6 if quick else 8)
    ns = [4**k for k in ks]
    trials = 6 if quick else 20
    dist = UniformPowers(4, 1, 5)
    ok = True

    # --- 1. scan placement (with matched adversaries) ---------------------
    # (placement, kappa, expected growth on the matched adversary)
    placement_cases = [
        (ScanPlacement.END, 1, "logarithmic"),
        (ScanPlacement.SPLIT, 1, "logarithmic"),
        (ScanPlacement.FRONT, 1, "constant"),  # κ=1 model boundary
        (ScanPlacement.FRONT, MM_SCAN.b, "logarithmic"),
    ]
    rows = []
    for placement, kappa, expected in placement_cases:
        spec = MM_SCAN.with_placement(placement)
        wc = [_adversary_ratio(spec, n, "recursive", kappa) for n in ns]
        series = RatioSeries(tuple(ns), tuple(wc), base=4.0)
        agree = series.verdict == expected
        ok &= agree
        rows.append(
            (placement, f"κ={kappa}", wc[-1], series.log_slope, series.verdict,
             expected, agree)
        )
    result.add_table(
        "scan placement vs its matched adversary "
        "(SPLIT slope = (a+1)^(1-e) = 1/3 exactly)",
        ["placement", "model", "ratio@max n", "slope", "measured", "expected",
         "agree"],
        rows,
    )

    # --- 2. box semantics ----------------------------------------------------
    model_cases = [
        ("simplified", "logarithmic", "constant"),
        ("recursive", "logarithmic", "constant"),
        ("greedy", "logarithmic", "logarithmic"),  # no-reuse artifact
    ]
    rows = []
    for model, gap_expected, iid_expected in model_cases:
        wc = [_adversary_ratio(MM_SCAN, n, model, 1) for n in ns]
        iid = []
        for n in ns:
            vals = []
            for g in spawn(seed, trials):
                sim = SymbolicSimulator(MM_SCAN, n, model=model)
                vals.append(sim.run_to_completion(sampled(dist, g)).adaptivity_ratio)
            iid.append(float(np.mean(vals)))
        wc_series = RatioSeries(tuple(ns), tuple(wc), base=4.0)
        iid_series = RatioSeries(tuple(ns), tuple(iid), base=4.0)
        agree = (
            wc_series.verdict == gap_expected and iid_series.verdict == iid_expected
        )
        ok &= agree
        if model in ("simplified", "recursive"):
            ok &= all(abs(w - (k + 1)) < 1e-9 for w, k in zip(wc, ks))
        rows.append(
            (model, wc[-1], wc_series.verdict, round(iid[-1], 3),
             iid_series.verdict, iid_expected, agree)
        )
    result.add_table(
        "box semantics (greedy's iid growth is the documented no-reuse artifact)",
        ["model", "adversary", "growth", "iid", "iid growth", "iid expected",
         "agree"],
        rows,
    )

    # --- 3. completion divisor ------------------------------------------------
    rows = []
    for kappa in (1, 2, MM_SCAN.b):
        wc = [_adversary_ratio(MM_SCAN, n, "recursive", kappa) for n in ns]
        iid = [
            float(
                iid_ratio_trials(
                    MM_SCAN, n, dist, trials=trials, rng=seed,
                    completion_divisor=kappa,
                ).mean()
            )
            for n in ns
        ]
        series = RatioSeries(tuple(ns), tuple(wc), base=4.0)
        agree = series.verdict == "logarithmic"
        ok &= agree
        rows.append(
            (f"κ={kappa}", wc[-1], series.verdict, round(iid[-1], 3), agree)
        )
    result.add_table(
        "completion divisor: the adversarial gap is κ-insensitive "
        "(iid constants shift with κ, staying bounded)",
        ["κ", "adversary", "growth", "iid@max n", "gap holds"],
        rows,
    )

    result.metrics["reproduced"] = ok
    result.verdict = (
        "ROBUST: gap and closure survive placement, semantics, and κ, with "
        "the two documented boundary artifacts behaving exactly as predicted"
        if ok
        else "SENSITIVE: see tables"
    )
    return result.finalize(quick=quick, seed=seed)
