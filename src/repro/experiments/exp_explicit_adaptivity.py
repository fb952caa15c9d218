"""Experiment ``oracle`` — explicit adaptation vs smoothed obliviousness.

Related Work frames the design space: Barve–Vitter-style algorithms adapt
*explicitly* (they watch the cache and reorganize their computation);
cache-oblivious algorithms cannot, and pay the worst-case log — unless the
profile is smoothed, which is the paper's contribution.  This experiment
puts all three on the same adversary:

* the oblivious MM-SCAN pays ``log₄ n + 1`` (exactly);
* the explicitly adaptive executor (same dependency structure, free to
  reorder commuting siblings and defer subtrees) stays at a small
  constant *on the adversarial ordering itself* — explicit adaptation
  needs no smoothing;
* the oblivious algorithm on the *shuffled* adversary matches it — the
  paper's point that smoothing buys obliviousness what explicitness buys.

The adaptive executor also completes Θ(log n) back-to-back multiplies on
the finite adversary (like MM-INPLACE in Section 3) where oblivious
MM-SCAN fits exactly one.
"""

from __future__ import annotations

from repro.algorithms.library import MM_SCAN
from repro.analysis.adaptivity import RatioSeries, worst_case_ratio
from repro.analysis.smoothing import shuffled_worst_case_trials
from repro.experiments.common import ExperimentResult, RunArtifact
from repro.profiles.sources import cycled
from repro.profiles.worst_case import worst_case_profile
from repro.simulation.adaptive import run_adaptive

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "run"]

EXPERIMENT_ID = "oracle"
TITLE = "Explicit adaptation (Barve–Vitter style) vs smoothed obliviousness"
CLAIM = (
    "An explicitly adaptive executor achieves O(1) ratio on the very "
    "adversary that costs the oblivious algorithm Theta(log n); smoothing "
    "gives the oblivious algorithm the same — without watching the cache"
)


def run(quick: bool = True, seed: int = 0) -> RunArtifact:
    result = ExperimentResult(EXPERIMENT_ID, TITLE, CLAIM)
    spec = MM_SCAN
    ks = range(2, 6 if quick else 8)
    ns = [4**k for k in ks]
    trials = 8 if quick else 25

    rows = []
    adaptive_ratios = []
    shuffled_means = []
    completions = []
    for n in ns:
        profile = worst_case_profile(spec.a, spec.b, n)
        adaptive = run_adaptive(spec, n, cycled(profile))
        assert adaptive.completed
        shuffled = shuffled_worst_case_trials(spec, n, trials=trials, rng=seed)
        adaptive_ratios.append(adaptive.adaptivity_ratio)
        shuffled_means.append(float(shuffled.mean()))
        # repeated executions of the adaptive executor on the same finite
        # profile: count how many full multiplies fit
        count = 0
        box_iter = iter(profile)
        remaining = True
        while remaining:
            rec = run_adaptive(spec, n, box_iter)
            if rec.completed:
                count += 1
            else:
                remaining = False
        completions.append(count)
        rows.append(
            (
                n,
                worst_case_ratio(spec, n),
                adaptive.adaptivity_ratio,
                float(shuffled.mean()),
                count,
            )
        )
    result.add_table(
        "the same adversarial boxes, three ways",
        ["n", "oblivious (adversarial)", "adaptive (adversarial)",
         "oblivious (shuffled)", "adaptive completions on M(n)"],
        rows,
    )

    s_adaptive = RatioSeries(tuple(ns), tuple(adaptive_ratios), base=4.0)
    s_shuffled = RatioSeries(tuple(ns), tuple(shuffled_means), base=4.0)
    comparable = all(
        ad <= 1.5 * sh + 0.5 for ad, sh in zip(adaptive_ratios, shuffled_means)
    )
    # the adaptive executor fits a growing number of multiplies into the
    # finite adversary (Θ(log n), with a smaller constant than MM-INPLACE
    # because it still performs the scan work), where the oblivious
    # MM-SCAN always fits exactly one
    log_completions = (
        completions == sorted(completions) and completions[-1] >= completions[0] + 2
    )
    ok = (
        s_adaptive.verdict == "constant"
        and s_shuffled.verdict == "constant"
        and comparable
        and log_completions
    )
    result.add_table(
        "growth classification",
        ["series", "log-slope", "verdict", "expected"],
        [
            ("adaptive on adversary", s_adaptive.log_slope, s_adaptive.verdict,
             "constant"),
            ("oblivious on shuffle", s_shuffled.log_slope, s_shuffled.verdict,
             "constant"),
        ],
    )
    result.metrics.update(
        {
            "adaptive_slope": s_adaptive.log_slope,
            "adaptive_final_ratio": adaptive_ratios[-1],
            "completions": completions,
            "reproduced": ok,
        }
    )
    result.notes = (
        "Extension contextualizing Related Work: explicit adaptation and "
        "smoothed obliviousness land at comparable constants; the paper's "
        "contribution is getting there without the algorithm ever reading "
        "the cache size."
    )
    result.verdict = (
        "SUPPORTED: explicit adaptation flattens the adversary; smoothing "
        "matches it obliviously"
        if ok
        else "MIXED: see tables"
    )
    return result.finalize(quick=quick, seed=seed)
