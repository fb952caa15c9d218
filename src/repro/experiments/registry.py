"""Experiment registry: every claim of the paper, runnable by id.

``EXPERIMENTS`` maps ids to modules exposing
``run(quick=True, seed=0) -> RunArtifact``.  The registry itself is pure
dispatch; timing, instrumentation, parallel execution, and caching live
in :mod:`repro.runtime.runner`, which the CLI (``python -m repro``), the
daemon, and the :mod:`repro.api` façade all share.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Callable

from repro.experiments import (
    exp_ablation,
    exp_degenerate_smoothing,
    exp_eq8_product,
    exp_explicit_adaptivity,
    exp_gap_theorem2,
    exp_iid_theorem1,
    exp_mm_completion,
    exp_nocatchup_lemma2,
    exp_order_perturbation,
    exp_potential_lemma1,
    exp_randomized_algorithm,
    exp_realistic_profiles,
    exp_recurrence_lemma3,
    exp_regime_sweep,
    exp_scan_hiding,
    exp_shift_perturbation,
    exp_shuffle_closes_gap,
    exp_size_perturbation,
    exp_trace_crosscheck,
    fig1_worst_case_profile,
)
from repro.runtime.artifact import RunArtifact

__all__ = ["Experiment", "EXPERIMENTS"]


@dataclass(frozen=True)
class Experiment:
    """A registered experiment."""

    experiment_id: str
    title: str
    claim: str
    runner: Callable[..., RunArtifact]


def _register(module: ModuleType) -> Experiment:
    return Experiment(
        experiment_id=module.EXPERIMENT_ID,
        title=module.TITLE,
        claim=module.CLAIM,
        runner=module.run,
    )


_MODULES = [
    fig1_worst_case_profile,
    exp_gap_theorem2,
    exp_mm_completion,
    exp_iid_theorem1,
    exp_recurrence_lemma3,
    exp_eq8_product,
    exp_size_perturbation,
    exp_shift_perturbation,
    exp_order_perturbation,
    exp_shuffle_closes_gap,
    exp_potential_lemma1,
    exp_nocatchup_lemma2,
    exp_regime_sweep,
    exp_scan_hiding,
    exp_trace_crosscheck,
    exp_randomized_algorithm,
    exp_degenerate_smoothing,
    exp_ablation,
    exp_realistic_profiles,
    exp_explicit_adaptivity,
]

EXPERIMENTS: dict[str, Experiment] = {
    mod.EXPERIMENT_ID: _register(mod) for mod in _MODULES
}

