"""Smoothing scenarios: the paper's positive result and three negative ones.

Each scenario runs an ``(a,b,c)``-regular algorithm against a smoothed
version of the adversarial profile and reports realized adaptivity ratios
(``sum min(n, |box|)**e / n**e`` over the boxes actually consumed):

* :func:`iid_ratio_trials` — boxes i.i.d. from any Σ (Theorem 1: ratio
  stays O(1) in expectation, for *any* Σ);
* :func:`shuffled_worst_case_trials` — the headline contrast: the
  worst-case profile's own box multiset, in random order;
* :func:`size_perturbation_trials` — boxes of the (limit) worst-case
  profile scaled by i.i.d. multipliers in ``[0, t]`` (stays worst-case);
* :func:`start_shift_trials` — random cyclic start time in the worst-case
  profile (stays worst-case);
* :func:`order_perturbation_trials` — the big box of each recursive node
  placed after a random copy (stays worst-case w.p. 1).

All sources are infinite box sources (:mod:`repro.profiles.sources`:
profiles repeat or are re-drawn) so executions always complete, on the
chunked fast path; ratios measure only what was consumed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.algorithms.spec import RegularSpec
from repro.profiles.distributions import BoxDistribution, Empirical
from repro.profiles.perturbations import (
    MultiplierSampler,
    random_start_shift,
)
from repro.profiles.sources import (
    BoxSource,
    cycled,
    order_perturbed,
    perturbed_limit,
    sampled,
)
from repro.profiles.worst_case import order_perturbed_profile, worst_case_profile
from repro.simulation.symbolic import SymbolicSimulator
from repro.util.rng import spawn

__all__ = [
    "iid_ratio_trials",
    "shuffled_worst_case_trials",
    "size_perturbation_trials",
    "start_shift_trials",
    "order_perturbation_trials",
]


def _ratios(values: list[float]) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _run_source(
    spec: RegularSpec, n: int, source: BoxSource, completion_divisor: int = 1
) -> float:
    sim = SymbolicSimulator(spec, n, completion_divisor=completion_divisor)
    rec = sim.run_to_completion(source)
    return rec.adaptivity_ratio


def iid_ratio_trials(
    spec: RegularSpec,
    n: int,
    dist: BoxDistribution,
    trials: int,
    rng: object = None,
    completion_divisor: int = 1,
) -> np.ndarray:
    """Adaptivity ratios of ``trials`` runs on i.i.d. boxes from ``dist``."""
    gens = spawn(rng, trials)
    return _ratios(
        [_run_source(spec, n, sampled(dist, g), completion_divisor) for g in gens]
    )


def shuffled_worst_case_trials(
    spec: RegularSpec,
    n: int,
    trials: int,
    rng: object = None,
    profile_n: int | None = None,
    completion_divisor: int = 1,
) -> np.ndarray:
    """Random-order worst-case boxes: shuffle the box multiset of
    ``M_{a,b}(profile_n)`` (default ``profile_n = n``); if a run outlasts
    the multiset, it continues with i.i.d. draws from the multiset's
    empirical distribution (the same smoothing in the limit)."""
    profile_n = n if profile_n is None else profile_n
    base = worst_case_profile(spec.a, spec.b, profile_n, spec.base_size)
    empirical = Empirical.of_profile(base, name="empirical-worst-case")
    gens = spawn(rng, trials)
    out = []
    for g in gens:
        source = sampled(empirical, g, head=g.permutation(base.boxes))
        out.append(_run_source(spec, n, source, completion_divisor))
    return _ratios(out)


def size_perturbation_trials(
    spec: RegularSpec,
    n: int,
    multipliers: MultiplierSampler,
    trials: int,
    rng: object = None,
    completion_divisor: int = 1,
) -> np.ndarray:
    """Ratios under i.i.d. multiplicative box-size perturbation of the
    worst-case limit profile (the paper: remains worst-case in
    expectation)."""
    gens = spawn(rng, trials)
    return _ratios(
        [
            _run_source(
                spec,
                n,
                perturbed_limit(spec.a, spec.b, spec.base_size, multipliers, g),
                completion_divisor,
            )
            for g in gens
        ]
    )


def start_shift_trials(
    spec: RegularSpec,
    n: int,
    trials: int,
    rng: object = None,
    profile_n: int | None = None,
    completion_divisor: int = 1,
) -> np.ndarray:
    """Ratios when the algorithm starts at a uniformly random time in the
    cyclic worst-case profile ``M_{a,b}(profile_n)`` (repeating forever)."""
    profile_n = n if profile_n is None else profile_n
    base = worst_case_profile(spec.a, spec.b, profile_n, spec.base_size)
    gens = spawn(rng, trials)
    out = []
    for g in gens:
        source = cycled(base, first=random_start_shift(base, g))
        out.append(_run_source(spec, n, source, completion_divisor))
    return _ratios(out)


def order_perturbation_trials(
    spec: RegularSpec,
    n: int,
    trials: int,
    rng: object = None,
    adversarial_position: int | None = None,
    completion_divisor: int = 1,
) -> np.ndarray:
    """Ratios under box-order perturbation: each recursive node's big box
    is placed after a random copy (or a fixed ``adversarial_position``).
    Runs continue into fresh independently perturbed profiles if needed."""
    if adversarial_position is not None and not 1 <= adversarial_position <= spec.a:
        raise SimulationError(
            f"adversarial_position must be in [1, {spec.a}]"
        )
    gens = spawn(rng, trials)
    fixed: BoxSource | None = None
    if adversarial_position is not None:
        # A fixed position draws nothing, so every fresh profile is this one.
        position = adversarial_position
        fixed = cycled(
            order_perturbed_profile(
                spec.a,
                spec.b,
                n,
                spec.base_size,
                position_rule=lambda size, path: position,
            )
        )
    out = []
    for g in gens:
        source = (
            fixed
            if fixed is not None
            else order_perturbed(spec.a, spec.b, n, spec.base_size, rng=g)
        )
        out.append(_run_source(spec, n, source, completion_divisor))
    return _ratios(out)
