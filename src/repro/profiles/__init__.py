"""Memory profiles: square profiles, worst-case constructions,
smoothing perturbations, box-size distributions, profile generators, and
the chunked box sources the simulator consumes.

See Section 2 of the paper (square profiles, Definition 1), Section 3
(the worst-case profile of Figure 1), and Section 4 (the smoothings).
"""

from repro.profiles.base import MemoryProfile
from repro.profiles.distributions import (
    BoxDistribution,
    Empirical,
    GeometricPowers,
    Mixture,
    ParetoPowers,
    PointMass,
    UniformPowers,
    UniformRange,
)
from repro.profiles.generators import (
    constant_boxes,
    phase_profile,
    random_walk_profile,
    sawtooth_profile,
    winner_take_all_profile,
)
from repro.profiles.perturbations import (
    discrete_multipliers,
    random_start_shift,
    shuffle,
    size_perturbation,
    start_time_shift,
    uniform_multipliers,
)
from repro.profiles.reduction import inscribed_box_at, squarify
from repro.profiles.runs import BoxRuns
from repro.profiles.sources import (
    BoxSource,
    as_box_source,
    cycled,
    order_perturbed,
    perturbed_limit,
    sampled,
)
from repro.profiles.square import SquareProfile, as_box_iter
from repro.profiles.worst_case import (
    limit_profile_boxes,
    matched_worst_case_profile,
    order_perturbed_profile,
    worst_case_bounded_potential,
    worst_case_box_count,
    worst_case_boxes,
    worst_case_potential,
    worst_case_profile,
    worst_case_runs,
    worst_case_total_time,
)

__all__ = [
    "MemoryProfile",
    "BoxRuns",
    "BoxSource",
    "SquareProfile",
    "as_box_source",
    "cycled",
    "sampled",
    "perturbed_limit",
    "order_perturbed",
    "as_box_iter",
    "BoxDistribution",
    "PointMass",
    "UniformPowers",
    "GeometricPowers",
    "ParetoPowers",
    "UniformRange",
    "Empirical",
    "Mixture",
    "constant_boxes",
    "sawtooth_profile",
    "winner_take_all_profile",
    "random_walk_profile",
    "phase_profile",
    "uniform_multipliers",
    "discrete_multipliers",
    "size_perturbation",
    "start_time_shift",
    "random_start_shift",
    "shuffle",
    "inscribed_box_at",
    "squarify",
    "limit_profile_boxes",
    "matched_worst_case_profile",
    "order_perturbed_profile",
    "worst_case_bounded_potential",
    "worst_case_box_count",
    "worst_case_boxes",
    "worst_case_potential",
    "worst_case_profile",
    "worst_case_runs",
    "worst_case_total_time",
]
