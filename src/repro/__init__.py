"""repro — cache-adaptive analysis toolkit.

A from-scratch reproduction of *"Closing the Gap Between Cache-oblivious
and Cache-adaptive Analysis"* (Bender et al., SPAA 2020): simulators for
the cache-adaptive model, ``(a,b,c)``-regular algorithm machinery, memory
profiles (including the adversarial worst case and its smoothings), exact
expected-stopping-time solvers, and the experiment registry that
regenerates every claim of the paper.

Quick start::

    from repro import MM_SCAN, worst_case_profile, SymbolicSimulator

    profile = worst_case_profile(8, 4, 4**6)
    sim = SymbolicSimulator(MM_SCAN, 4**6)
    record = sim.run(profile)
    print(record.adaptivity_ratio)   # ~ log_4(n): the worst-case gap

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record.
"""

from repro.errors import (
    DistributionError,
    ExperimentError,
    MachineError,
    ProfileError,
    ReproError,
    SimulationError,
    SpecError,
    TraceError,
)
from repro.algorithms import (
    BINARY_ADAPTIVE,
    FLOYD_WARSHALL,
    GEP,
    LCS,
    MERGE_SORT,
    MM_INPLACE,
    MM_SCAN,
    NAMED_SPECS,
    SQRT_SCAN,
    STRASSEN,
    ExecutionCursor,
    RegularSpec,
    ScanPlacement,
    Trace,
    TraceRecorder,
    get_spec,
    synthetic_trace,
)
from repro.profiles import (
    BoxDistribution,
    Empirical,
    GeometricPowers,
    MemoryProfile,
    Mixture,
    ParetoPowers,
    PointMass,
    SquareProfile,
    UniformPowers,
    UniformRange,
    order_perturbed_profile,
    random_start_shift,
    shuffle,
    size_perturbation,
    squarify,
    uniform_multipliers,
    worst_case_profile,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SpecError",
    "ProfileError",
    "DistributionError",
    "SimulationError",
    "TraceError",
    "MachineError",
    "ExperimentError",
    # algorithms
    "RegularSpec",
    "ScanPlacement",
    "ExecutionCursor",
    "Trace",
    "TraceRecorder",
    "synthetic_trace",
    "get_spec",
    "NAMED_SPECS",
    "MM_SCAN",
    "MM_INPLACE",
    "STRASSEN",
    "GEP",
    "FLOYD_WARSHALL",
    "LCS",
    "MERGE_SORT",
    "BINARY_ADAPTIVE",
    "SQRT_SCAN",
    # profiles
    "MemoryProfile",
    "SquareProfile",
    "BoxDistribution",
    "PointMass",
    "UniformPowers",
    "GeometricPowers",
    "ParetoPowers",
    "UniformRange",
    "Empirical",
    "Mixture",
    "worst_case_profile",
    "order_perturbed_profile",
    "size_perturbation",
    "random_start_shift",
    "shuffle",
    "squarify",
    "uniform_multipliers",
    # runtime (lazy)
    "RunArtifact",
    "RunManifest",
    "ExperimentRunner",
    # blessed façade (lazy; see docs/API.md)
    "api",
]


def __getattr__(name):  # pragma: no cover - thin lazy-import shim
    """Lazily expose the simulation/analysis layers to avoid import cycles
    during package initialization."""
    if name == "api":
        import importlib

        return importlib.import_module("repro.api")
    if name in ("SymbolicSimulator", "RunRecord", "run_boxes", "run_repeated"):
        from repro import simulation

        return getattr(simulation, name)
    if name in ("adaptivity_ratio", "expected_boxes", "expected_cost_ratio"):
        from repro import analysis

        return getattr(analysis, name)
    if name in ("RunArtifact", "RunManifest", "ExperimentRunner"):
        from repro import runtime

        return getattr(runtime, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
