"""Monte-Carlo estimation for cache-adaptivity in expectation.

Definition 3 of the paper defines adaptivity over a *distribution* of
profiles through an expectation; this module estimates those expectations
by simulation with proper confidence intervals, and is cross-validated in
the experiments against the exact recurrence solver
(:mod:`repro.analysis.recurrence`).

Trials are embarrassingly parallel: :func:`estimate_expected_cost` accepts
``n_jobs`` to fan independent trials out over a process pool.  Trial ``t``
draws its boxes from the addressed plane ``(root_seed, "mc", t)`` of a
:class:`~repro.util.rng.ReplayableStream` — a pure function of the seed
and the trial index — so estimates are bit-identical at *any* worker
count, including ``n_jobs=1`` (pinned in
``tests/simulation/test_replay.py``).  Simulators are memoized per
process and reset between trials, which amortizes the cursor's
closed-form table warm-up across all trials of one spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from concurrent.futures import ProcessPoolExecutor

from repro.errors import SimulationError
from repro.algorithms.spec import RegularSpec
from repro.profiles.distributions import BoxDistribution
from repro.runtime.instrumentation import record as _record
from repro.simulation.fastpath import is_chunkable, run_sampled
from repro.simulation.symbolic import SymbolicSimulator
from repro.util.rng import ReplayableStream, as_generator, spawn

__all__ = ["MCEstimate", "estimate", "sample_boxes_to_complete", "estimate_expected_cost"]


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with a t-based confidence interval."""

    mean: float
    std: float
    trials: int
    confidence: float

    @property
    def stderr(self) -> float:
        return self.std / math.sqrt(self.trials) if self.trials else float("nan")

    @property
    def ci_halfwidth(self) -> float:
        if self.trials < 2:
            return float("inf")
        # Imported here, its only use: ``scipy.stats`` takes about a
        # second to import, and a process that builds no interval (a
        # warm run, a daemon boot) should not pay for it.
        from scipy import stats

        t = stats.t.ppf(0.5 + self.confidence / 2.0, df=self.trials - 1)
        return float(t) * self.stderr

    @property
    def ci(self) -> tuple[float, float]:
        h = self.ci_halfwidth
        return (self.mean - h, self.mean + h)

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.ci_halfwidth:.3g} ({self.trials} trials)"


def estimate(
    sample_fn: Callable[[np.random.Generator], float],
    trials: int,
    rng: object = None,
    confidence: float = 0.95,
) -> MCEstimate:
    """Estimate ``E[sample_fn]`` from independent trials.

    Each trial gets an independently spawned generator, so results are
    reproducible from a single seed and independent across trials.
    """
    if trials < 1:
        raise SimulationError(f"trials must be >= 1, got {trials}")
    if not 0.0 < confidence < 1.0:
        raise SimulationError(f"confidence must be in (0,1), got {confidence}")
    gens = spawn(rng, trials)
    values = np.asarray([float(sample_fn(g)) for g in gens], dtype=np.float64)
    _record("mc.estimates")
    _record("mc.trials", trials)
    return MCEstimate(
        mean=float(values.mean()),
        std=float(values.std(ddof=1)) if trials > 1 else 0.0,
        trials=trials,
        confidence=confidence,
    )


# One simulator per (spec, n, model), reset between trials: resets share
# the cursor's closed-form lookup tables, so only the first trial in a
# process pays the warm-up.  Bounded — estimation sweeps touch a handful
# of combinations per process.
_SIM_MEMO: "dict[tuple[RegularSpec, int, str], SymbolicSimulator]" = {}
_SIM_MEMO_MAX = 32


def _sim_for(spec: RegularSpec, n: int, model: str) -> SymbolicSimulator:
    key = (spec, n, model)
    sim = _SIM_MEMO.get(key)
    if sim is None:
        if len(_SIM_MEMO) >= _SIM_MEMO_MAX:
            _SIM_MEMO.clear()  # repro-lint: disable=effect-global-mutation
        sim = SymbolicSimulator(spec, n, model=model)
        _SIM_MEMO[key] = sim  # repro-lint: disable=effect-global-mutation
    else:
        sim.reset()
    return sim


def _trial_record(
    spec: RegularSpec,
    n: int,
    dist: BoxDistribution,
    model: str,
    rng: object,
    fastpath: bool | None,
):
    """One completed run on i.i.d. boxes from ``dist``.

    With a :class:`ReplayableStream`, box ``i`` of the trial is addressed
    at index ``i`` of the stream's plane — the scalar sampler and the
    chunked :func:`repro.simulation.fastpath.run_sampled` consume
    *provably* identical boxes, whatever their batching.  With a
    positional generator (legacy), the fast path draws the same sample
    batches in the same order as the scalar sampler, which is equivalent
    only because the batching matches exactly.  ``fastpath=False``
    forces the scalar loop, ``True`` requires the batched one.
    """
    sim = _sim_for(spec, n, model)
    if fastpath is None:
        fastpath = is_chunkable(sim)
    if isinstance(rng, ReplayableStream):
        if fastpath:
            rec = run_sampled(sim, dist, rng)
            if not rec.completed:
                raise SimulationError("sampled run did not complete")
            return rec
        return sim.run_to_completion(dist.sampler_at(rng))
    if fastpath:
        rec = run_sampled(sim, dist, as_generator(rng))
        if not rec.completed:
            raise SimulationError("sampled run did not complete")
        return rec
    return sim.run_to_completion(dist.sampler(rng))


def sample_boxes_to_complete(
    spec: RegularSpec,
    n: int,
    dist: BoxDistribution,
    gen: np.random.Generator,
    model: str = "simplified",
    fastpath: bool | None = None,
) -> int:
    """One sample of ``S_n``: the number of i.i.d. boxes from ``dist``
    needed to complete a size-``n`` execution."""
    rec = _trial_record(spec, n, dist, model, gen, fastpath)
    return rec.boxes_used


def _one_cost_trial(args) -> tuple[float, float]:
    """Top-level worker (picklable) for one expected-cost trial."""
    spec, n, dist, model, seed, fastpath = args
    rec = _trial_record(spec, n, dist, model, seed, fastpath)
    return float(rec.boxes_used), float(rec.adaptivity_ratio)


def estimate_expected_cost(
    spec: RegularSpec,
    n: int,
    dist: BoxDistribution,
    trials: int,
    rng: object = None,
    model: str = "simplified",
    confidence: float = 0.95,
    n_jobs: int = 1,
    fastpath: bool | None = None,
) -> tuple[MCEstimate, MCEstimate]:
    """Estimate Definition 3's expectation by simulation.

    Returns ``(boxes, cost_ratio)`` where ``boxes`` estimates ``E[S_n]``
    (the expected number of boxes to complete, the paper's ``f(n)``) and
    ``cost_ratio`` estimates
    ``E[sum_{i<=S_n} min(n, |box_i|)**e] / n**e`` —
    the quantity that must stay ``O(1)`` for adaptivity in expectation.

    Trial ``t`` draws box ``i`` at index ``i`` of the addressed plane
    ``(root_seed, "mc", t)`` — a pure function of the seed, the trial,
    and the box index — so the estimates are **bit-identical at any
    ``n_jobs``**, serial included (``rng`` as an int seed, a
    :class:`~repro.util.rng.ReplayableStream`, or None, which means
    seed 0).  Passing a raw ``numpy`` Generator keeps the legacy
    positional consumption (serial only).

    Trials consume sampled boxes through the chunked fast path whenever
    it is bit-identical to the per-box sampler loop (see
    :func:`repro.simulation.fastpath.run_sampled`); ``fastpath=False``
    forces the scalar loop.  Estimates are identical either way.
    """
    if trials < 1:
        raise SimulationError(f"trials must be >= 1, got {trials}")
    if n_jobs < 1:
        raise SimulationError(f"n_jobs must be >= 1, got {n_jobs}")
    boxes = np.empty(trials, dtype=np.float64)
    ratios = np.empty(trials, dtype=np.float64)
    if isinstance(rng, ReplayableStream):
        root = rng
    elif rng is None or isinstance(rng, (int, np.integer)):
        root = ReplayableStream(0 if rng is None else int(rng), "mc")
    else:
        root = None  # legacy positional generator
    if root is not None:
        streams = [root.for_trial(t) for t in range(trials)]
        if n_jobs > 1:
            work = [(spec, n, dist, model, ts, fastpath) for ts in streams]
            with ProcessPoolExecutor(max_workers=n_jobs) as pool:
                for i, (b, r) in enumerate(
                    pool.map(_one_cost_trial, work, chunksize=8)
                ):
                    boxes[i] = b
                    ratios[i] = r
        else:
            for i, ts in enumerate(streams):
                rec = _trial_record(spec, n, dist, model, ts, fastpath)
                boxes[i] = rec.boxes_used
                ratios[i] = rec.adaptivity_ratio
    else:
        if n_jobs > 1:
            raise SimulationError(
                "parallel estimation needs an int seed, a ReplayableStream, "
                "or None for rng (positional generators cannot be "
                "partitioned deterministically)"
            )
        gens = spawn(rng, trials)
        for i, gen in enumerate(gens):
            rec = _trial_record(spec, n, dist, model, gen, fastpath)
            boxes[i] = rec.boxes_used
            ratios[i] = rec.adaptivity_ratio

    def mk(values: np.ndarray) -> MCEstimate:
        return MCEstimate(
            mean=float(values.mean()),
            std=float(values.std(ddof=1)) if trials > 1 else 0.0,
            trials=trials,
            confidence=confidence,
        )

    # One estimation = one counter tick, matching estimate(); the two
    # MCEstimates come from the same trial set.
    _record("mc.estimates")
    _record("mc.trials", trials)
    return mk(boxes), mk(ratios)
