"""The experiment runner: one instrumented path for every execution.

All consumers of the registry — the CLI, the test suite and the
``repro serve`` daemon — drive experiments through this module, so
timing, instrumentation, and artifact finalization can never drift
between them.  The canonical
entry point is :func:`execute`, which takes one typed
:class:`~repro.runtime.request.RunRequest` and returns a
:class:`~repro.runtime.request.RunResponse`.
:class:`ExperimentRunner` fans a list of experiments over a
``ProcessPoolExecutor`` (``jobs > 1``) while preserving registration
order in the results, and :class:`RunnerPool` exposes that same pool as
a persistent submit-one-request-at-a-time surface for long-running
services.

Determinism across worker counts is by construction: every experiment is
a pure function of ``(quick, seed)`` with its own RNG stream derived
from the seed (the ``util.rng`` discipline), so no state is shared
between experiments and scheduling cannot influence results — only
``wall_time_s`` differs between ``jobs=1`` and ``jobs=N`` runs (compare
with :meth:`RunArtifact.without_timing`).

That same purity makes runs *cacheable*: ``cache="auto"`` consults the
content-addressed artifact store (:mod:`repro.cache`) keyed by
``(experiment id, quick, seed, code fingerprint)`` before computing — a
warm hit returns the stored artifact (stamped ``cache_hit=True``,
``wall_time_s=0.0``, ``saved_wall_time_s=<stored compute time>``), a
miss computes and stores.  ``cache="refresh"`` recomputes and overwrites
unconditionally; ``cache="off"`` never touches the store.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from repro.errors import ExperimentError
from repro.runtime import instrumentation
from repro.runtime.artifact import RunArtifact
from repro.runtime.request import CACHE_MODES, RunRequest, RunResponse

__all__ = [
    "CACHE_MODES",
    "execute",
    "RunnerPool",
    "ExperimentRunner",
]


def _check_cache_mode(cache: str) -> None:
    if cache not in CACHE_MODES:
        raise ExperimentError(
            f"cache mode must be one of {CACHE_MODES}, got {cache!r}"
        )


def _resolve_ids(ids: Sequence[str] | None) -> list[str]:
    """Expand ``None``/``["all"]`` to the full registry, validating early
    so a parallel run fails before any worker is spawned."""
    from repro.experiments.registry import EXPERIMENTS

    if ids is None or list(ids) == ["all"]:
        return list(EXPERIMENTS)
    unknown = [eid for eid in ids if eid not in EXPERIMENTS]
    if unknown:
        raise ExperimentError(
            f"unknown experiment {unknown[0]!r}; known: {sorted(EXPERIMENTS)}"
        )
    return list(ids)


def execute(request: RunRequest) -> RunResponse:
    """Execute one :class:`RunRequest` — the single instrumented path.

    Dispatches through the registry, measures wall time with
    ``perf_counter``, collects the box/trial counters the simulation
    layer records, consults the artifact store per ``request.cache``,
    and returns a typed :class:`RunResponse` whose ``served_from`` says
    whether the artifact was a warm store read or a live computation.
    Top-level (and ``RunRequest`` is a frozen picklable dataclass) so
    process pools can call it directly.
    """
    from repro.experiments.registry import EXPERIMENTS

    try:
        exp = EXPERIMENTS[request.experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {request.experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        ) from None

    store = key = None
    if request.cache != "off":
        from repro.cache.store import Cache, cache_key_for

        store = Cache(request.cache_dir)
        key = cache_key_for(
            request.experiment_id, request.quick, request.seed, store
        )
        if request.cache == "auto":
            entry = store.get(key)
            if entry is not None:
                artifact = replace(
                    entry.artifact,
                    wall_time_s=0.0,
                    cache_hit=True,
                    saved_wall_time_s=entry.stored_wall_time_s,
                )
                return RunResponse(
                    request=request, artifact=artifact, served_from="store"
                )

    with instrumentation.collect() as counters:
        # Wall-time metadata: recorded on the artifact but excluded
        # from its bit-identity digest (timing fields are masked).
        start = time.perf_counter()  # repro-lint: disable=nondet-wallclock
        artifact = exp.runner(quick=request.quick, seed=request.seed)
        elapsed = time.perf_counter() - start  # repro-lint: disable=nondet-wallclock
    if not isinstance(artifact, RunArtifact):
        raise ExperimentError(
            f"experiment {request.experiment_id!r} returned "
            f"{type(artifact).__name__}; experiments must finalize into a "
            "RunArtifact (ExperimentResult.finalize)"
        )
    artifact = replace(
        artifact, wall_time_s=elapsed, counters=counters.as_dict()
    )
    if store is not None and key is not None:
        store.put(key, artifact)
        artifact = replace(artifact, cache_hit=False)
    return RunResponse(
        request=request, artifact=artifact, served_from="computed"
    )


class RunnerPool:
    """A persistent process pool that executes :class:`RunRequest`\\ s.

    :class:`ExperimentRunner` uses one per parallel pass; the ``repro
    serve`` daemon holds one for its whole lifetime and feeds it cache
    misses one request at a time.  ``submit`` returns a
    ``concurrent.futures.Future`` resolving to a :class:`RunResponse`
    (services wrap it with ``asyncio.wrap_future``).  Workers re-import
    the registry on first use, so only registry experiments — not
    monkeypatched test stand-ins — are reachable through a pool.

    ``context`` selects the multiprocessing start method.  The default
    (``None``) keeps the platform default — fork on Linux, which is
    what batch runs want (cheap workers, inherited warm imports).  The
    serve daemon passes ``"spawn"``: forked workers would inherit every
    open client socket, keeping those connections from ever seeing EOF
    after the daemon closes them; spawned workers inherit no
    descriptors at all.
    """

    def __init__(self, jobs: int, context: str | None = None):
        if jobs < 1:
            raise ExperimentError(f"pool jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        mp_context = None
        if context is not None:
            import multiprocessing

            mp_context = multiprocessing.get_context(context)
        self._pool = ProcessPoolExecutor(max_workers=jobs, mp_context=mp_context)

    def submit(self, request: RunRequest) -> "Future[RunResponse]":
        """Schedule ``request`` on the pool."""
        return self._pool.submit(execute, request)

    def shutdown(self, wait: bool = True) -> None:
        """Shut the pool down; with ``wait=True`` blocks until every
        submitted request has finished (the drain path)."""
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "RunnerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(wait=True)


@dataclass(frozen=True)
class ExperimentRunner:
    """Run registry experiments, optionally across a process pool.

    ``jobs=1`` executes in-process; ``jobs>1`` submits each experiment to
    a :class:`RunnerPool` and yields results in submission order, so
    rendered output is byte-identical at any worker count.  ``cache`` and
    ``cache_dir`` are stamped into every :class:`RunRequest` (each
    worker opens the store independently; each put is one atomic
    rename, so concurrent writers are safe).  After a
    cache-touching pass the store is garbage-collected under the
    environment budgets (see :meth:`_auto_gc` and ``docs/CACHE.md``),
    so it stays bounded without manual ``repro cache clear`` runs.
    """

    jobs: int = 1
    cache: str = "off"
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {self.jobs}")
        _check_cache_mode(self.cache)

    def request_for(self, experiment_id: str, quick: bool, seed: int) -> RunRequest:
        """The :class:`RunRequest` this runner would issue for one id."""
        return RunRequest(
            experiment_id=experiment_id,
            quick=quick,
            seed=seed,
            cache=self.cache,
            cache_dir=self.cache_dir,
        )

    def run_iter(
        self,
        ids: Sequence[str] | None = None,
        quick: bool = True,
        seed: int = 0,
    ) -> Iterator[RunArtifact]:
        """Yield one finalized artifact per experiment, in request order."""
        for response in self.execute_iter(ids, quick=quick, seed=seed):
            yield response.artifact

    def execute_iter(
        self,
        ids: Sequence[str] | None = None,
        quick: bool = True,
        seed: int = 0,
    ) -> Iterator[RunResponse]:
        """Yield one typed :class:`RunResponse` per experiment, in
        request order — the canonical form of :meth:`run_iter`."""
        targets = _resolve_ids(ids)
        requests = [self.request_for(eid, quick, seed) for eid in targets]
        if self.jobs == 1 or len(targets) <= 1:
            for request in requests:
                yield execute(request)
        else:
            workers = min(self.jobs, len(targets))
            with RunnerPool(workers) as pool:
                futures = [pool.submit(request) for request in requests]
                for future in futures:
                    yield future.result()
        self._auto_gc()

    def _auto_gc(self) -> None:
        """Bound the artifact store after a run that touched it.

        Runs once per completed :meth:`run_iter` pass (never per
        experiment, never when ``cache="off"``) under the environment
        budgets — ``REPRO_CACHE_MAX_BYTES`` (default 1 GiB),
        ``REPRO_CACHE_MAX_ENTRIES``, ``REPRO_CACHE_MAX_AGE_DAYS`` —
        and is disabled entirely by ``REPRO_CACHE_GC=off``.  The
        report's counters persist in the store's ``.gc-state.json``
        (surfaced by ``repro cache stats`` and the run manifest)."""
        if self.cache == "off":
            return
        from repro.cache.gc import auto_collect

        auto_collect(self.cache_dir)

    def run(
        self,
        ids: Sequence[str] | None = None,
        quick: bool = True,
        seed: int = 0,
    ) -> list[RunArtifact]:
        """Like :meth:`run_iter`, collected into a list."""
        return list(self.run_iter(ids, quick=quick, seed=seed))
