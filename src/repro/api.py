"""``repro.api`` — the blessed programmatic surface.

One import site for the operations every consumer (notebooks, CI
harnesses, downstream scripts, the ``repro serve`` daemon) actually
performs, so callers stop reaching into submodule internals that are
free to move.  Since API v2 the execution surface is built around one
canonical request object:

* :class:`RunRequest` / :class:`RunResponse` — the typed, frozen
  request/response pair every execution path shares (CLI ``run``,
  ``ExperimentRunner``, the serve daemon); their ``to_dict`` forms are
  the wire schema (``docs/API.md``);
* :func:`execute` — run one :class:`RunRequest` through the
  instrumented, cache-aware runtime path and get a typed response;
* :func:`run` / :func:`run_all` — the convenience spellings over
  :func:`execute` (``docs/CACHE.md`` for cache semantics);
* :func:`solve` — the exact Lemma-3 recurrence solver, accepting spec
  names and distribution DSL strings as well as the typed objects;
* :func:`load_artifact` — read a schema-versioned ``RunArtifact`` JSON
  back into the typed form;
* :class:`Cache` — the content-addressed artifact store.

``__all__`` below is the enumerated stability contract, mirrored (with
the serve endpoints) in ``docs/API.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cache.store import Cache
from repro.runtime.request import WIRE_VERSION, RunRequest, RunResponse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.spec import RegularSpec
    from repro.analysis.recurrence import RecurrenceSolution
    from repro.profiles.distributions import BoxDistribution
    from repro.runtime.artifact import RunArtifact

__all__ = [
    "WIRE_VERSION",
    "RunRequest",
    "RunResponse",
    "execute",
    "run",
    "run_all",
    "solve",
    "load_artifact",
    "Cache",
]


def execute(request: RunRequest) -> RunResponse:
    """Execute one typed :class:`RunRequest` through the instrumented,
    cache-aware runtime path and return the typed response.

    This is the canonical v2 entry point: the CLI's ``repro run``, the
    :class:`~repro.runtime.runner.ExperimentRunner` pool, and the
    ``repro serve`` daemon all reduce to it.  ``response.served_from``
    distinguishes a warm store read (``"store"``) from a live
    computation (``"computed"``).
    """
    from repro.runtime.runner import execute as _execute

    return _execute(request)


def run(
    experiment_id: str,
    *,
    quick: bool = True,
    seed: int = 0,
    cache: str = "auto",
    cache_dir: "str | None" = None,
) -> "RunArtifact":
    """Run one registry experiment through the instrumented runtime path.

    Identical semantics to the CLI's ``repro run``: wall time and
    instrumentation counters attached, artifact store consulted under
    ``cache="auto"`` (pass ``"off"`` to always compute, ``"refresh"`` to
    recompute and overwrite).  Sugar for ``execute(RunRequest(...))``.
    """
    return execute(
        RunRequest(
            experiment_id=experiment_id,
            quick=quick,
            seed=seed,
            cache=cache,
            cache_dir=cache_dir,
        )
    ).artifact


def run_all(
    ids: "list[str] | None" = None,
    *,
    quick: bool = True,
    seed: int = 0,
    jobs: int = 1,
    cache: str = "auto",
    cache_dir: "str | None" = None,
) -> "dict[str, RunArtifact]":
    """Run experiments (default: the whole registry, in registration
    order) and return ``{experiment_id: artifact}``.

    ``jobs > 1`` fans :class:`RunRequest` submissions over a process
    pool with bit-identical results at any worker count; ``cache`` is
    stamped into every request.
    """
    from repro.runtime.runner import ExperimentRunner

    runner = ExperimentRunner(jobs=jobs, cache=cache, cache_dir=cache_dir)
    return {
        artifact.experiment_id: artifact
        for artifact in runner.run_iter(ids, quick=quick, seed=seed)
    }


def solve(
    spec: "RegularSpec | str",
    n: int,
    dist: "BoxDistribution | str",
    *,
    scan_dp: bool = True,
) -> "RecurrenceSolution":
    """Solve the exact Lemma-3 recurrence for ``spec`` at size ``n``
    under box-size distribution ``dist``.

    ``spec`` may be a :class:`RegularSpec` or a named spec
    (``"MM-SCAN"``); ``dist`` may be a :class:`BoxDistribution` or the
    CLI's distribution DSL (``"uniform:4:1:5"``, ``"point:16"``, ...).
    Results are memoized (see :mod:`repro.cache.memo`).
    """
    from repro.analysis.recurrence import solve_recurrence

    if isinstance(spec, str):
        from repro.algorithms.library import get_spec

        spec = get_spec(spec)
    if isinstance(dist, str):
        from repro.profiles.parsing import parse_distribution

        dist = parse_distribution(dist)
    return solve_recurrence(spec, n, dist, scan_dp=scan_dp)


def load_artifact(path: str) -> "RunArtifact":
    """Read a ``RunArtifact`` JSON file (as written by ``repro run
    --json`` or stored by the cache) back into the typed artifact."""
    import json

    from repro.errors import ArtifactError
    from repro.runtime.artifact import RunArtifact

    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact {path!r} is not valid JSON: {exc}") from None
    if isinstance(payload, dict) and "artifact" in payload and "key" in payload:
        payload = payload["artifact"]  # a raw cache store entry
    return RunArtifact.from_dict(payload)
