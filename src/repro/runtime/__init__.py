"""``repro.runtime`` — the unified experiment execution layer.

Everything that *runs* experiments lives here: the schema-versioned
:class:`RunArtifact` (the immutable, JSON-round-trippable record of one
run), the :class:`RunManifest` (the per-run summary with timings and
speedup), per-run :mod:`instrumentation` counters, and the
:class:`ExperimentRunner` / :func:`execute` execution path that the CLI,
the tests and the daemon all share.  See ``docs/ARTIFACTS.md``.

The runner half of the package is exposed lazily: ``runner`` imports the
experiment registry, which imports the experiment modules, which import
the simulation layer — and the simulation layer imports
``repro.runtime.instrumentation``.  Loading the leaf modules eagerly and
the runner on first attribute access keeps that chain acyclic.
"""

from repro.runtime.artifact import SCHEMA_VERSION, ResultTable, RunArtifact
from repro.runtime.instrumentation import Counters, collect, record
from repro.runtime.manifest import ManifestEntry, RunManifest
from repro.runtime.provenance import git_revision, repro_version
from repro.runtime.request import WIRE_VERSION, RunRequest, RunResponse

__all__ = [
    "SCHEMA_VERSION",
    "WIRE_VERSION",
    "ResultTable",
    "RunArtifact",
    "RunRequest",
    "RunResponse",
    "ManifestEntry",
    "RunManifest",
    "Counters",
    "collect",
    "record",
    "git_revision",
    "repro_version",
    "ExperimentRunner",
    "RunnerPool",
    "execute",
]


def __getattr__(name):  # pragma: no cover - thin lazy-import shim
    """Lazily expose the runner to avoid the registry import cycle."""
    if name in ("ExperimentRunner", "RunnerPool", "execute"):
        from repro.runtime import runner

        return getattr(runner, name)
    raise AttributeError(f"module 'repro.runtime' has no attribute {name!r}")
