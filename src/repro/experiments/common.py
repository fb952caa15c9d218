"""Shared infrastructure for the experiment registry.

Every experiment is a function ``run(quick=True, seed=0) -> RunArtifact``
producing one or more printed tables (the paper has no numeric tables, so
these tables *are* the reproduced artifacts) plus a verdict comparing the
measured shape against the paper's claim.  ``quick`` trims problem sizes
and trial counts so the whole suite runs in CI time.

:class:`ExperimentResult` is the *builder* half of that contract: an
experiment fills it table-by-table, then :meth:`ExperimentResult.finalize`
freezes everything into an immutable, schema-versioned
:class:`~repro.runtime.artifact.RunArtifact` — the only object that
leaves an experiment.  Rendering lives on the artifact; the builder's
``render`` delegates so text output is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.runtime.artifact import ResultTable, RunArtifact
from repro.runtime.provenance import git_revision, repro_version
from repro.util.rng import RNG_SCHEME

__all__ = ["ResultTable", "ExperimentResult", "RunArtifact"]


@dataclass
# ExperimentResult is the one deliberately mutable *Result type: it is a
# builder that experiments fill table-by-table before finalizing, not a
# measurement artifact.
class ExperimentResult:  # repro-lint: disable=frozen-dataclass
    """Everything an experiment reports, in builder form.

    ``verdict`` summarizes whether the measured shape matches the paper's
    claim (each experiment documents its criterion); ``metrics`` carries
    machine-checkable scalars that the test suite asserts on.  Call
    :meth:`finalize` to freeze the accumulated state into a
    :class:`RunArtifact`.
    """

    experiment_id: str
    title: str
    claim: str
    tables: list[ResultTable] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    verdict: str = ""
    notes: str = ""

    def add_table(self, title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
        self.tables.append(
            ResultTable(
                title=title,
                headers=tuple(headers),
                rows=tuple(tuple(r) for r in rows),
            )
        )

    def finalize(
        self, quick: bool | None = None, seed: int | None = None
    ) -> RunArtifact:
        """Freeze the builder into an immutable, provenance-stamped
        :class:`RunArtifact`.

        ``wall_time_s`` and ``counters`` stay empty here: they belong to
        the runtime layer (:func:`repro.runtime.execute`), which wraps
        the experiment call and attaches them to the finalized artifact.
        """
        return RunArtifact(
            experiment_id=self.experiment_id,
            title=self.title,
            claim=self.claim,
            tables=tuple(self.tables),
            metrics=dict(self.metrics),
            verdict=self.verdict,
            notes=self.notes,
            seed=seed,
            quick=quick,
            rng_scheme=RNG_SCHEME,
            repro_version=repro_version(),
            git_revision=git_revision(),
        )

    def render(self, precision: int = 4) -> str:
        return self.finalize().render(precision=precision)

    def __str__(self) -> str:
        return self.render()
