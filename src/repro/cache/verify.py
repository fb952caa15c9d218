"""Cache verification: prove a stored artifact can stand in for a run.

``repro cache verify`` samples entries from the store, re-runs each
sampled experiment live (``cache="off"``), and compares the stored
artifact against the fresh one under :meth:`RunArtifact.without_timing`
with ``git_revision`` cleared — the bit-identity contract modulo wall
time, cache bookkeeping, and which commit wrote the entry.
Entries whose code fingerprint no longer matches the current tree are
*stale*: they cannot be compared against a live run of different code,
so they are reported but never counted as failures (a future ``auto``
run will simply miss them).

Comparison is on canonical JSON, not dataclass equality, so a live
artifact holding numpy scalars compares equal to its round-tripped
stored twin exactly when the serialized evidence agrees.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.util.rng import as_generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.store import Cache

__all__ = ["VerifyRecord", "VerifyReport", "verify_store"]


@dataclass(frozen=True)
class VerifyRecord:
    """Outcome for one store entry: ``ok``, ``mismatch``, or ``stale``."""

    experiment_id: str
    quick: bool
    seed: int
    digest: str
    status: str
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    """Aggregate outcome of one verification pass."""

    records: tuple[VerifyRecord, ...]
    jobs: int

    @property
    def checked(self) -> int:
        return sum(1 for r in self.records if r.status != "stale")

    @property
    def mismatches(self) -> int:
        return sum(1 for r in self.records if r.status == "mismatch")

    @property
    def stale(self) -> int:
        return sum(1 for r in self.records if r.status == "stale")

    @property
    def ok(self) -> bool:
        """True when no checked entry diverged from live recomputation."""
        return self.mismatches == 0


def _canonical(artifact) -> str:
    """The evidence a stored entry must share with a live run.

    ``git_revision`` is provenance, not evidence: an entry stored one
    commit earlier, or on an uncommitted tree, still holds a valid
    result for every key it matches."""
    return replace(artifact.without_timing(), git_revision=None).to_json()


def verify_store(
    store: "Cache",
    sample: int | None = 3,
    seed: int = 0,
    jobs: int = 1,
) -> VerifyReport:
    """Re-run up to ``sample`` cached entries live and diff the artifacts.

    ``sample=None`` verifies every fresh entry.  Sampling is a
    deterministic draw (``seed``) without replacement over the store's
    digest-ordered entries; ``jobs > 1`` fans the live re-runs over a
    process pool.  Stale entries (code fingerprint differs from the
    current tree) are reported as ``stale`` and skipped.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.cache.store import cache_key_for
    from repro.runtime.request import RunRequest
    from repro.runtime.runner import execute

    entries = list(store.iter_entries())
    fresh = []
    records: list[VerifyRecord] = []
    for entry in entries:
        key = entry.key
        current = cache_key_for(key.experiment_id, key.quick, key.seed)
        if current != key:
            records.append(
                VerifyRecord(
                    experiment_id=key.experiment_id,
                    quick=key.quick,
                    seed=key.seed,
                    digest=key.digest,
                    status="stale",
                    detail="code fingerprint or environment changed since store",
                )
            )
        else:
            fresh.append(entry)

    if sample is not None and len(fresh) > sample:
        gen = as_generator(seed)
        chosen = gen.choice(len(fresh), size=sample, replace=False)
        fresh = [fresh[i] for i in sorted(int(i) for i in chosen)]

    def record_for(entry, live) -> VerifyRecord:
        key = entry.key
        stored, fresh_json = _canonical(entry.artifact), _canonical(live)
        if stored == fresh_json:
            return VerifyRecord(
                experiment_id=key.experiment_id,
                quick=key.quick,
                seed=key.seed,
                digest=key.digest,
                status="ok",
            )
        return VerifyRecord(
            experiment_id=key.experiment_id,
            quick=key.quick,
            seed=key.seed,
            digest=key.digest,
            status="mismatch",
            detail="stored artifact differs from live recomputation",
        )

    requests = [
        RunRequest(
            experiment_id=e.key.experiment_id,
            quick=e.key.quick,
            seed=e.key.seed,
            cache="off",
        )
        for e in fresh
    ]
    if jobs <= 1 or len(fresh) <= 1:
        lives = [execute(request).artifact for request in requests]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(fresh))) as pool:
            futures = [pool.submit(execute, request) for request in requests]
            lives = [f.result().artifact for f in futures]
    records.extend(record_for(e, live) for e, live in zip(fresh, lives))
    records.sort(key=lambda r: (r.experiment_id, r.digest))
    return VerifyReport(records=tuple(records), jobs=jobs)
