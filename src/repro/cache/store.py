"""Content-addressed on-disk store of experiment artifacts.

The store maps a :class:`CacheKey` — the *complete* identity of a run:
experiment id, ``quick``/``seed`` configuration, the AST-normalized
fingerprint of the code the experiment runs, the artifact schema
version, the RNG scheme, and the interpreter/numpy/scipy versions —
to the finalized :class:`~repro.runtime.artifact.RunArtifact` that run
produced.  Because every experiment is a pure function of ``(quick,
seed)`` (the PR-2 determinism contract), two runs with equal keys are
bit-identical modulo timing, so a warm hit can stand in for live
recomputation and ``repro cache verify`` can check the substitution.

Layout: ``<root>/<digest[:2]>/<digest[2:4]>/<digest>.json``, one file
per entry and nothing beside it: the file's own mtime is the entry's
access record.  :meth:`Cache.put` writes the file (temp file +
``os.replace``), so its mtime is when it was stored; a :meth:`Cache.get`
hit refreshes it with ``os.utime``, so its mtime is its last access.
Every write is one atomic rename and every removal one ``unlink``, so
concurrent readers, writers and GC passes — the regime the ``repro
serve`` daemon lives in — each see a whole entry or none.  The
two-level fan-out bounds directory width at 256 either level, which
keeps shard scans flat for stores holding hundreds of thousands of
entries.  It is the only layout: any other file under the root is
foreign, and the store never reads, counts, evicts, or removes it.

Corrupt or unreadable entries are treated as misses, never as errors: a
cache must degrade to recomputation, not take the run down with it.

The store is *bounded*: :meth:`Cache.gc` evicts under byte/entry/age
budgets, oldest mtime first — see :mod:`repro.cache.gc` and
``docs/CACHE.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.errors import ArtifactError, CacheError
from repro.runtime.artifact import SCHEMA_VERSION, RunArtifact
from repro.util.rng import RNG_SCHEME

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.gc import GCBudget, GCReport

__all__ = [
    "CACHE_ENTRY_VERSION",
    "default_cache_dir",
    "environment_tag",
    "CacheKey",
    "CacheEntry",
    "CacheStats",
    "Cache",
    "cache_key_for",
]

CACHE_ENTRY_VERSION = 1

#: Bound on :func:`_open_temp`'s retries: more than a handful in a row
#: would be a pathological prune storm, and failing loudly beats
#: spinning forever.
_OPEN_ATTEMPTS = 64


def default_cache_dir() -> Path:
    """Resolve the artifact store location: ``$REPRO_CACHE_DIR``, else
    ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    # Store *location* knobs: they decide where entries live, never
    # what any entry contains.
    env = os.environ.get("REPRO_CACHE_DIR")  # repro-lint: disable=nondet-env
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")  # repro-lint: disable=nondet-env
    if xdg:
        return Path(xdg) / "repro"
    return Path.home() / ".cache" / "repro"


def environment_tag() -> str:
    """The numeric-environment part of the key: interpreter and the two
    numeric libraries whose versions can move float results."""
    import numpy
    import scipy

    py = ".".join(str(v) for v in sys.version_info[:2])
    return f"py{py}-numpy{numpy.__version__}-scipy{scipy.__version__}"


@dataclass(frozen=True)
class CacheKey:
    """Complete identity of one experiment run for caching purposes.

    ``rng_scheme`` names the random-number addressing scheme the run's
    draws came from (:data:`repro.util.rng.RNG_SCHEME`), so an entry
    can never satisfy a key built under a different scheme."""

    experiment_id: str
    quick: bool
    seed: int
    fingerprint: str
    schema_version: int = SCHEMA_VERSION
    rng_scheme: str = RNG_SCHEME
    environment: str = field(default_factory=environment_tag)

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment_id": self.experiment_id,
            "quick": self.quick,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "schema_version": self.schema_version,
            "rng_scheme": self.rng_scheme,
            "environment": self.environment,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CacheKey":
        try:
            return cls(
                experiment_id=payload["experiment_id"],
                quick=payload["quick"],
                seed=payload["seed"],
                fingerprint=payload["fingerprint"],
                schema_version=payload["schema_version"],
                rng_scheme=payload["rng_scheme"],
                environment=payload["environment"],
            )
        except (KeyError, TypeError) as exc:
            raise CacheError(f"malformed cache key payload: {exc}") from None

    @property
    def digest(self) -> str:
        """Content address: SHA-256 of the canonical key JSON."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """One stored artifact plus the key it was stored under."""

    key: CacheKey
    artifact: RunArtifact
    path: Path

    @property
    def stored_wall_time_s(self) -> float:
        """The compute time a hit on this entry saves."""
        return self.artifact.wall_time_s or 0.0


@dataclass(frozen=True)
class CacheStats:
    """On-disk accounting for ``repro cache stats``.

    ``tmp_files``/``tmp_bytes`` count orphaned ``.tmp-*`` write debris
    (invisible to the entry globs, reaped by :meth:`Cache.gc`); ``gc``
    carries the cumulative collection counters from ``.gc-state.json``,
    or ``None`` when no collection has ever run on this store.
    ``fingerprint_memo`` is the state of the store's fingerprint memo
    (``current``, ``stale`` or ``absent``) and how many fingerprints it
    holds (:func:`~repro.cache.fingerprint.fingerprint_memo_state`)."""

    root: Path
    entries: int
    total_bytes: int
    by_experiment: dict[str, int]
    stored_wall_time_s: float
    tmp_files: int = 0
    tmp_bytes: int = 0
    gc: dict[str, Any] | None = None
    fingerprint_memo: dict[str, Any] = field(
        default_factory=lambda: {"state": "absent", "fingerprints": 0}
    )


def cache_key_for(
    experiment_id: str, quick: bool, seed: int, store: "Cache | None" = None
) -> CacheKey:
    """Build the cache key for a registry experiment as the code stands
    now.

    Granularity follows :func:`~repro.cache.fingerprint.fingerprint_mode`
    (``REPRO_CACHE_FINGERPRINT``): per-symbol reachability by default,
    whole-module closure as the conservative fallback.  With ``store``,
    the fingerprint comes from the memo in that store when it belongs to
    this source tree, and is computed and written back there otherwise;
    without one it is always computed (``repro cache verify`` relies on
    that to stay an independent check)."""
    from repro.cache.fingerprint import experiment_fingerprint
    from repro.experiments.registry import EXPERIMENTS

    try:
        exp = EXPERIMENTS[experiment_id]
    except KeyError:
        from repro.errors import ExperimentError

        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    # A runner may be wrapped in functools.partial (no __name__ of its
    # own); the underlying function carries the real identity.
    import functools

    runner = exp.runner
    while isinstance(runner, functools.partial):
        runner = runner.func
    fingerprint = experiment_fingerprint(
        runner.__module__,
        entry=runner.__name__,
        memo_root=None if store is None else store.root,
    )
    return CacheKey(
        experiment_id=experiment_id, quick=quick, seed=seed, fingerprint=fingerprint
    )


def _is_digest_name(name: str) -> bool:
    """Whether a ``<stem>.json`` file name looks like an entry (64 hex
    chars), so foreign files dropped into the store are never treated —
    or discarded — as entries."""
    stem = name[:-5] if name.endswith(".json") else name
    if len(stem) != 64:
        return False
    return all(c in "0123456789abcdef" for c in stem)


def _open_temp(directory: Path) -> tuple[int, str]:
    """``mkdir -p`` + ``mkstemp`` for one entry write into ``directory``.

    A concurrent GC prunes shard directories while they are empty, so
    the shard can vanish after the ``mkdir`` (``mkstemp`` then raises
    ``FileNotFoundError``) or inside it (pathlib's ``exist_ok`` re-check
    raises ``FileExistsError`` for a directory that is gone).  The prune
    only removes *empty* directories, so retrying converges, and once
    the temp file exists the shard is no longer empty."""
    for _ in range(_OPEN_ATTEMPTS):
        try:
            directory.mkdir(parents=True, exist_ok=True)
            return tempfile.mkstemp(
                dir=directory, prefix=".tmp-", suffix=".json"
            )
        except (FileNotFoundError, FileExistsError):
            continue
    raise CacheError(
        f"cannot create a cache entry in {directory}: the directory "
        f"vanished {_OPEN_ATTEMPTS} times in a row"
    )


class Cache:
    """The content-addressed artifact store (``repro.api.Cache``).

    ``root=None`` resolves via :func:`default_cache_dir`.  All methods
    are safe on a store that does not exist yet; ``put`` creates it.
    Each entry is one file, written by one rename and removed by one
    unlink, so concurrent writers — pool workers, the serve daemon, a GC
    pass — can share one store without locks (``docs/CACHE.md``).
    """

    def __init__(self, root: "str | os.PathLike[str] | None" = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def __repr__(self) -> str:
        return f"Cache(root={str(self.root)!r})"

    def path_for(self, key: CacheKey) -> Path:
        return self.canonical_path(key.digest)

    def canonical_path(self, digest: str) -> Path:
        """Where ``digest``'s entry lives in the sharded layout:
        ``<root>/<digest[:2]>/<digest[2:4]>/<digest>.json``."""
        return self.root / digest[:2] / digest[2:4] / f"{digest}.json"

    # -- read ----------------------------------------------------------
    def get(self, key: CacheKey) -> CacheEntry | None:
        """The stored entry for ``key``, or ``None`` on miss.

        A hit refreshes the entry file's mtime, the LRU clock GC evicts
        by.  A corrupt, unparsable, or mismatched entry is a miss (and
        is unlinked so it cannot shadow a future put).  Both writes are
        best-effort: on a store ``get`` cannot write to (a read-only
        mount, e.g. a shared CI cache) a good entry still hits, a
        corrupt one is a plain miss, and ``get`` never raises."""
        entry = self._load(self.canonical_path(key.digest))
        if entry is None:
            return None
        if entry.key != key:  # hash collision or tampering: distrust it
            self._discard(entry.path)
            return None
        try:
            os.utime(entry.path)
        except OSError:
            pass  # evicted since the read, or a read-only store
        return entry

    def _load(self, path: Path) -> CacheEntry | None:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None  # plain miss: nothing (readable) there
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            # A file that exists but does not parse is a dead entry: it
            # can never hit, so leaving it would make it uncounted and
            # unevictable.  Discard, per get()'s contract.
            self._discard(path)
            return None
        if not isinstance(payload, dict):
            self._discard(path)
            return None
        if payload.get("cache_entry_version") != CACHE_ENTRY_VERSION:
            self._discard(path)
            return None
        try:
            key = CacheKey.from_dict(payload["key"])
            artifact = RunArtifact.from_dict(payload["artifact"])
        except (KeyError, CacheError, ArtifactError):
            self._discard(path)
            return None
        return CacheEntry(key=key, artifact=artifact, path=path)

    def _discard(self, path: Path) -> None:
        """Unlink a dead entry, best-effort: on a read-only store ``get``
        must answer a miss, not raise."""
        try:
            path.unlink()
        except OSError:
            pass

    # -- write ---------------------------------------------------------
    def put(self, key: CacheKey, artifact: RunArtifact) -> Path:
        """Store ``artifact`` under ``key`` (atomic, last writer wins).

        The artifact is stored in canonical live form — cache bookkeeping
        fields cleared — so a future hit compares bit-identically against
        live recomputation."""
        canonical = artifact.without_cache_stamp()
        payload = {
            "cache_entry_version": CACHE_ENTRY_VERSION,
            "key": key.to_dict(),
            "artifact": canonical.to_dict(),
        }
        path = self.path_for(key)
        fd, tmp = _open_temp(path.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            os.replace(tmp, path)
        except Exception as exc:
            # Cleanup must cover *every* failure: json.dump raising a
            # non-OSError (e.g. TypeError on an unserializable value)
            # would otherwise strand the mkstemp file as .tmp-* debris.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if isinstance(exc, OSError):
                raise CacheError(
                    f"cannot write cache entry {path}: {exc}"
                ) from None
            raise
        return path

    # -- maintenance ---------------------------------------------------
    def iter_entry_paths(self) -> Iterator[Path]:
        """Every entry *file* (``ab/cd/<digest>.json``), in stable
        (digest) order, without parsing.  The filters are load-bearing:
        pathlib's ``*``-glob matches dotfiles (unlike the ``glob``
        module), so without them ``.tmp-*`` write debris and any other
        hidden file in a shard would be picked up and mis-discarded as
        a corrupt entry.  A digest-named file outside its own shard is
        foreign too, so every path yielded here is its digest's
        canonical path."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*/*.json")):
            if (
                not path.name.startswith(".")
                and _is_digest_name(path.name)
                and path == self.canonical_path(path.stem)
            ):
                yield path

    def iter_entries(self) -> Iterator[CacheEntry]:
        """Every readable entry in the store, in stable (digest) order."""
        for path in self.iter_entry_paths():
            entry = self._load(path)
            if entry is not None:
                yield entry

    def stats(self) -> CacheStats:
        from repro.cache.fingerprint import fingerprint_memo_state
        from repro.cache.gc import iter_debris, read_gc_state

        entries = 0
        total_bytes = 0
        by_experiment: dict[str, int] = {}
        stored_wall = 0.0
        for entry in self.iter_entries():
            entries += 1
            try:
                total_bytes += entry.path.stat().st_size
            except OSError:
                pass
            eid = entry.key.experiment_id
            by_experiment[eid] = by_experiment.get(eid, 0) + 1
            stored_wall += entry.stored_wall_time_s
        tmp_files = 0
        tmp_bytes = 0
        for debris in iter_debris(self.root):
            try:
                tmp_bytes += debris.stat().st_size
            except OSError:
                continue
            tmp_files += 1
        return CacheStats(
            root=self.root,
            entries=entries,
            total_bytes=total_bytes,
            by_experiment=dict(sorted(by_experiment.items())),
            stored_wall_time_s=stored_wall,
            tmp_files=tmp_files,
            tmp_bytes=tmp_bytes,
            gc=read_gc_state(self.root),
            fingerprint_memo=fingerprint_memo_state(self.root),
        )

    def gc(
        self,
        budget: "GCBudget | None" = None,
        dry_run: bool = False,
    ) -> "GCReport":
        """Collect garbage under ``budget`` (default: the environment
        budgets — see :class:`repro.cache.gc.GCBudget`).  Reaps orphaned
        ``.tmp-*`` debris, then evicts LRU-first (oldest mtime) under
        the byte/entry/age limits.  ``dry_run`` reports without
        deleting."""
        from repro.cache.gc import GCBudget, collect

        return collect(
            self,
            budget if budget is not None else GCBudget.from_env(),
            dry_run=dry_run,
        )

    def clear(self) -> int:
        """Remove every entry and all ``.tmp-*`` write debris; returns
        how many *entries* were removed.  Leaves the root directory, its
        ``.gc-state.json`` and fingerprint memo, and any foreign files
        in it alone."""
        from repro.cache.gc import iter_debris, prune_empty_shards

        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.iter_entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for debris in iter_debris(self.root):
            try:
                debris.unlink()
            except OSError:
                pass
        prune_empty_shards(self.root)
        return removed
