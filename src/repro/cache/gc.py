"""Budgeted garbage collection for the artifact store.

Each store entry is one file whose mtime is its LRU clock:
:meth:`Cache.put` writes the file, and a :meth:`Cache.get` hit
refreshes its mtime with ``os.utime``.  Nothing else moves it — ``repro
cache stats``, ``repro cache verify`` and ``Cache.iter_entries`` only
read — which is why the clock is mtime and not atime: under
``relatime`` a plain read can move atime.

:func:`collect` evicts under a :class:`GCBudget` (``max_bytes`` /
``max_entries`` / ``max_age_days``) in LRU order with size awareness
(among equally-stale entries the larger one goes first), always reaping
orphaned ``.tmp-*`` write debris before counting live entries against
the budget.  It inventories the entries with one ``stat`` each.
Cumulative counters persist in a hidden ``.gc-state.json`` at the store
root so ``repro cache stats`` and the run manifest can report what GC
has done.

Auto-GC: :func:`auto_collect` runs after every
:class:`~repro.runtime.runner.ExperimentRunner` pass that touched the
store, with budgets from ``REPRO_CACHE_MAX_BYTES`` (default 1 GiB; 0 or
negative disables the byte budget), ``REPRO_CACHE_MAX_ENTRIES`` and
``REPRO_CACHE_MAX_AGE_DAYS``.  Set ``REPRO_CACHE_GC=off`` to disable
auto-GC entirely (explicit ``repro cache gc`` still works).

Timestamps here are *civil* wall-clock time on purpose: they order
events across processes and machine reboots, which monotonic clocks
cannot do.  No durations are measured from them (the
``wallclock-discipline`` rule stays satisfied — the source is
``datetime``, never ``time.time``).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import CacheError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.store import Cache

__all__ = [
    "GC_STATE_VERSION",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_TMP_GRACE_S",
    "GCBudget",
    "Eviction",
    "GCReport",
    "iter_debris",
    "prune_empty_shards",
    "collect",
    "auto_collect",
    "read_gc_state",
]

GC_STATE_VERSION = 1

#: Default byte budget for auto-GC when ``REPRO_CACHE_MAX_BYTES`` is unset.
DEFAULT_MAX_BYTES = 1 << 30  # 1 GiB

#: A ``.tmp-*`` file younger than this may be a write in flight; older
#: ones are orphaned debris (a crashed or failed ``put``) and are reaped.
DEFAULT_TMP_GRACE_S = 3600.0

_GC_STATE_NAME = ".gc-state.json"
_GC_OFF_VALUES = frozenset({"off", "0", "false", "no"})


def _utcnow_s() -> float:
    """Current civil time as a UTC epoch timestamp (ordering only)."""
    # GC age policy is wall-clock by definition; timestamps steer
    # eviction only and never reach cached payloads.
    return datetime.now(timezone.utc).timestamp()  # repro-lint: disable=nondet-wallclock


# -- budgets ---------------------------------------------------------------


def _env_int(name: str) -> int | None:
    # Operator budget knob: read once per collection, steers eviction
    # only — never influences cached payloads.
    raw = os.environ.get(name)  # repro-lint: disable=nondet-env
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError:
        raise CacheError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


def _env_float(name: str) -> float | None:
    # Operator budget knob, same contract as _env_int.
    raw = os.environ.get(name)  # repro-lint: disable=nondet-env
    if raw is None or not raw.strip():
        return None
    try:
        return float(raw)
    except ValueError:
        raise CacheError(f"{name} must be a number, got {raw!r}") from None


@dataclass(frozen=True)
class GCBudget:
    """Capacity budgets for one collection.  ``None`` disables a limit."""

    max_bytes: int | None = DEFAULT_MAX_BYTES
    max_entries: int | None = None
    max_age_days: float | None = None
    tmp_grace_s: float = DEFAULT_TMP_GRACE_S

    @classmethod
    def from_env(cls) -> "GCBudget":
        """Budgets from ``REPRO_CACHE_MAX_BYTES`` (default 1 GiB; <= 0
        disables), ``REPRO_CACHE_MAX_ENTRIES`` and
        ``REPRO_CACHE_MAX_AGE_DAYS`` (unset/<= 0 disables each)."""
        max_bytes: int | None = _env_int("REPRO_CACHE_MAX_BYTES")
        if max_bytes is None:
            max_bytes = DEFAULT_MAX_BYTES
        elif max_bytes <= 0:
            max_bytes = None
        max_entries = _env_int("REPRO_CACHE_MAX_ENTRIES")
        if max_entries is not None and max_entries <= 0:
            max_entries = None
        max_age_days = _env_float("REPRO_CACHE_MAX_AGE_DAYS")
        if max_age_days is not None and max_age_days <= 0:
            max_age_days = None
        return cls(
            max_bytes=max_bytes,
            max_entries=max_entries,
            max_age_days=max_age_days,
        )


# -- collection ------------------------------------------------------------


@dataclass(frozen=True)
class Eviction:
    """One evicted (or would-be evicted, under ``--dry-run``) entry."""

    digest: str
    size_bytes: int
    reason: str  # "age" | "entries" | "bytes"


@dataclass(frozen=True)
class GCReport:
    """What one :func:`collect` pass did (or would do, when dry)."""

    root: Path
    dry_run: bool
    examined_entries: int
    examined_bytes: int
    evicted_entries: int
    evicted_bytes: int
    reaped_tmp_files: int
    reaped_tmp_bytes: int
    surviving_entries: int
    surviving_bytes: int
    evictions: tuple[Eviction, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """Counter payload for ``repro cache gc --json`` and the run
        manifest (the per-entry eviction list stays out: manifests
        record totals, not ledger lines)."""
        return {
            "dry_run": self.dry_run,
            "examined_entries": self.examined_entries,
            "examined_bytes": self.examined_bytes,
            "evicted_entries": self.evicted_entries,
            "evicted_bytes": self.evicted_bytes,
            "reaped_tmp_files": self.reaped_tmp_files,
            "reaped_tmp_bytes": self.reaped_tmp_bytes,
            "surviving_entries": self.surviving_entries,
            "surviving_bytes": self.surviving_bytes,
        }


@dataclass(frozen=True)
class _Inventory:
    """One live entry: its last access (the file's mtime) and size."""

    path: Path
    digest: str
    last_access: float
    size_bytes: int


def iter_debris(root: Path) -> Iterator[Path]:
    """Every ``.tmp-*`` file under the store (root level for the GC
    state and fingerprint memo writes, the ``ab/cd/`` shards for entry
    writes).
    The hidden prefix is why the plain ``*``-globs elsewhere never see
    these."""
    if not root.is_dir():
        return
    yield from sorted(chain(root.glob(".tmp-*"), root.glob("*/*/.tmp-*")))


def prune_empty_shards(root: Path) -> None:
    """Remove the store's empty shard directories, ``ab/cd/`` before
    ``ab/``.  ``rmdir`` only succeeds on an empty directory, so this
    never removes a file; a racing ``put`` recreates its shard and
    retries (:meth:`repro.cache.store.Cache.put`)."""
    for shard in sorted(root.glob("*/*"), reverse=True) + sorted(
        root.glob("*"), reverse=True
    ):
        if shard.is_dir():
            try:
                shard.rmdir()
            except OSError:
                pass


def _unlink_counted(path: Path) -> int:
    """Unlink ``path``; its size if removed, -1 if it slipped away."""
    try:
        size = path.stat().st_size
        path.unlink()
    except OSError:
        return -1
    return size


def collect(
    cache: "Cache",
    budget: GCBudget | None = None,
    dry_run: bool = False,
    now: float | None = None,
) -> GCReport:
    """Bring ``cache`` under ``budget``; reap write debris first.

    Eviction order is LRU with size awareness: candidates sort by last
    access (the entry file's mtime, oldest first), then by size (largest
    first) among equal timestamps, then by digest for determinism.
    ``max_age_days`` evictions (last-access staleness) happen first,
    then ``max_entries``, then ``max_bytes`` (each over the survivors of
    the previous step).  ``dry_run`` counts everything and deletes
    nothing.  Concurrent readers are safe: a ``get`` racing an eviction
    sees an ordinary miss and recomputes, or keeps the entry it already
    read.
    """
    budget = GCBudget() if budget is None else budget
    now = _utcnow_s() if now is None else now
    root = cache.root
    empty = GCReport(
        root=root,
        dry_run=dry_run,
        examined_entries=0,
        examined_bytes=0,
        evicted_entries=0,
        evicted_bytes=0,
        reaped_tmp_files=0,
        reaped_tmp_bytes=0,
        surviving_entries=0,
        surviving_bytes=0,
    )
    if not root.is_dir():
        return empty

    # 1. write debris: orphaned .tmp-* files past the grace window.
    # Reaped before budgets so debris can never crowd live entries out
    # of the store.
    reaped_files = 0
    reaped_bytes = 0
    for tmp in iter_debris(root):
        try:
            st = tmp.stat()
        except OSError:
            continue
        if now - st.st_mtime < budget.tmp_grace_s:
            continue  # possibly a write in flight
        if dry_run:
            reaped_files += 1
            reaped_bytes += st.st_size
            continue
        size = _unlink_counted(tmp)
        if size >= 0:
            reaped_files += 1
            reaped_bytes += size

    # 2. inventory the live entries: one stat each, no JSON parsing (GC
    # trusts the layout, not the payloads — corrupt entries are get()'s
    # problem).
    items: list[_Inventory] = []
    for path in cache.iter_entry_paths():
        try:
            st = path.stat()
        except OSError:
            continue  # vanished mid-walk
        items.append(
            _Inventory(
                path=path,
                digest=path.stem,
                last_access=st.st_mtime,
                size_bytes=st.st_size,
            )
        )
    examined_entries = len(items)
    examined_bytes = sum(it.size_bytes for it in items)

    # 3. decide victims: oldest access first, larger first on ties.
    items.sort(key=lambda it: (it.last_access, -it.size_bytes, it.digest))
    victims: list[tuple[_Inventory, str]] = []
    survivors = items
    if budget.max_age_days is not None:
        cutoff = now - budget.max_age_days * 86400.0
        expired = [it for it in survivors if it.last_access < cutoff]
        victims.extend((it, "age") for it in expired)
        survivors = [it for it in survivors if it.last_access >= cutoff]
    if budget.max_entries is not None:
        excess = len(survivors) - budget.max_entries
        if excess > 0:
            victims.extend((it, "entries") for it in survivors[:excess])
            survivors = survivors[excess:]
    if budget.max_bytes is not None:
        surviving_bytes = sum(it.size_bytes for it in survivors)
        index = 0
        while surviving_bytes > budget.max_bytes and index < len(survivors):
            victim = survivors[index]
            victims.append((victim, "bytes"))
            surviving_bytes -= victim.size_bytes
            index += 1
        survivors = survivors[index:]

    # 4. evict.
    evictions: list[Eviction] = []
    evicted_bytes = 0
    for item, reason in victims:
        if not dry_run:
            try:
                item.path.unlink()
            except FileNotFoundError:
                continue  # a concurrent clear/gc got there first
            except OSError:
                # still on disk (a read-only store): it survives
                survivors.append(item)
                continue
        evictions.append(
            Eviction(digest=item.digest, size_bytes=item.size_bytes, reason=reason)
        )
        evicted_bytes += item.size_bytes
    if not dry_run:
        prune_empty_shards(root)

    report = GCReport(
        root=root,
        dry_run=dry_run,
        examined_entries=examined_entries,
        examined_bytes=examined_bytes,
        evicted_entries=len(evictions),
        evicted_bytes=evicted_bytes,
        reaped_tmp_files=reaped_files,
        reaped_tmp_bytes=reaped_bytes,
        surviving_entries=len(survivors),
        surviving_bytes=sum(it.size_bytes for it in survivors),
        evictions=tuple(evictions),
    )
    if not dry_run:
        _update_gc_state(root, report, now)
    return report


# -- persistent GC counters ------------------------------------------------


def read_gc_state(root: Path) -> dict[str, Any] | None:
    """Cumulative GC counters for ``root`` (``.gc-state.json``), or
    ``None`` when no collection has run there yet."""
    try:
        payload = json.loads(
            (root / _GC_STATE_NAME).read_text(encoding="utf-8")
        )
    except (OSError, json.JSONDecodeError):
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("gc_state_version") != GC_STATE_VERSION
    ):
        return None
    return payload


def _update_gc_state(root: Path, report: GCReport, now: float) -> None:
    """Fold ``report`` into the cumulative counters (best-effort)."""
    state = read_gc_state(root) or {
        "gc_state_version": GC_STATE_VERSION,
        "collections": 0,
        "evicted_entries": 0,
        "evicted_bytes": 0,
        "reaped_tmp_files": 0,
        "reaped_tmp_bytes": 0,
    }
    state["collections"] = int(state.get("collections", 0)) + 1
    for counter in (
        "evicted_entries",
        "evicted_bytes",
        "reaped_tmp_files",
        "reaped_tmp_bytes",
    ):
        state[counter] = int(state.get(counter, 0)) + getattr(report, counter)
    state["last"] = dict(report.to_dict(), timestamp=now)
    try:
        fd, tmp = tempfile.mkstemp(dir=root, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(state, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, root / _GC_STATE_NAME)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        pass  # counters are advisory; never fail a collection over them


# -- auto-GC ---------------------------------------------------------------


def auto_collect(cache_dir: "str | os.PathLike[str] | None") -> GCReport | None:
    """The post-run hook: collect under the environment budgets.

    Returns ``None`` (and does nothing) when ``REPRO_CACHE_GC`` is
    ``off``/``0``/``false``/``no`` or when the store does not exist.  A
    misconfigured budget env var still raises :class:`CacheError` —
    silent misconfiguration would unbound the store again."""
    # Operator kill switch for the post-run hook; eviction policy only.
    if os.environ.get("REPRO_CACHE_GC", "").strip().lower() in _GC_OFF_VALUES:  # repro-lint: disable=nondet-env
        return None
    from repro.cache.store import Cache

    cache = Cache(cache_dir)
    if not cache.root.is_dir():
        return None
    return collect(cache, GCBudget.from_env())
