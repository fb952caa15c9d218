"""Budgeted garbage collection for the artifact store.

PR 3 left the on-disk store unbounded: every ``(experiment, quick,
seed, fingerprint, environment)`` combination ever computed stays on
disk until someone runs ``repro cache clear``.  This module bounds it.
Each entry gains a *sidecar access record* — a hidden
``.meta-<digest>.json`` next to the entry, maintained best-effort by
:meth:`Cache.put` / :meth:`Cache.get` — holding created/last-access
timestamps, a hit count, and the entry's byte size.  The sidecar never
touches the content-addressed entry payload, so stores written before
this PR stay readable (a missing sidecar is synthesized from the entry
file's mtime).

:func:`collect` evicts under a :class:`GCBudget` (``max_bytes`` /
``max_entries`` / ``max_age_days`` / ``max_lifetime_days``) in LRU
order with size awareness
(among equally-stale entries the larger one goes first), always reaping
orphaned ``.tmp-*`` write debris and orphaned sidecars before counting
live entries against the budget.  Cumulative counters persist in a
hidden ``.gc-state.json`` at the store root so ``repro cache stats``
and the run manifest can report what GC has done.

Auto-GC: :func:`auto_collect` runs after every
:class:`~repro.runtime.runner.ExperimentRunner` pass that touched the
store, with budgets from ``REPRO_CACHE_MAX_BYTES`` (default 1 GiB; 0 or
negative disables the byte budget), ``REPRO_CACHE_MAX_ENTRIES``,
``REPRO_CACHE_MAX_AGE_DAYS``, and ``REPRO_CACHE_MAX_LIFETIME_DAYS``.
Set ``REPRO_CACHE_GC=off`` to disable auto-GC entirely (explicit
``repro cache gc`` still works).

``max_age_days`` and ``max_lifetime_days`` differ in which timestamp
they read: age is *last access* (idle entries expire; a warm hit
resets the clock), lifetime is *creation* (an entry expires D days
after its ``put`` no matter how often it keeps hitting — a hard
freshness ceiling for long-lived CI caches).

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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.cache.lock import entry_lock, try_reap_lock
from repro.errors import CacheError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.store import Cache

__all__ = [
    "SIDECAR_VERSION",
    "GC_STATE_VERSION",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_TMP_GRACE_S",
    "AccessRecord",
    "GCBudget",
    "Eviction",
    "GCReport",
    "sidecar_path",
    "read_access_record",
    "write_access_record",
    "record_put",
    "record_hit",
    "buffered_access_records",
    "iter_debris",
    "iter_lock_files",
    "prune_empty_shards",
    "collect",
    "auto_collect",
    "read_gc_state",
]

SIDECAR_VERSION = 1
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
    # GC age/lifetime policy is wall-clock by definition; timestamps
    # steer eviction only and never reach cached payloads.
    return datetime.now(timezone.utc).timestamp()  # repro-lint: disable=nondet-wallclock


# -- sidecar access records ------------------------------------------------


@dataclass(frozen=True)
class AccessRecord:
    """Per-entry usage bookkeeping stored in the hidden sidecar file."""

    created: float
    last_access: float
    hits: int
    size_bytes: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "sidecar_version": SIDECAR_VERSION,
            "created": self.created,
            "last_access": self.last_access,
            "hits": self.hits,
            "size_bytes": self.size_bytes,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AccessRecord":
        try:
            return cls(
                created=float(payload["created"]),
                last_access=float(payload["last_access"]),
                hits=int(payload["hits"]),
                size_bytes=int(payload["size_bytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"malformed sidecar payload: {exc}") from None


def sidecar_path(entry_path: Path) -> Path:
    """The hidden sidecar next to ``<shard>/<digest>.json``.

    The leading dot keeps sidecars out of every ``*``-glob the store
    uses for entries, so they can never be mistaken for entries (or be
    discarded as corrupt ones)."""
    return entry_path.parent / f".meta-{entry_path.name}"


def read_access_record(entry_path: Path) -> AccessRecord | None:
    """The sidecar record for ``entry_path``, or ``None`` when missing
    or unreadable.  Corruption is tolerated, never fatal: the GC can
    always synthesize a record from the entry file's stat."""
    try:
        payload = json.loads(
            sidecar_path(entry_path).read_text(encoding="utf-8")
        )
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("sidecar_version") != SIDECAR_VERSION:
        return None
    try:
        return AccessRecord.from_dict(payload)
    except CacheError:
        return None


def write_access_record(entry_path: Path, record: AccessRecord) -> None:
    """Atomically write ``record`` as ``entry_path``'s sidecar.

    Uses the same ``.tmp-`` prefix as entry writes so a crashed sidecar
    write is reaped by the same debris sweep.  Raises ``OSError`` on
    failure; the best-effort wrappers below swallow it."""
    target = sidecar_path(entry_path)
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record.to_dict(), fh)
            fh.write("\n")
        os.replace(tmp, target)
    except Exception:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _synthesized_record(entry_path: Path) -> AccessRecord | None:
    """Access record inferred from the entry file alone (pre-GC stores,
    lost or corrupt sidecars): created = last access = mtime, 0 hits."""
    try:
        st = entry_path.stat()
    except OSError:
        return None
    return AccessRecord(
        created=st.st_mtime,
        last_access=st.st_mtime,
        hits=0,
        size_bytes=st.st_size,
    )


def record_put(entry_path: Path, now: float | None = None) -> None:
    """Stamp a fresh sidecar after a ``put`` (best-effort: a failed
    sidecar write must never fail the put that succeeded).

    Inside :func:`buffered_access_records` the write is deferred: the
    pending state for the entry is *replaced* (a put starts a fresh
    record), and one coalesced sidecar lands at flush time."""
    now = _utcnow_s() if now is None else now
    if _BUFFER is not None:
        _BUFFER.note_put(entry_path, now)
        return
    try:
        size = entry_path.stat().st_size
        write_access_record(
            entry_path,
            AccessRecord(
                created=now, last_access=now, hits=0, size_bytes=size
            ),
        )
    except OSError:
        pass


def record_hit(entry_path: Path, now: float | None = None) -> None:
    """Bump the sidecar on a ``get`` hit (best-effort, like
    :func:`record_put`); a missing/corrupt sidecar is re-synthesized.

    Inside :func:`buffered_access_records` hits accumulate in memory and
    one coalesced sidecar write happens at flush time."""
    now = _utcnow_s() if now is None else now
    if _BUFFER is not None:
        _BUFFER.note_hit(entry_path, now)
        return
    record = read_access_record(entry_path) or _synthesized_record(entry_path)
    if record is None:  # entry vanished under us (concurrent gc/clear)
        return
    try:
        write_access_record(
            entry_path,
            replace(record, last_access=now, hits=record.hits + 1),
        )
    except OSError:
        pass


class _AccessBuffer:
    """In-process pending sidecar updates: at most one disk write per
    touched entry at flush, regardless of how many puts/hits landed."""

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        # entry path -> [put timestamp or None, buffered hits, last access]
        self._pending: dict[Path, list[Any]] = {}

    def note_put(self, entry_path: Path, now: float) -> None:
        self._pending[entry_path] = [now, 0, now]

    def note_hit(self, entry_path: Path, now: float) -> None:
        state = self._pending.get(entry_path)
        if state is None:
            self._pending[entry_path] = [None, 1, now]
        else:
            state[1] += 1
            state[2] = now

    def flush(self) -> int:
        """Write the coalesced sidecars; the number actually written.
        Entries that vanished under the buffer (concurrent gc/clear)
        are skipped, matching the unbuffered best-effort contract."""
        written = 0
        for entry_path, (put_now, hits, last) in self._pending.items():
            if put_now is not None:
                try:
                    size = entry_path.stat().st_size
                except OSError:
                    continue  # entry vanished: nothing to describe
                record = AccessRecord(
                    created=put_now,
                    last_access=last,
                    hits=hits,
                    size_bytes=size,
                )
            else:
                base = read_access_record(entry_path) or _synthesized_record(
                    entry_path
                )
                if base is None:
                    continue
                record = replace(
                    base, last_access=last, hits=base.hits + hits
                )
            try:
                write_access_record(entry_path, record)
            except OSError:
                continue
            written += 1
        self._pending.clear()
        return written


_BUFFER: _AccessBuffer | None = None


@contextmanager
def buffered_access_records() -> Iterator[None]:
    """Defer sidecar writes for the duration of the block.

    ``Cache.get``/``Cache.put`` inside the block update an in-memory
    buffer instead of rewriting ``.meta-*.json`` per access; the block's
    exit flushes one coalesced write per touched entry (even on error —
    accesses that happened, happened).  Re-entrant: an inner block joins
    the outer buffer, whose exit does the flush.  Per-process only — a
    worker pool's processes each write immediately as before.
    """
    global _BUFFER
    if _BUFFER is not None:
        yield
        return
    # Scoped swap of the process-wide buffer slot: set on entry, always
    # restored to None on exit — bookkeeping, not cached state.
    _BUFFER = _AccessBuffer()  # repro-lint: disable=effect-global-mutation
    try:
        yield
    finally:
        buffer, _BUFFER = _BUFFER, None  # repro-lint: disable=effect-global-mutation
        buffer.flush()


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
    max_lifetime_days: float | None = None
    tmp_grace_s: float = DEFAULT_TMP_GRACE_S

    @classmethod
    def from_env(cls) -> "GCBudget":
        """Budgets from ``REPRO_CACHE_MAX_BYTES`` (default 1 GiB; <= 0
        disables), ``REPRO_CACHE_MAX_ENTRIES``,
        ``REPRO_CACHE_MAX_AGE_DAYS``, and
        ``REPRO_CACHE_MAX_LIFETIME_DAYS`` (unset/<= 0 disables each)."""
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
        max_lifetime_days = _env_float("REPRO_CACHE_MAX_LIFETIME_DAYS")
        if max_lifetime_days is not None and max_lifetime_days <= 0:
            max_lifetime_days = None
        return cls(
            max_bytes=max_bytes,
            max_entries=max_entries,
            max_age_days=max_age_days,
            max_lifetime_days=max_lifetime_days,
        )


# -- collection ------------------------------------------------------------


@dataclass(frozen=True)
class Eviction:
    """One evicted (or would-be evicted, under ``--dry-run``) entry."""

    digest: str
    size_bytes: int
    reason: str  # "lifetime" | "age" | "entries" | "bytes"


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
    """One live entry with its (possibly synthesized) access record."""

    path: Path
    digest: str
    record: AccessRecord


def iter_debris(root: Path) -> Iterator[Path]:
    """Every ``.tmp-*`` file under the store (root level for state/
    history writes, the ``ab/cd/`` shards for entry/sidecar writes).
    The hidden prefix is why the plain ``*``-globs elsewhere never see
    these."""
    if not root.is_dir():
        return
    yield from sorted(chain(root.glob(".tmp-*"), root.glob("*/*/.tmp-*")))


def iter_lock_files(root: Path) -> Iterator[Path]:
    """Every per-entry ``.lock-*`` file in the store's shards.  Lock
    files are never unlinked by their holders (see
    :mod:`repro.cache.lock`), so the GC owns their whole reap path."""
    if not root.is_dir():
        return
    yield from sorted(root.glob("*/*/.lock-*"))


def prune_empty_shards(root: Path) -> None:
    """Remove the store's empty shard directories, ``ab/cd/`` before
    ``ab/``.  ``rmdir`` only succeeds on an empty directory, so this
    never removes a file; a racing ``put`` recreates its shard
    (:func:`repro.cache.lock.ensure_directory`)."""
    for shard in sorted(root.glob("*/*"), reverse=True) + sorted(
        root.glob("*"), reverse=True
    ):
        if shard.is_dir():
            try:
                shard.rmdir()
            except OSError:
                pass


def _iter_orphan_sidecars(root: Path) -> Iterator[Path]:
    """Sidecars whose entry is gone (evicted/cleared by an older build,
    or the entry write failed after the sidecar landed)."""
    if not root.is_dir():
        return
    for sidecar in sorted(root.glob("*/*/.meta-*.json")):
        entry = sidecar.parent / sidecar.name[len(".meta-"):]
        if not entry.exists():
            yield sidecar


def _iter_orphan_locks(root: Path) -> Iterator[Path]:
    """Lock files whose entry is gone — left behind by evictions or
    clears.  Candidates only: the reap itself must still win the
    non-blocking acquire (:func:`repro.cache.lock.try_reap_lock`), so a
    lock protecting a put in flight is never considered orphaned
    twice."""
    from repro.cache.lock import LOCK_PREFIX

    for lock_file in iter_lock_files(root):
        if not (lock_file.parent / lock_file.name[len(LOCK_PREFIX):]).exists():
            yield lock_file


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
    access (oldest first), then by size (largest first) among equal
    timestamps, then by digest for determinism.
    ``max_lifetime_days`` evictions (creation-time ceiling — hits do
    not extend it) happen first, then ``max_age_days`` (last-access
    staleness), then ``max_entries``, then ``max_bytes`` (each over
    the survivors of the previous step).  ``dry_run`` counts
    everything and deletes nothing.  Concurrent readers are safe: a
    ``get`` racing an eviction sees an ordinary miss and recomputes.
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

    # 1. write debris: orphaned .tmp-* files past the grace window, plus
    # sidecars whose entry is gone.  Reaped before budgets so debris can
    # never crowd live entries out of the store.
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
    for sidecar in _iter_orphan_sidecars(root):
        if dry_run:
            try:
                reaped_bytes += sidecar.stat().st_size
            except OSError:
                continue
            reaped_files += 1
            continue
        size = _unlink_counted(sidecar)
        if size >= 0:
            reaped_files += 1
            reaped_bytes += size

    # 2. inventory the live entries (no JSON parsing: GC trusts the
    # layout, not the payloads — corrupt entries are get()'s problem).
    items: list[_Inventory] = []
    for path in cache.iter_entry_paths():
        record = read_access_record(path) or _synthesized_record(path)
        if record is None:
            continue  # vanished mid-walk
        items.append(
            _Inventory(path=path, digest=path.stem, record=record)
        )
    examined_entries = len(items)
    examined_bytes = sum(it.record.size_bytes for it in items)

    # 3. decide victims: oldest access first, larger first on ties.
    items.sort(
        key=lambda it: (
            it.record.last_access,
            -it.record.size_bytes,
            it.digest,
        )
    )
    victims: list[tuple[_Inventory, str]] = []
    survivors = items
    if budget.max_lifetime_days is not None:
        cutoff = now - budget.max_lifetime_days * 86400.0
        expired = [it for it in survivors if it.record.created < cutoff]
        victims.extend((it, "lifetime") for it in expired)
        survivors = [it for it in survivors if it.record.created >= cutoff]
    if budget.max_age_days is not None:
        cutoff = now - budget.max_age_days * 86400.0
        expired = [it for it in survivors if it.record.last_access < cutoff]
        victims.extend((it, "age") for it in expired)
        survivors = [
            it for it in survivors if it.record.last_access >= cutoff
        ]
    if budget.max_entries is not None:
        excess = len(survivors) - budget.max_entries
        if excess > 0:
            victims.extend((it, "entries") for it in survivors[:excess])
            survivors = survivors[excess:]
    if budget.max_bytes is not None:
        surviving_bytes = sum(it.record.size_bytes for it in survivors)
        index = 0
        while surviving_bytes > budget.max_bytes and index < len(survivors):
            victim = survivors[index]
            victims.append((victim, "bytes"))
            surviving_bytes -= victim.record.size_bytes
            index += 1
        survivors = survivors[index:]

    # 4. evict.
    evictions: list[Eviction] = []
    evicted_bytes = 0
    for item, reason in victims:
        if not dry_run:
            # Entry + sidecar go as one locked critical section.
            with entry_lock(item.path):
                size = _unlink_counted(item.path)
                if size < 0:
                    continue  # a concurrent clear/gc got there first
                try:
                    sidecar_path(item.path).unlink()
                except OSError:
                    pass
        evictions.append(
            Eviction(
                digest=item.digest,
                size_bytes=item.record.size_bytes,
                reason=reason,
            )
        )
        evicted_bytes += item.record.size_bytes
    if not dry_run:
        # Reap orphaned lock files — pre-existing ones and the ones the
        # evictions above just orphaned.  Uncounted: locks are empty
        # coordination files, not cached bytes, and counting them would
        # make the debris counters depend on locking history.
        for lock_file in _iter_orphan_locks(root):
            try_reap_lock(lock_file)
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
        surviving_bytes=sum(it.record.size_bytes for it in survivors),
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
