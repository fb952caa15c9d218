"""Per-entry advisory file locking for the artifact store.

A single-writer store got away with bare ``mkstemp`` → ``os.replace``
atomicity, but a multi-writer service (``repro serve`` workers, parallel
CI jobs, a GC pass racing live puts) needs the *pair* of files that make
up one entry — the payload and its ``.meta-*`` access sidecar — to move
together.  This module provides that critical section: a hidden
``.lock-<digest>.json`` file next to the entry's canonical location,
held via ``fcntl.flock`` for the duration of a put, a discard, or an
eviction.

Design notes:

* Locks are *advisory* and scoped to one digest: readers never block
  (a ``get`` racing an eviction still sees an ordinary miss), and
  writers for different digests never contend.
* Lock files are never unlinked by their holders — unlink-on-release
  races a concurrent opener onto a dead inode.  Orphaned lock files
  (their entry evicted, or never written) are reaped by the GC, which
  must acquire the lock non-blockingly before unlinking
  (:func:`try_reap_lock`); lockers re-verify after acquisition that the
  path still names the inode they locked and retry otherwise.
* On platforms without ``fcntl`` (Windows) the lock degrades to a
  no-op: single-process use stays correct via rename atomicity, and the
  multi-writer service is documented as POSIX-only (``docs/SERVE.md``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

try:  # pragma: no cover - platform gate
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "LOCK_PREFIX",
    "locking_available",
    "ensure_directory",
    "lock_path_for",
    "entry_lock",
    "try_reap_lock",
]

#: Hidden prefix for lock files (dotted, so entry globs never see them).
LOCK_PREFIX = ".lock-"

#: Retry bound for the acquire/re-verify loop.  Each retry means a
#: concurrent reaper unlinked the lock file between our open and our
#: flock; more than a handful in a row would indicate a pathological
#: reap storm, and failing loudly beats spinning forever.
_MAX_ACQUIRE_ATTEMPTS = 64


def locking_available() -> bool:
    """Whether real ``flock``-based locking is in effect on this host."""
    return fcntl is not None


def ensure_directory(directory: Path) -> None:
    """``mkdir -p`` that tolerates a concurrent GC pruning the path.

    ``Path.mkdir(exist_ok=True)`` has a TOCTOU hole: when the directory
    exists at ``os.mkdir`` time but a concurrent empty-shard prune
    removes it before the ``is_dir()`` re-check, pathlib re-raises
    ``FileExistsError`` for a directory that no longer exists.  Retrying
    converges — the prune only removes *empty* directories, so the races
    are transient."""
    for _ in range(_MAX_ACQUIRE_ATTEMPTS):
        try:
            directory.mkdir(parents=True, exist_ok=True)
            return
        except FileExistsError:
            continue
    raise OSError(
        f"could not create {directory} after "
        f"{_MAX_ACQUIRE_ATTEMPTS} attempts"
    )


def lock_path_for(entry_path: Path) -> Path:
    """The lock file guarding ``entry_path``'s digest; it lives next to
    the entry."""
    return entry_path.parent / f"{LOCK_PREFIX}{entry_path.name}"


@contextmanager
def entry_lock(entry_path: Path) -> Iterator[None]:
    """Hold the exclusive advisory lock for ``entry_path``'s digest.

    Blocks until acquired.  Creates the shard directory and the lock
    file as needed; never removes either (see module docstring for the
    reap protocol).  No-op where ``fcntl`` is unavailable.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = lock_path_for(entry_path)
    ensure_directory(lock_path.parent)
    fd = _acquire(lock_path)
    try:
        yield
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


def _acquire(lock_path: Path) -> int:
    """Open-and-flock ``lock_path``, re-verifying the inode after each
    acquisition so a concurrent :func:`try_reap_lock` cannot leave us
    holding a lock on an unlinked (hence unshared) inode."""
    assert fcntl is not None
    for _ in range(_MAX_ACQUIRE_ATTEMPTS):
        try:
            fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        except FileNotFoundError:
            # A concurrent GC pruned the (momentarily empty) shard
            # directory between our mkdir and this open.  Recreate and
            # retry — the prune only ever removes empty directories, so
            # no entry was lost with it.
            ensure_directory(lock_path.parent)
            continue
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                current = os.stat(lock_path)
            except FileNotFoundError:
                # Reaped while we blocked: our inode is orphaned and
                # excludes nobody.  Drop it and take the fresh file.
                pass
            else:
                if os.fstat(fd).st_ino == current.st_ino:
                    return fd
        except OSError:
            os.close(fd)
            raise
        os.close(fd)
    raise OSError(
        f"could not acquire entry lock {lock_path} after "
        f"{_MAX_ACQUIRE_ATTEMPTS} attempts"
    )


def try_reap_lock(lock_path: Path) -> bool:
    """Unlink an orphaned lock file if — and only if — nobody holds it.

    The GC's half of the reap protocol: acquire non-blockingly, unlink
    *while holding*, release.  A held lock (``EWOULDBLOCK``) is left
    alone.  Returns whether the file was removed.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        try:
            lock_path.unlink()
        except OSError:
            return False
        return True
    try:
        fd = os.open(lock_path, os.O_RDWR)
    except OSError:
        return False  # already gone
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            return False  # held by a live writer: not an orphan
        try:
            lock_path.unlink()
        except OSError:
            return False
        return True
    finally:
        os.close(fd)
