"""Provenance stamps for run artifacts: package version and git revision.

Artifacts are only evidence if they say what produced them.  Both lookups
are cached per process: the version never changes within a run and the
``git`` subprocess call is too slow to repeat per experiment.
"""

from __future__ import annotations

import subprocess
from functools import lru_cache
from pathlib import Path

__all__ = ["repro_version", "git_revision"]


def repro_version() -> str:
    from repro import __version__

    return __version__


@lru_cache(maxsize=1)
def git_revision() -> str | None:
    """Short git revision of the source tree, with ``-dirty`` appended
    when tracked files differ from that revision, or ``None`` when the
    package runs outside a git checkout (installed wheel, sdist)."""
    revision = _git("rev-parse", "--short", "HEAD")
    if not revision:
        return None
    # --no-optional-locks: asking for the status must not rewrite the
    # index, which another git process in the checkout may hold.
    if _git("--no-optional-locks", "status", "--porcelain", "--untracked-files=no"):
        revision += "-dirty"
    return revision


def _git(*args: str) -> str | None:
    """Stripped stdout of ``git <args>`` run beside this module, or
    ``None`` when git is missing, fails, or times out."""
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()
