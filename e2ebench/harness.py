"""Shared plumbing for the end-to-end benchmark: child processes, the
percentile rule, and the result line.

Everything here drives the package from outside.  Children run with the
checkout's ``src`` on ``PYTHONPATH`` and with every inherited
``REPRO_*`` variable removed (GC budgets, fingerprint mode and store
location all change program behaviour).  Work directories live under
``.e2ebench-work/`` in the checkout, so a run reads and writes nowhere
else.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".e2ebench-work"

#: Percentiles the tail rule may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


class BenchError(Exception):
    """The benchmark itself cannot produce a valid result."""


def require_program() -> None:
    """Refuse to run without the package sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC / 'repro'}")


def child_env() -> dict[str, str]:
    """The environment every child runs in: inherited, minus REPRO_*."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def tracer_argv(spans_out: Path, *args: str) -> list[str]:
    """Run the CLI in-process under the tracer (``tracer.py``)."""
    return [
        sys.executable,
        str(BENCH_DIR / "tracer.py"),
        "--out",
        str(spans_out),
        "--",
        *args,
    ]


class WorkDir:
    """A fresh scratch directory under the checkout, removed on exit."""

    def __init__(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=WORK_ROOT))

    def fresh(self, name: str) -> Path:
        """A new, empty subdirectory (a store, a spans file's home)."""
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.path))

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there


def byte_compile() -> None:
    """Byte-compile the package sources (forced), so no timed child
    compiles them."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "-f", str(SRC / "repro")],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"byte-compiling failed: {proc.stderr.decode()[-500:]}")


# -- child processes ---------------------------------------------------


@dataclass
class Child:
    """A child process in its own session, so it and anything it spawns
    can be stopped together.  ``wait`` reaps it with ``wait4`` and keeps
    its peak resident set size."""

    argv: Sequence[str]
    stdout: object = subprocess.PIPE
    stderr_path: Path | None = None
    stdin: object = subprocess.DEVNULL
    proc: subprocess.Popen = field(init=False)
    started: float = field(init=False)
    ended: float | None = field(init=False, default=None)
    maxrss_kb: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        stderr = (
            open(self.stderr_path, "wb")
            if self.stderr_path is not None
            else subprocess.DEVNULL
        )
        try:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                list(self.argv),
                cwd=ROOT,
                env=child_env(),
                stdin=self.stdin,
                stdout=self.stdout,
                stderr=stderr,
                start_new_session=True,
            )
        finally:
            if stderr is not subprocess.DEVNULL:
                stderr.close()

    def wait(self, timeout: float | None = None) -> int:
        """Reap the child with ``wait4``: blocking when ``timeout`` is
        None (the run's alarm bounds it), else polling until it."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            pid, status, usage = os.wait4(
                self.proc.pid, 0 if deadline is None else os.WNOHANG
            )
            if pid:
                self.ended = time.perf_counter()
                self.maxrss_kb = usage.ru_maxrss
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                return self.proc.returncode
            if time.perf_counter() >= deadline:
                raise subprocess.TimeoutExpired(self.argv, timeout)
            time.sleep(0.002)

    def communicate(self) -> bytes:
        """Read stdout to EOF, then reap; returns the stdout bytes."""
        out = self.proc.stdout.read() if self.proc.stdout is not None else b""
        self.wait()
        return out

    def stop(self, grace_s: float = 30.0) -> int:
        """SIGTERM, a bounded wait, then SIGKILL of whatever is left of
        the session; returns the exit code (negative when killed)."""
        if self.proc.returncode is None:
            try:
                os.kill(self.proc.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                self.wait(grace_s)
            except subprocess.TimeoutExpired:
                pass
        self._kill_group()
        return self.wait(10.0)

    def _kill_group(self) -> None:
        """Kill what is left of the session (a spawned pool worker) and
        wait until the group is empty."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        deadline = time.perf_counter() + 5.0
        while time.perf_counter() < deadline:
            if self.proc.returncode is None:
                try:
                    self.wait(0.0)
                except subprocess.TimeoutExpired:
                    pass
            try:
                os.killpg(self.proc.pid, 0)
            except (ProcessLookupError, PermissionError):
                return
            time.sleep(0.01)

    def close(self) -> None:
        """Stop the child if it still runs; safe to call twice."""
        try:
            if self.proc.returncode is None:
                self.stop(grace_s=5.0)
        finally:
            for stream in (self.proc.stdout, self.proc.stdin):
                if stream is not None:
                    stream.close()


def install_exit_handlers(budget_s: int) -> None:
    """Turn SIGTERM, and an alarm after ``budget_s`` seconds, into
    exceptions, so every ``finally`` stops its children before the
    benchmark goes."""

    def on_term(signum: int, frame: object) -> None:
        raise SystemExit(128 + signum)

    def on_alarm(signum: int, frame: object) -> None:
        raise BenchError(f"run exceeded its {budget_s} s budget")

    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(budget_s)


# -- statistics --------------------------------------------------------


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """The highest percentile of :data:`PERCENTILE_LADDER` with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it, as ``(percentile,
    value)`` by nearest rank; ``None`` when the sample is too small for
    any of them."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in PERCENTILE_LADDER:
        rank = max(1, -(-round(p * 10) * n // 1000))  # ceil(p% of n), exactly
        if n - rank >= TAIL_MIN_BEYOND:
            best = (p, ordered[rank - 1])
    return best


def percentile_label(p: float) -> str:
    return f"p{p:g}"


# -- reporting ---------------------------------------------------------


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: int
    note: str = ""


class Report:
    """What one run prints: a human table, then the one-line result."""

    def __init__(self, workload: str, trace: bool) -> None:
        self.workload = workload
        self.trace = trace
        self.metrics: list[Metric] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.metrics.append(Metric(name, float(value), unit, samples, note))

    def attempt(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def emit(self, names: Sequence[str]) -> None:
        """Print the table and the result line; ``names`` is the metric
        list the result line must carry, in order.  Other added metrics
        are printed in the table only."""
        by_name = {m.name: m for m in self.metrics}
        missing = [n for n in names if n not in by_name]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        mode = "traced" if self.trace else "untraced"
        print(f"== e2ebench {self.workload} ({mode}) ==")
        extra = [m.name for m in self.metrics if m.name not in names]
        width = max(len(n) for n in (*names, *extra))
        for name in (*names, *extra):
            m = by_name[name]
            note = f"  [{m.note}]" if m.note else ""
            if name in extra:
                note += "  (not in the result line)"
            print(
                f"{name.ljust(width)}  {m.value:>14.6g} {m.unit:<6} n={m.samples}{note}"
            )
        ratio = self.failed / self.attempted if self.attempted else float("nan")
        print(
            f"failed_ratio  {ratio:.6g}  ({self.failed}/{self.attempted} operations)"
        )
        for what in self.failures:
            print(f"  failed: {what}")
        print(f"verdict: {'CORRECT' if self.correct else 'INCORRECT'}")
        result = {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": by_name[name].value, "unit": by_name[name].unit}
                for name in names
            },
        }
        print(json.dumps(result), flush=True)
