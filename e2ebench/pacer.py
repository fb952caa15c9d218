"""The pacer: a fixed reference loop that measures the host's speed
while the program runs, so timings can be scaled to a steady host.

On a shared host the speed of a core drifts by a fifth or more over
minutes, as other tenants come and go; one cold ``repro run all`` of the
same seed took 48.7 s in one run and 39.7 s two runs later.  The
pacer runs a fixed pure-Python loop in chunks for as long as the
workload runs, at idle priority (``SCHED_IDLE``), so it only takes CPU
time the benchmark and the program leave free, and records each chunk's
CPU time.  A timed interval of the program is then scaled by
``PACER_NOMINAL_S / (mean CPU time of the chunks within the interval)``:
when the host runs the fixed loop slow, it runs the program slow too,
and the scaled time takes that out.  CPU time, not wall time, because a
chunk that waits while the program uses every CPU has not run slower.

Run as ``python pacer.py OUT``: appends one ``(start, end, cpu)`` triple
of doubles per chunk to ``OUT`` (``time.perf_counter`` at start and end,
``time.process_time`` spent), until it is stopped.  Importing this
module has no side effects.
"""

from __future__ import annotations

import array
import contextlib
import os
import signal
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

from harness import BenchError, Child

#: Iterations of one chunk of the reference loop.
CHUNK_ITERATIONS = 200_000

#: About the CPU seconds one chunk takes on a core of the reference host (a
#: 2.1 GHz Xeon) while the other core is busy; scaled timings read as
#: seconds on that host.
PACER_NOMINAL_S = 0.015

#: Below this many chunks inside an interval, chunks that overlap it
#: count as well.
MIN_CHUNKS = 20

_RECORD = struct.Struct("<ddd")


def chunk() -> int:
    total = 0
    for i in range(CHUNK_ITERATIONS):
        total += i * i % 7
    return total


def scale_of(records: list[tuple[float, float, float]], start: float, end: float) -> float:
    """``PACER_NOMINAL_S`` over the mean CPU time of the chunks run
    within ``[start, end]``, or of those overlapping it when fewer than
    :data:`MIN_CHUNKS` lie inside."""
    inside = [cpu for a, b, cpu in records if a >= start and b <= end]
    if len(inside) < MIN_CHUNKS:
        inside = [cpu for a, b, cpu in records if b > start and a < end]
    if not inside:
        raise BenchError(f"the pacer ran no chunk in [{start:.3f}, {end:.3f}]")
    return PACER_NOMINAL_S / statistics.fmean(inside)


def main(argv: list[str]) -> int:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    with open(argv[1], "ab", buffering=0) as records:
        while True:
            start, cpu = time.perf_counter(), time.process_time()
            chunk()
            records.write(_RECORD.pack(start, time.perf_counter(), time.process_time() - cpu))


class Pacer:
    """Runs ``pacer.py`` beside the workload.  With a single CPU the
    pacer would rarely run, so there is none and every scale is 1."""

    def __init__(self, work_dir: Path) -> None:
        self.path = work_dir / "pacer.bin"
        self.child = None
        if len(os.sched_getaffinity(0)) < 2:
            return
        self.child = Child(
            [sys.executable, str(Path(__file__).resolve()), str(self.path)],
            stdout=subprocess.DEVNULL,
        )
        deadline = time.perf_counter() + 10.0
        while not self._records():
            if time.perf_counter() > deadline or self.child.proc.poll() is not None:
                self.close()
                raise BenchError("the pacer never completed a chunk")
            time.sleep(0.01)

    def _records(self) -> list[tuple[float, float, float]]:
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        values = array.array("d")
        values.frombytes(data[: len(data) - len(data) % _RECORD.size])
        return list(zip(values[0::3], values[1::3], values[2::3]))

    def scale(self, start: float, end: float) -> float:
        """The scale of ``[start, end]`` (``time.perf_counter`` values)."""
        if self.child is None:
            return 1.0
        return scale_of(self._records(), start, end)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Stop the pacer meanwhile.  For a phase timed in fractions of a
        millisecond: a CPU the pacer holds, even at idle priority, must
        first be taken back from it, and that delays every wake-up."""
        if self.child is None:
            yield
            return
        os.kill(self.child.proc.pid, signal.SIGSTOP)
        try:
            yield
        finally:
            os.kill(self.child.proc.pid, signal.SIGCONT)

    def scaled(self, start: float, end: float) -> float:
        """The seconds from ``start`` to ``end``, scaled."""
        return (end - start) * self.scale(start, end)

    def close(self) -> None:
        if self.child is not None:
            self.child.close()
            self.child = None

    def __enter__(self) -> "Pacer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
