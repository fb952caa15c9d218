"""The ``runall`` workload: the researcher's ``repro run all``, cold then warm.

``repro run all --quick --seed S --jobs 1 --cache-dir STORE`` runs once
on a fresh store (``cold_s``, ``peak_rss_mb``), then again in a fresh
process per pass against the store the cold pass filled, for at least
``--seconds`` seconds and at least :data:`MIN_WARM_PASSES` passes.
``--jobs 1`` keeps the serial sum, which is what simulator changes move.
``setup_s`` is the median of seven rounds of creating a store and
byte-compiling the sources.

Every time is a wall time scaled by the pacer (``pacer.py``) over its
phase, so it reads as seconds on a steady host; the table also prints
the unscaled cold and warm times, and the scales.

An experiment fails when its cold report lacks a verdict, when its
verdict is not positive (``MISMATCH``, ``SENSITIVE``, ``MIXED``; see
:data:`SEED_DEPENDENT` for the exceptions), or when a warm report
differs from the cold one by a byte.  A pass fails when its exit code
disagrees with its verdicts (1 exactly when one is not positive) or its
stdout differs from the cold stdout.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

from harness import (
    BenchError,
    Child,
    Report,
    WorkDir,
    byte_compile,
    median,
    repro_argv,
    tracer_argv,
)
from layers import EXPERIMENT_IDS, SpanSet, silent_wrappers
from pacer import Pacer

MIN_WARM_PASSES = 5
SETUP_ROUNDS = 7
TRACED_WARM_PASSES = 1

_REPORT_HEAD = re.compile(rb"^== (\S+): ", re.MULTILINE)

#: A positive verdict, in the experiments' own vocabulary.
POSITIVE_VERDICT = re.compile(r"^verdict: (REPRODUCED|SUPPORTED|ROBUST)\b")

#: Experiments whose quick-mode verdict depends on the seed, with the
#: seeds of 0 to 21 at which it was not positive when this benchmark was
#: defined.  Their non-positive verdict is printed, not counted failed;
#: that of any other experiment, positive at all 22 seeds, fails the run.
SEED_DEPENDENT = {
    "ablation": (1, 13, 14, 17),
    "oracle": (5, 8, 14, 19),
    "randomized": (6, 11, 20),
    "realistic": (1, 3, 4, 6, 7, 9, 10, 11, 13, 16),
    "shuffle": (5,),
    "sizepert": (7, 9, 21),
}


@dataclass
class Pass:
    code: int
    started: float
    ended: float
    maxrss_kb: int
    stdout: bytes

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    def reports(self) -> dict[str, bytes]:
        """Each experiment's report, keyed by id, in printed order."""
        heads = list(_REPORT_HEAD.finditer(self.stdout))
        ends = [h.start() for h in heads[1:]] + [len(self.stdout)]
        return {
            h.group(1).decode(): self.stdout[h.start() : end].rstrip(b"\n")
            for h, end in zip(heads, ends)
        }


def run_pass(store: Path, seed: int, spans: Path | None = None) -> Pass:
    args = ("run", "all", "--quick", "--seed", str(seed), "--jobs", "1", "--cache-dir", str(store))
    child = Child(tracer_argv(spans, *args) if spans is not None else repro_argv(*args))
    try:
        stdout = child.communicate()
    finally:
        child.close()
    return Pass(child.proc.returncode, child.started, child.ended, child.maxrss_kb, stdout)


def check_cold(report: Report, cold: Pass) -> list[str]:
    """Each experiment must print one positive verdict (one, of any kind,
    for :data:`SEED_DEPENDENT`), and the exit code must be 1 exactly when
    a verdict is not positive.  Returns the experiments whose verdict is
    not positive."""
    reports = cold.reports()
    negative = []
    for eid in EXPERIMENT_IDS:
        verdicts = [
            line for line in reports.get(eid, b"").decode(errors="replace").splitlines()
            if line.startswith("verdict: ")
        ]
        if len(verdicts) != 1:
            report.attempt(False, f"cold {eid}: exit {cold.code}, {len(verdicts)} verdict lines")
            continue
        positive = POSITIVE_VERDICT.match(verdicts[0]) is not None
        report.attempt(positive or eid in SEED_DEPENDENT, f"cold {eid}: {verdicts[0]}")
        if not positive:
            negative.append(f"{eid} ({verdicts[0].split()[1].rstrip(':')})")
    expected = 1 if negative else 0
    report.attempt(cold.code == expected, f"cold pass exited {cold.code}, verdicts imply {expected}")
    return negative


def check_same(report: Report, cold: Pass, other: Pass, label: str) -> None:
    """Every experiment's report, the stdout as a whole, and the exit
    code must match the cold pass."""
    reference, reports = cold.reports(), other.reports()
    for eid in EXPERIMENT_IDS:
        ok = eid in reference and reports.get(eid) == reference[eid]
        report.attempt(ok, f"{label} {eid}: report differs from cold")
    same = other.stdout == cold.stdout and other.code == cold.code
    report.attempt(same, f"{label}: stdout or exit code {other.code} differs from cold")


def run_untraced(seed: int, seconds: float, report: Report) -> None:
    """Each phase (set-up, cold, warm) is scaled by the pacer over the
    whole phase: the host drifts over minutes, and a longer window
    holds more chunks."""
    setup: list[float] = []
    with WorkDir() as work, Pacer(work.fresh("pacer")) as pacer:
        setup_start = time.perf_counter()
        for _ in range(SETUP_ROUNDS):
            start = time.perf_counter()
            store = work.fresh("store")
            byte_compile()
            setup.append(time.perf_counter() - start)
        setup_scale = pacer.scale(setup_start, time.perf_counter())
        cold = run_pass(store, seed)
        negative = check_cold(report, cold)
        warm: list[Pass] = []
        start = time.perf_counter()
        while len(warm) < MIN_WARM_PASSES or time.perf_counter() - start < seconds:
            warm.append(run_pass(store, seed))
            check_same(report, cold, warm[-1], f"warm {len(warm)}")
        cold_scale = pacer.scale(cold.started, cold.ended)
        warm_scale = pacer.scale(warm[0].started, warm[-1].ended)
    print(f"cold stdout sha256: {hashlib.sha256(cold.stdout).hexdigest()}")
    print(
        f"verdicts at seed {seed}: {len(EXPERIMENT_IDS) - len(negative)}/{len(EXPERIMENT_IDS)} "
        f"positive" + (f"; not reproduced: {', '.join(negative)}" if negative else "")
    )
    print(f"pacer scale: set-up {setup_scale:.4f}, cold {cold_scale:.4f}, warm {warm_scale:.4f}")
    warm_ms = median([p.wall_s for p in warm]) * 1000.0
    report.add("cold_s", cold.wall_s * cold_scale, "s", 1, "cold pass, paced")
    report.add("warm_p50_ms", warm_ms * warm_scale, "ms", len(warm), "warm passes, paced")
    report.add("peak_rss_mb", cold.maxrss_kb / 1024.0, "MB", 1, "cold pass")
    report.add("setup_s", median(setup) * setup_scale, "s", len(setup), "fresh store + byte-compile, paced")
    report.add("cold_wall_s", cold.wall_s, "s", 1, "cold pass, unscaled")
    report.add("warm_wall_p50_ms", warm_ms, "ms", len(warm), "warm passes, unscaled")


def run_traced(seed: int, seconds: float, report: Report) -> dict[str, float]:
    """An untraced cold pass for reference, then one tracer process per
    pass: a traced cold pass, then :data:`TRACED_WARM_PASSES` warm, on
    another fresh store."""
    spans = SpanSet()
    with WorkDir() as work, Pacer(work.fresh("pacer")) as pacer:
        byte_compile()
        untraced = run_pass(work.fresh("reference"), seed)
        check_cold(report, untraced)
        store = work.fresh("store")
        passes = []
        for i in range(1 + TRACED_WARM_PASSES):
            spans_path = work.fresh("spans") / "spans.json"
            passes.append(run_pass(store, seed, spans=spans_path))
            check_same(report, untraced, passes[-1], "traced cold" if i == 0 else f"traced warm {i}")
            spans.add_process(json.loads(spans_path.read_text())["spans"])
        traced_s = pacer.scaled(passes[0].started, passes[0].ended)
        untraced_s = pacer.scaled(untraced.started, untraced.ended)
    silent = silent_wrappers(spans, "runall")
    if silent:
        raise BenchError(f"wrappers recorded no call on runall: {silent}")
    if spans.executed != set(EXPERIMENT_IDS):
        raise BenchError(f"traced experiments {sorted(spans.executed)} are not the registry's")
    values = spans.metrics()
    values["trace.overhead"] = traced_s / untraced_s
    print(f"trace overhead: traced cold {traced_s:.3f} s / untraced cold {untraced_s:.3f} s (paced)")
    print("\n".join(spans.layer_table()))
    print("\n".join(spans.engine_table()))
    return values
