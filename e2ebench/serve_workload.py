"""The ``serve`` workload: the daemon as deployed, filled and then read.

*fill*: a fresh daemon on an empty store gets every key of the key space
closed-loop over two keep-alive connections; every fourth key goes out
twice at once, so the daemon coalesces.  ``cold_s`` runs from the first
fill request to the last fill response.

*read*: the open-loop schedule (Poisson arrivals over the timed keys
with Zipf popularity, plus a ``/v1/metrics`` scrape each second) is cut
in ``loadgen.READ_DAEMONS`` consecutive segments.  Each segment runs on a
fresh daemon on the now-warm store, after an untimed warm-up (see
``ServePlan.warmup_requests``).  Repeats land in the memory tier and
first touches (once per key and daemon) in the store tier.
Read latencies run from each request's due time.  ``warm_p50_ms`` is
the lowest of the segments' medians: another tenant's burst on the
shared host only ever adds latency (in one run of ten, the read median
rose tenfold), so the least disturbed segment is the steadiest
estimate.  ``warm_tail_ms`` pools all segments.  ``peak_rss_mb`` is the
largest peak resident set of the read daemons; ``setup_s`` is the
median of their boots, spawn to first response.

Every time is scaled by the pacer (``pacer.py``) over its own interval.
The pacer is stopped during each open-loop segment, whose sub-millisecond
latencies it would disturb; a read latency is scaled by the pacer over
its daemon's boot and warm-up, just before the segment.

Every served body is checked afterwards (``expected.py``): byte for byte
against the offline warm read of the same store, and, timing fields
dropped, against an independent computation of its key.  Every daemon
must drain to exit code 0.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from harness import (
    BENCH_DIR,
    BenchError,
    Child,
    Report,
    WorkDir,
    byte_compile,
    median,
    percentile_label,
    repro_argv,
    tail,
    tracer_argv,
)
from layers import SpanSet, silent_wrappers
from loadgen import Client, Request, ServePlan
from pacer import Pacer

LISTENING = re.compile(rb"listening on http://([0-9.]+):(\d+)")
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0

#: The artifact fields that differ between computing and reading back
#: (``RunArtifact.without_timing`` clears them).
TIMING_FIELDS = ("wall_time_s", "cache_hit", "saved_wall_time_s")


class Daemon:
    """``repro serve --port 0`` on ``store``, traced when ``spans`` is given."""

    def __init__(self, store: Path, work: WorkDir, spans: Path | None = None) -> None:
        args = ("serve", "--port", "0", "--cache-dir", str(store))
        argv = tracer_argv(spans, *args) if spans is not None else repro_argv(*args)
        self.stderr_path = work.fresh("daemon") / "stderr"
        self.child = Child(argv, stdout=subprocess.DEVNULL, stderr_path=self.stderr_path)
        try:
            self.host, self.port = self._await_listening()
            self.client = Client(self.host, self.port)
        except BaseException:
            self.child.close()
            raise

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            match = LISTENING.search(self.stderr_path.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.child.proc.poll() is not None:
                break
            time.sleep(0.002)
        tail_text = self.stderr_path.read_bytes()[-800:].decode(errors="replace")
        raise BenchError(f"daemon never reported its port:\n{tail_text}")

    @property
    def started(self) -> float:
        return self.child.started

    def run(self, requests: list[Request], open_loop: bool = False) -> list[Request]:
        self.client.run(requests, open_loop)
        return requests

    def stats(self, report: Report) -> dict:
        request = self.run([Request("/v1/stats")])[0]
        report.attempt(request.ok, f"GET /v1/stats: {request.status} {request.error}")
        return json.loads(request.body) if request.ok else {}

    def drain(self, report: Report) -> int:
        """SIGTERM and wait; the drain must exit 0."""
        self.client.close()
        code = self.child.stop(grace_s=DRAIN_TIMEOUT_S)
        report.attempt(code == 0, f"daemon drain exited {code}")
        return code

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.client.close()
        self.child.close()


def expected_artifacts(store: Path, keys: Sequence[tuple[str, int]]) -> dict[str, dict]:
    """``expected.py`` on ``store``: per ``"experiment/seed"``, the
    digest of the warm-read body and the independently computed
    artifact without its timing fields."""
    child = Child([sys.executable, str(BENCH_DIR / "expected.py"), str(store)], stdin=subprocess.PIPE)
    try:
        out, _ = child.proc.communicate("".join(f"{e} {s}\n" for e, s in keys).encode())
        code = child.wait()
    finally:
        child.close()
    if code != 0:
        raise BenchError(f"expected.py exited {code}")
    return json.loads(out)


def without_timing(body: bytes) -> dict:
    """A served artifact with :data:`TIMING_FIELDS` cleared."""
    artifact = json.loads(body)
    artifact.update(dict.fromkeys(TIMING_FIELDS))
    return artifact


def check_requests(report: Report, requests: Sequence[Request], expected: dict[str, dict]) -> None:
    """Count each request: 200, not refused, in time, and for a run
    request a body byte-identical to the offline warm read of the same
    store.  Then count each key once: its served artifact, timing fields
    dropped, must equal an independent computation, so an artifact the
    daemon computed wrong and stored fails even though the warm read
    returns the same bytes."""
    bodies: dict[str, bytes] = {}
    for request in requests:
        ok = request.ok
        if ok and request.key is not None:
            name = f"{request.key[0]}/{request.key[1]}"
            ok = name in expected and request.digest == expected[name]["body"]
            if ok:
                bodies.setdefault(name, request.body)
        what = f"{request.target}: status {request.status} {request.error}".strip()
        report.attempt(ok, what if not request.ok else f"{request.target}: body differs")
    for name, body in sorted(bodies.items()):
        same = without_timing(body) == expected[name]["fresh"]
        report.attempt(same, f"{name}: served artifact differs from an independent computation")


def fill(daemon: Daemon, plan: ServePlan, pacer: Pacer) -> tuple[list[Request], float]:
    """The fill phase; returns its requests and its paced seconds."""
    requests = daemon.run(plan.fill_requests())
    return requests, pacer.scaled(min(r.sent for r in requests), max(r.done for r in requests))


def run_requests(requests: Sequence[Request], tier: str | None = None) -> list[Request]:
    """The successful run requests, optionally of one serving tier."""
    return [
        r for r in requests
        if r.key is not None and r.ok and (tier is None or r.served_from == tier)
    ]


def _tail_or_fail(values: Sequence[float], what: str) -> tuple[float, float]:
    found = tail(values)
    if found is None:
        raise BenchError(f"{what}: {len(values)} samples support no tail percentile")
    return found


@dataclass
class ReadPhase:
    """One read daemon's run: its warm-up, its open-loop segment, its
    boot (spawn to the end of its first response, paced), the pacer's
    scale just before the segment, ``/v1/stats`` and its peak RSS."""

    warmup: list[Request]
    segment: list[Request]
    boot_s: float
    scale: float
    stats: dict
    rss_mb: float

    def latencies_ms(self, tier: str | None = None) -> list[float]:
        """Paced latencies of the segment's successful run requests."""
        return [r.latency_ms * self.scale for r in run_requests(self.segment, tier)]


def read_daemon(
    store: Path, work: WorkDir, plan: ServePlan, segment: list[Request], report: Report,
    pacer: Pacer, spans: Path | None = None,
) -> ReadPhase:
    """Boot a daemon on the warm store, warm it up
    (``ServePlan.warmup_requests``), then run one open-loop segment."""
    with Daemon(store, work, spans=spans) as daemon:
        warmup = daemon.run(plan.warmup_requests())
        boot_s = pacer.scaled(daemon.started, min(r.done for r in warmup))
        scale = pacer.scale(daemon.started, time.perf_counter())
        with pacer.paused():
            daemon.run(segment, open_loop=True)
        stats = daemon.stats(report)
        daemon.drain(report)
        return ReadPhase(warmup, segment, boot_s, scale, stats, daemon.child.maxrss_kb / 1024.0)


def run_untraced(seed: int, seconds: float, report: Report) -> None:
    plan = ServePlan.from_seed(seed, seconds)
    served: list[Request] = []
    phases: list[ReadPhase] = []
    with WorkDir() as work, Pacer(work.fresh("pacer")) as pacer:
        byte_compile()
        store = work.fresh("store")
        with Daemon(store, work) as daemon:
            fill_requests, cold_s = fill(daemon, plan, pacer)
            served += fill_requests
            daemon.stats(report)
            daemon.drain(report)
        for segment in plan.read_segments(seconds):
            phases.append(read_daemon(store, work, plan, segment, report, pacer))
            served += phases[-1].warmup + segment
        check_requests(report, served, expected_artifacts(store, plan.timed_keys + plan.warmup_keys))
    latencies = [ms for phase in phases for ms in phase.latencies_ms()]
    p, tail_ms = _tail_or_fail(latencies, "read latency")
    p50s = [median(phase.latencies_ms()) for phase in phases]
    report.add("cold_s", cold_s, "s", len(fill_requests), "fill phase, paced")
    report.add(
        "warm_p50_ms", min(p50s), "ms", len(latencies),
        f"lowest segment median of {', '.join(f'{v:.4f}' for v in p50s)}, paced",
    )
    report.add("warm_tail_ms", tail_ms, "ms", len(latencies), f"{percentile_label(p)}, paced")
    report.add("peak_rss_mb", max(ph.rss_mb for ph in phases), "MB", len(phases), "read-phase daemons, max")
    report.add("setup_s", median([ph.boot_s for ph in phases]), "s", len(phases), "spawn to first response, paced")
    _print_details(plan, fill_requests, phases)


def _print_details(plan: ServePlan, fill_requests: Sequence[Request], phases: Sequence[ReadPhase]) -> None:
    read = [r for phase in phases for r in phase.segment]
    tiers: dict[str, int] = {}
    for r in run_requests(fill_requests) + run_requests(read):
        tiers[r.served_from] = tiers.get(r.served_from, 0) + 1
    late = [r.late_ms for r in read]
    reads = len(run_requests(read))
    first_touches = len(run_requests(read, "store"))
    stats = phases[-1].stats
    print(f"keys: {len(plan.timed_keys)} timed + {len(plan.warmup_keys)} warm-up; "
          f"fill {len(fill_requests)} requests; read {len(read)} requests "
          f"({reads} runs, store-tier first touches {first_touches / max(reads, 1):.2%})")
    print(f"served_from: {dict(sorted(tiers.items()))}")
    print(f"pacer scale before the read segments: {', '.join(f'{ph.scale:.3f}' for ph in phases)}")
    p, late_tail = tail(late) or (100.0, max(late))
    print(f"generator lateness: p50 {median(late):.4f} ms, {percentile_label(p)} {late_tail:.4f} ms")
    print(f"daemon stats: requests {stats.get('requests')}, memory_hits {stats.get('memory_hits')}, "
          f"hits {stats.get('hits')}, rejected {stats.get('rejected')}, errors {stats.get('errors')}")


def run_traced(seed: int, seconds: float, report: Report) -> dict[str, float]:
    """The traced run: an untraced fill for reference, then a traced
    fill daemon and traced read daemons on another store."""
    plan = ServePlan.from_seed(seed, seconds)
    spans = SpanSet()
    served: list[Request] = []
    with WorkDir() as work, Pacer(work.fresh("pacer")) as pacer:
        byte_compile()
        reference = work.fresh("reference")
        with Daemon(reference, work) as daemon:
            reference_requests, untraced_fill_s = fill(daemon, plan, pacer)
            daemon.drain(report)
        keys = plan.timed_keys + plan.warmup_keys
        check_requests(report, reference_requests, expected_artifacts(reference, keys))
        store = work.fresh("store")
        fill_spans = work.fresh("spans") / "fill.json"
        with Daemon(store, work, spans=fill_spans) as daemon:
            fill_requests, traced_fill_s = fill(daemon, plan, pacer)
            served += fill_requests
            fill_stats = daemon.stats(report)
            daemon.drain(report)
        spans.add_process(json.loads(fill_spans.read_text())["spans"])
        read_only = SpanSet()
        phases: list[ReadPhase] = []
        for segment in plan.read_segments(seconds):
            read_spans = work.fresh("spans") / "read.json"
            phases.append(read_daemon(store, work, plan, segment, report, pacer, read_spans))
            served += phases[-1].warmup + segment
            rows = json.loads(read_spans.read_text())["spans"]
            spans.add_process(rows)
            read_only.add_process(rows)
        check_requests(report, served, expected_artifacts(store, keys))
    silent = silent_wrappers(spans, "serve")
    if silent:
        raise BenchError(f"wrappers recorded no call on serve: {silent}")
    values = spans.metrics()
    values.update(tier_metrics(fill_requests, phases))
    late = [r.late_ms for phase in phases for r in phase.segment]
    values["gen.late.p50_ms"] = median(late)
    values["gen.late.tail_ms"] = _tail_or_fail(late, "generator lateness")[1]
    read_stats = [phase.stats for phase in phases]
    all_stats = [fill_stats] + read_stats
    values["serve.misses"] = fill_stats.get("misses", 0)
    values["serve.rejected"] = sum(st.get("rejected", 0) for st in all_stats)
    values["serve.errors"] = sum(st.get("errors", 0) for st in all_stats)
    values["serve.first_response.s"] = median([phase.boot_s for phase in phases])
    values["serve.handle.self_s"] = read_only.metrics()["serve.handle.self_s"]
    values["serve.hot.hits"] = sum(st.get("hot", {}).get("hits", 0) for st in read_stats)
    values["serve.hot.bytes"] = max(st.get("hot", {}).get("bytes", 0) for st in read_stats)
    values["trace.overhead"] = traced_fill_s / untraced_fill_s
    print(f"trace overhead: traced fill {traced_fill_s:.3f} s / untraced fill {untraced_fill_s:.3f} s (paced)")
    print("\n".join(spans.layer_table()))
    _print_details(plan, fill_requests, phases)
    return values


def tier_metrics(fill_requests: Sequence[Request], phases: Sequence[ReadPhase]) -> dict[str, float]:
    """Per-tier counts and latencies (read latencies paced), from
    ``X-Repro-Served-From``."""
    out: dict[str, float] = {}
    for tier in ("memory", "store"):
        latencies = [ms for phase in phases for ms in phase.latencies_ms(tier)]
        out[f"serve.{tier}.count"] = len(latencies)
        out[f"serve.{tier}.p50_ms"] = median(latencies) if latencies else 0.0
        found = tail(latencies)
        out[f"serve.{tier}.tail_ms"] = found[1] if found else 0.0
    computed = [r.latency_ms for r in run_requests(fill_requests, "computed")]
    out["serve.computed.count"] = len(computed)
    out["serve.computed.p50_ms"] = median(computed) if computed else 0.0
    out["serve.coalesced.count"] = len(run_requests(fill_requests, "coalesced"))
    return out
