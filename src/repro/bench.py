"""One bench harness: each fast path timed against its scalar reference.

``repro bench --suite sim|machine`` runs one suite of :data:`SUITES`
and writes one record (``BENCH_<suite>.json``).  Every workload runs its
scalar side, then its fast side, under ``perf_counter``, and compares
the two results in the same breath: a speedup over a *different*
answer is not a speedup.  Set-up (profiles, box streams, the trace
memo) happens before either side is timed.

* ``sim`` (``sim-scalar-vs-chunked``) — the symbolic simulator's
  per-box loop against the chunked engine
  (:mod:`repro.simulation.fastpath`) on the worst-case profile under
  the simplified and recursive models and an addressable random-slot
  placement, and Monte Carlo's per-box sampler against batched
  sampling.
* ``machine`` (``machine-scalar-vs-kernel``) — the trace machines'
  reference-by-reference replay, including a cold trace build
  (``synthetic_trace.__wrapped__``), against the memoized trace and the
  stack-distance kernel (:mod:`repro.machine.fastpath`), on the
  ``xcheck`` and ``realistic`` profile sweeps and a DAM capacity sweep.

With ``--history`` the record is appended to an append-only history
instead.  Cache and fast-path claims are credible only as longitudinal
measurements (Barratt & Zhang, arXiv 1907.01631), so the history keeps
every run and :func:`check_regression` judges the newest record against
the median of its comparable predecessors.  Schemas:
``docs/ARTIFACTS.md``; methodology and measured tables: ``docs/PERF.md``.
"""

# repro-lint: disable-file=nondet-wallclock -- a benchmark measures wall
# time by design; timings are reported as evidence, never cached or
# digested.

from __future__ import annotations

import json
import os
import tempfile
import time
from operator import attrgetter
from pathlib import Path
from statistics import median
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from repro.algorithms.library import MM_SCAN
from repro.algorithms.randomized import random_slot_placement
from repro.algorithms.spec import RegularSpec
from repro.algorithms.traces import synthetic_trace
from repro.cache.store import environment_tag
from repro.errors import CacheError
from repro.machine.ca_machine import simulate_ca
from repro.machine.dam import simulate_dam
from repro.machine.fastpath import distance_cache_clear
from repro.profiles import worst_case_profile
from repro.profiles.base import MemoryProfile
from repro.profiles.distributions import UniformRange
from repro.profiles.generators import random_walk_profile, winner_take_all_profile
from repro.profiles.reduction import squarify
from repro.runtime.provenance import git_revision, repro_version
from repro.simulation.montecarlo import estimate_expected_cost
from repro.simulation.symbolic import SymbolicSimulator

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "HISTORY_SCHEMA_VERSION",
    "DEFAULT_REGRESSION_THRESHOLD",
    "DEFAULT_MIN_BASELINE_RECORDS",
    "Workload",
    "Suite",
    "SUITES",
    "run_bench",
    "empty_history",
    "load_history",
    "append_record",
    "render_trend",
    "check_regression",
]

#: Version of one bench record (the sim suite's version 2; machine
#: records written before the suites shared this module said 1 and
#: carried the same keys).
BENCH_SCHEMA_VERSION = 2

HISTORY_SCHEMA_VERSION = 1

#: Latest speedup below this fraction of the comparable-median flags a
#: regression.  Generous on purpose: CI wall times are noisy, and a
#: false alarm per commit would train everyone to ignore the check.
DEFAULT_REGRESSION_THRESHOLD = 0.5

#: Comparable prior records required before the check enforces.  One
#: lone predecessor is not a baseline: every environment-tag change
#: (interpreter or numpy upgrade) restarts the comparability class, and
#: judging the second-ever measurement against the first would flag —
#: or mask — plain noise.  Until the class has this much history the
#: verdict stays ``"no-baseline"``.
DEFAULT_MIN_BASELINE_RECORDS = 2


class Workload(NamedTuple):
    """One scalar-vs-fast comparison.  ``params`` describe the workload
    in its record; a callable value is applied to the scalar side's
    result after timing (e.g. the number of boxes a run consumed)."""

    name: str
    params: dict[str, Any]
    scalar: Callable[[], Any]
    fast: Callable[[], Any]


class Suite(NamedTuple):
    """A registered suite: the ``benchmark`` name its records and
    history carry, the label of its fast side, and a generator of its
    workloads for ``(quick, seed)``."""

    benchmark: str
    fast: str
    workloads: Callable[[bool, int], Iterator[Workload]]


def _sim_workloads(quick: bool, seed: int) -> Iterator[Workload]:
    """The registry's simulator shapes: ``M_{8,4}(n)`` to completion
    (fig1/gap/mmcount) under the simplified and recursive models and
    against an addressable random-slot placement, then ``iid``-style
    Monte Carlo over ``U(1..256)``."""
    spec = RegularSpec(8, 4, 1.0)

    def completed(
        name: str, n: int, options: Callable[[], dict[str, Any]], **extra: Any
    ) -> Workload:
        """The scalar loop over the profile against the chunked engine
        over its run-length stream; each side builds its simulator from
        ``options()``."""
        profile = worst_case_profile(spec.a, spec.b, n)
        runs = profile.runs()
        return Workload(
            name,
            {"spec": repr(spec), "n": n, **extra, "boxes": attrgetter("boxes_used")},
            lambda: SymbolicSimulator(spec, n, **options()).run(profile, fastpath=False),
            lambda: SymbolicSimulator(spec, n, **options()).run(runs),
        )

    n = 4**5 if quick else 4**7
    yield completed("adversarial-worst-case", n, lambda: {})
    yield completed("adversarial-recursive", n, lambda: {"model": "recursive"})
    # Addressable draws are a pure function of (seed, node index), so
    # the two sides' placements, and hence their runs, must agree.
    yield completed(
        "randomized-placement",
        4**5 if quick else 4**6,
        lambda: {"scan_randomizer": random_slot_placement(spec, seed)},
        placement_seed=seed,
    )
    n, trials, dist = (4**6 if quick else 4**7), 40, UniformRange(1, 256)
    yield Workload(
        "mc-iid-uniform",
        {"spec": repr(spec), "n": n, "trials": trials, "dist": repr(dist)},
        lambda: estimate_expected_cost(spec, n, dist, trials=trials, rng=0, fastpath=False),
        lambda: estimate_expected_cost(spec, n, dist, trials=trials, rng=0, fastpath=True),
    )


def _capacity_ladder(n: int) -> list[int]:
    """Capacities 4, 6, 8, 12, 16, 24, ... up to ``n`` (powers of two
    and their midpoints — the denser the ladder, the more the one-time
    stack-distance pass is amortized, which is the sweep shape the fast
    path exists for)."""
    ladder = []
    m = 4
    while m <= n:
        ladder.append(m)
        if 3 * m // 2 <= n:
            ladder.append(3 * m // 2)
        m *= 2
    return ladder


def _expand(boxes: Any, refs: int) -> MemoryProfile:
    """A squarified profile as per-I/O steps covering ``refs`` I/Os."""
    steps = np.repeat(boxes.boxes, boxes.boxes)
    return MemoryProfile(np.tile(steps, -(-refs // int(steps.size))))


def _replay(
    simulate: Callable[..., Any], n: int, configs: list[Any], fastpath: bool
) -> Callable[[], list[Any]]:
    """One side of a machine workload: the scalar side builds its trace
    cold, the kernel side takes the memoized one."""
    cold = synthetic_trace.__wrapped__  # type: ignore[attr-defined]
    build = synthetic_trace if fastpath else cold

    def run() -> list[Any]:
        trace = build(MM_SCAN, n)
        return [
            simulate(trace, c, policy="lru", fastpath=fastpath)
            for c in configs
        ]

    return run


def _machine_workloads(quick: bool, seed: int) -> Iterator[Workload]:
    """The trace-replay shapes the experiments run, on the MM-SCAN
    trace: the ``xcheck`` constant-capacity LRU ladder, the
    ``realistic`` squarified profiles (``seed`` keys the random walk),
    and the DAM I/O-law capacity sweep."""
    # A cold distance cache, so the kernel pass is timed rather than
    # inherited from earlier callers in this process.
    distance_cache_clear()
    n = 4**4 if quick else 4**5
    refs = len(synthetic_trace(MM_SCAN, n))  # primes the trace memo
    base = {"spec": repr(MM_SCAN), "n": n, "references": refs}
    sweeps: list[tuple[str, Callable[..., Any], str, list[Any]]] = [
        (
            "multiprofile-lru-crosscheck",
            simulate_ca,
            "profiles",
            [MemoryProfile.constant(m, refs) for m in _capacity_ladder(n)],
        ),
        (
            "realistic-squarified",
            simulate_ca,
            "profiles",
            [
                _expand(
                    squarify(
                        winner_take_all_profile(
                            max_size=n, flush_floor=max(2, n // 64), cycles=16
                        )
                    ),
                    refs,
                ),
                _expand(
                    squarify(
                        random_walk_profile(
                            start=max(4, n // 8),
                            steps=10 * n,
                            min_size=2,
                            max_size=n,
                            up_probability=0.55,
                            crash_probability=0.003,
                            crash_factor=0.25,
                            rng=seed,
                        )
                    ),
                    refs,
                ),
            ],
        ),
        ("dam-capacity-sweep", simulate_dam, "capacities", _capacity_ladder(2 * n)),
    ]
    for name, simulate, count, configs in sweeps:
        yield Workload(
            name,
            {**base, count: len(configs)},
            _replay(simulate, n, configs, fastpath=False),
            _replay(simulate, n, configs, fastpath=True),
        )


#: The registry: suite name -> its benchmark, fast-side label and
#: workloads.  Benchmark names are what committed and CI-cached
#: histories carry, so they never change.
SUITES: dict[str, Suite] = {
    "sim": Suite("sim-scalar-vs-chunked", "chunked", _sim_workloads),
    "machine": Suite("machine-scalar-vs-kernel", "kernel", _machine_workloads),
}


def _measure(workload: Workload) -> dict[str, Any]:
    """Time the scalar side, then the fast side, and compare them."""
    start = time.perf_counter()
    scalar = workload.scalar()
    scalar_wall = time.perf_counter() - start
    start = time.perf_counter()
    fast = workload.fast()
    fast_wall = time.perf_counter() - start
    return {
        "name": workload.name,
        **{
            key: value(scalar) if callable(value) else value
            for key, value in workload.params.items()
        },
        "scalar_wall_time_s": scalar_wall,
        "chunked_wall_time_s": fast_wall,
        "speedup": scalar_wall / fast_wall if fast_wall > 0 else None,
        "bit_identical": scalar == fast,
    }


def run_bench(suite: str, quick: bool = True, seed: int = 0) -> dict[str, Any]:
    """Run every workload of ``suite`` and return its record.

    ``quick`` picks CI-sized problems; full mode is the configuration
    ``docs/PERF.md`` quotes.  ``seed`` keys the workloads that draw
    randomness and is recorded for provenance; no identity verdict
    depends on it.  The top-level ``speedup`` is the minimum over
    workloads: the trend tracks the weakest link, not the flattering
    one.
    """
    entry = SUITES[suite]
    workloads = [_measure(w) for w in entry.workloads(quick, seed)]
    speedups = [w["speedup"] for w in workloads if w["speedup"] is not None]
    return {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": entry.benchmark,
        "quick": quick,
        "seed": seed,
        "workloads": workloads,
        "scalar_wall_time_s": sum(w["scalar_wall_time_s"] for w in workloads),
        "chunked_wall_time_s": sum(
            w["chunked_wall_time_s"] for w in workloads
        ),
        "speedup": min(speedups) if speedups else None,
        "bit_identical": all(w["bit_identical"] for w in workloads),
        "environment": environment_tag(),
        "repro_version": repro_version(),
        "git_revision": git_revision(),
    }


def empty_history(benchmark: str) -> dict[str, Any]:
    """A fresh, record-less history document for ``benchmark``."""
    return {
        "history_schema_version": HISTORY_SCHEMA_VERSION,
        "benchmark": benchmark,
        "records": [],
    }


def load_history(
    path: "str | os.PathLike[str]", benchmark: str
) -> dict[str, Any]:
    """Read the history of ``benchmark`` at ``path``; a missing file is
    an empty history.

    Corruption is *loud* (:class:`CacheError`): silently restarting the
    trend would erase exactly the longitudinal evidence this file exists
    to keep.  So is a file holding another benchmark's history: its
    records would be judged against records of different workloads.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        return empty_history(benchmark)
    except OSError as exc:
        raise CacheError(f"cannot read bench history {p}: {exc}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CacheError(
            f"bench history {p} is not valid JSON: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise CacheError(
            f"bench history {p} must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    version = payload.get("history_schema_version")
    if version != HISTORY_SCHEMA_VERSION:
        raise CacheError(
            f"unsupported bench history schema_version {version!r} in {p}; "
            f"this build reads version {HISTORY_SCHEMA_VERSION}"
        )
    if not isinstance(payload.get("records"), list):
        raise CacheError(f"bench history {p} has no records list")
    if payload.get("benchmark") != benchmark:
        raise CacheError(
            f"bench history {p} holds {payload.get('benchmark')!r} "
            f"records, not {benchmark!r}"
        )
    return payload


def append_record(
    path: "str | os.PathLike[str]", record: dict[str, Any]
) -> dict[str, Any]:
    """Append ``record`` to the history of its benchmark at ``path``
    (atomic write) and return the updated history.  Reruns at the same
    revision append — they are new measurements, not corrections."""
    p = Path(path)
    history = load_history(p, record["benchmark"])
    history["records"] = list(history["records"]) + [dict(record)]
    p.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=p.parent, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(history, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, p)
    except Exception as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise CacheError(
                f"cannot write bench history {p}: {exc}"
            ) from None
        raise
    return history


def _config_key(record: dict[str, Any]) -> tuple[Any, ...]:
    """Comparability class of one record.  The record's ``speedup`` is
    a minimum over its workloads, so only records of the same workload
    set, mode and numeric environment share a baseline."""
    return (
        record.get("environment"),
        record.get("quick"),
        tuple(w["name"] for w in record["workloads"]),
    )


def render_trend(history: dict[str, Any]) -> str:
    """The history as a text table, oldest record first."""
    from repro.util.tables import format_table

    benchmark = history["benchmark"]
    rows = []
    for index, record in enumerate(history["records"], start=1):
        speedup = record.get("speedup")
        rows.append(
            (
                index,
                record.get("git_revision") or "-",
                record.get("quick"),
                record.get("scalar_wall_time_s"),
                record.get("chunked_wall_time_s"),
                f"{speedup:.1f}x" if isinstance(speedup, (int, float)) else "-",
                "yes" if record.get("bit_identical") else "NO",
            )
        )
    if not rows:
        return "bench history: no records yet"
    fast = next(s.fast for s in SUITES.values() if s.benchmark == benchmark)
    return format_table(
        ["#", "revision", "quick", "scalar(s)", f"{fast}(s)", "speedup", "identical"],
        rows,
        title=f"bench history ({benchmark})",
    )


def check_regression(
    history: dict[str, Any],
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    min_records: int = DEFAULT_MIN_BASELINE_RECORDS,
) -> dict[str, Any]:
    """Compare the newest record's speedup to its comparable history.

    Baseline = median speedup of earlier records in the same
    comparability class (environment, quick, workload names).
    ``status`` is ``"ok"``, ``"regression"`` (latest < ``threshold`` x
    baseline), or ``"no-baseline"`` — fewer than ``min_records``
    comparable prior measurements.  The floor keeps an environment-tag
    change (which restarts the comparability class) from silently
    re-baselining the check on a single noisy point.
    """
    if min_records < 1:
        raise CacheError(f"min_records must be >= 1, got {min_records}")
    records = [
        r
        for r in history["records"]
        if isinstance(r.get("speedup"), (int, float))
    ]
    verdict: dict[str, Any] = {
        "status": "no-baseline",
        "threshold": threshold,
        "min_records": min_records,
        "latest_speedup": None,
        "baseline_speedup": None,
        "ratio": None,
        "baseline_records": 0,
    }
    if not records:
        return verdict
    latest = records[-1]
    latest_speedup = float(latest["speedup"])
    verdict["latest_speedup"] = latest_speedup
    prior = [
        float(r["speedup"])
        for r in records[:-1]
        if _config_key(r) == _config_key(latest)
    ]
    verdict["baseline_records"] = len(prior)
    if len(prior) < min_records:
        return verdict
    baseline = float(median(prior))
    ratio = latest_speedup / baseline if baseline > 0 else None
    verdict["baseline_speedup"] = baseline
    verdict["ratio"] = ratio
    verdict["status"] = (
        "regression" if ratio is not None and ratio < threshold else "ok"
    )
    return verdict
