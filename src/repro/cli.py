"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands (a shared flag vocabulary — ``--quick/--full``, ``--seed``,
``--json DIR``, ``--cache-dir`` — means the same thing everywhere it
appears):

* ``list`` — enumerate registered experiments with their claims;
* ``run <id> [...ids|all]`` — run experiments through the
  :mod:`repro.runtime` layer and print their tables; ``--jobs N`` fans
  experiments over a process pool (bit-identical results at any worker
  count), ``-o FILE`` writes the rendered text, ``--json DIR`` writes
  one schema-versioned ``RunArtifact`` per experiment plus a
  ``manifest.json`` with timings and counters (``docs/ARTIFACTS.md``).
  Runs consult the content-addressed artifact store by default
  (``docs/CACHE.md``); ``--no-cache`` disables it, ``--refresh``
  recomputes and overwrites, ``--cache-dir DIR`` relocates it;
* ``show-profile`` — render the worst-case profile ``M_{8,4}(n)``;
  ``--full`` adds the exact box census, ``--json DIR`` writes
  ``profile.json``;
* ``solve`` — print the exact Lemma-3 recurrence table for a named
  spec, problem size, and box-size distribution (DSL:
  ``point:16``, ``uniform:4:1:5``, ``pareto:4:1:6:0.5``,
  ``worstcase:8:4:256``, ...); ``--quick`` swaps the exact renewal DP
  for the Wald midpoint, ``--json DIR`` writes ``solve.json``;
* ``cache stats|clear|verify|gc`` — inspect, empty, spot-check, or
  garbage-collect the artifact store (``verify`` re-runs sampled
  entries live and diffs against the stored artifacts; ``gc`` reaps
  ``.tmp-*`` write debris and evicts LRU-first
  under ``--max-bytes/--max-entries/--max-age-days`` budgets,
  ``--dry-run`` to preview);
* ``serve`` — the asyncio artifact-serving daemon: answers
  ``GET /v1/run/{experiment}?quick&seed`` from the store, coalesces
  identical in-flight misses onto one :class:`RunRequest` computation,
  applies ``--max-inflight`` backpressure (429), and drains cleanly on
  SIGTERM (``docs/SERVE.md``);
* ``bench`` — time a fast path against its scalar reference and
  check that both give the same result: ``--suite sim`` (the chunked
  simulator; writes ``BENCH_sim.json``) or ``--suite machine`` (the
  stack-distance trace kernel; writes ``BENCH_machine.json``).  With
  ``--history``, appends a record to the suite's longitudinal trend
  line and runs (and fails on) the speedup regression check;
* ``lint`` — run the repo's AST-based invariant linter (RNG/units/
  float-equality/frozen-artifact/exports/profile discipline) over
  source trees; exit 1 on findings, for CI.  See ``docs/DEVTOOLS.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _add_quick_full(
    parser: argparse.ArgumentParser, default_quick: bool, what: str
) -> None:
    """The shared ``--quick/--full`` paired toggle (``args.quick``)."""
    group = parser.add_mutually_exclusive_group()
    default_note = "the default" if default_quick else "default is --full"
    group.add_argument(
        "--quick",
        dest="quick",
        action="store_true",
        default=default_quick,
        help=f"quick configuration: {what} ({default_note})",
    )
    group.add_argument(
        "--full",
        dest="quick",
        action="store_false",
        help="full configuration (slower, exhaustive)"
        + ("" if default_quick else " — the default"),
    )


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="random seed (stamped into JSON artifacts; default 0)",
    )


def _add_json_dir(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--json",
        dest="json_dir",
        default=None,
        metavar="DIR",
        help=f"write {what} into DIR (created if missing)",
    )


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="artifact store location (default: $REPRO_CACHE_DIR, else "
        "$XDG_CACHE_HOME/repro, else ~/.cache/repro)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Cache-adaptive analysis toolkit — reproduction of 'Closing the "
            "Gap Between Cache-oblivious and Cache-adaptive Analysis' "
            "(SPAA 2020)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run_p = sub.add_parser("run", help="run experiments by id (or 'all')")
    run_p.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    _add_quick_full(run_p, default_quick=True, what="small sweeps")
    _add_seed(run_p)
    run_p.add_argument(
        "-o",
        "--output",
        default=None,
        help="also write the rendered reports to this file",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments across N worker processes (default 1); "
        "results are bit-identical at any worker count",
    )
    _add_json_dir(
        run_p, "one RunArtifact JSON per experiment plus manifest.json"
    )
    _add_cache_dir(run_p)
    cache_group = run_p.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--no-cache",
        dest="cache",
        action="store_const",
        const="off",
        default="auto",
        help="always compute; no artifact-store reads or writes",
    )
    cache_group.add_argument(
        "--refresh",
        dest="cache",
        action="store_const",
        const="refresh",
        help="recompute and overwrite the artifact store unconditionally",
    )

    prof_p = sub.add_parser(
        "show-profile", help="render the worst-case profile M_{8,4}(n)"
    )
    prof_p.add_argument(
        "pos_n",
        type=int,
        nargs="?",
        default=None,
        metavar="n",
        help="problem size (a power of 4); alternative to --n",
    )
    prof_p.add_argument(
        "--n", type=int, default=None, help="problem size (a power of 4)"
    )
    _add_quick_full(
        prof_p, default_quick=True, what="sparkline + summary only"
    )
    _add_seed(prof_p)
    _add_json_dir(prof_p, "profile.json (box census, potential, duration)")

    solve_p = sub.add_parser(
        "solve",
        help="exact expected-cost table from the Lemma-3 recurrence",
    )
    solve_p.add_argument("--spec", default="MM-SCAN", help="named algorithm spec")
    solve_p.add_argument("--n", type=int, required=True, help="problem size (blocks)")
    solve_p.add_argument(
        "--dist",
        required=True,
        help="box-size distribution (e.g. uniform:4:1:5, point:16, "
        "pareto:4:1:6:0.5, worstcase:8:4:256)",
    )
    _add_quick_full(
        solve_p,
        default_quick=False,
        what="Wald-midpoint scans instead of the exact renewal DP",
    )
    _add_seed(solve_p)
    _add_json_dir(solve_p, "solve.json (the recurrence table)")

    cache_p = sub.add_parser(
        "cache", help="inspect or manage the content-addressed artifact store"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    stats_p = cache_sub.add_parser(
        "stats", help="entry counts, size on disk, stored compute time"
    )
    _add_cache_dir(stats_p)
    _add_json_dir(stats_p, "cache_stats.json")
    clear_p = cache_sub.add_parser("clear", help="remove every cache entry")
    _add_cache_dir(clear_p)
    gc_p = cache_sub.add_parser(
        "gc",
        help="reap .tmp-* write debris and evict least recently used "
        "entries (oldest file mtime; a hit refreshes it) under "
        "byte/entry/age budgets (defaults from REPRO_CACHE_MAX_*)",
    )
    _add_cache_dir(gc_p)
    gc_p.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="byte budget for surviving entries (default: "
        "$REPRO_CACHE_MAX_BYTES, else 1 GiB; <= 0 disables)",
    )
    gc_p.add_argument(
        "--max-entries",
        type=int,
        default=None,
        metavar="N",
        help="entry-count budget (default: $REPRO_CACHE_MAX_ENTRIES, "
        "else unlimited; <= 0 disables)",
    )
    gc_p.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="D",
        help="evict entries not accessed for D days (default: "
        "$REPRO_CACHE_MAX_AGE_DAYS, else unlimited; <= 0 disables)",
    )
    gc_p.add_argument(
        "--tmp-grace-s",
        type=float,
        default=None,
        metavar="S",
        help=".tmp-* files younger than S seconds are left alone as "
        "possible writes in flight (default 3600; 0 reaps everything "
        "— for CI debris checks on a quiesced store)",
    )
    gc_p.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted/reaped without deleting",
    )
    gc_p.add_argument(
        "--fail-on-debris",
        action="store_true",
        help="exit 1 if any orphaned .tmp-* debris was found (CI guard)",
    )
    _add_json_dir(gc_p, "cache_gc.json")
    verify_p = cache_sub.add_parser(
        "verify",
        help="re-run sampled entries live and diff against the store "
        "(exit 1 on mismatch)",
    )
    _add_cache_dir(verify_p)
    _add_seed(verify_p)
    verify_p.add_argument(
        "--sample",
        type=int,
        default=3,
        metavar="N",
        help="how many fresh entries to re-run (0 = every entry; default 3)",
    )
    verify_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan live re-runs over N worker processes (default 1)",
    )

    bench_p = sub.add_parser(
        "bench",
        help="time a fast path against its scalar reference: sim "
        "(chunked simulator, writes BENCH_sim.json) or machine "
        "(stack-distance trace kernel, writes BENCH_machine.json)",
    )
    bench_p.add_argument(
        "--suite",
        choices=("sim", "machine"),
        required=True,
        help="which suite to run: the simulator scalar-vs-chunked suite "
        "or the trace-machine scalar-vs-kernel suite",
    )
    _add_quick_full(bench_p, default_quick=True, what="small sweeps")
    _add_seed(bench_p)
    bench_p.add_argument(
        "-o",
        "--output",
        default=None,
        help="where to write the benchmark report (default "
        "BENCH_<suite>.json)",
    )
    bench_p.add_argument(
        "--history",
        action="store_true",
        help="append this run as a record to the bench-history file at "
        "OUTPUT, print the trend line, and run the speedup regression "
        "check",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the artifact-serving daemon: answers "
        "GET /v1/run/{experiment}?quick&seed from the artifact store, "
        "coalescing identical in-flight misses onto one computation "
        "(docs/SERVE.md)",
    )
    serve_p.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve_p.add_argument(
        "--port",
        type=int,
        default=8023,
        metavar="N",
        help="TCP port to listen on (default 8023; 0 picks a free port)",
    )
    serve_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for cache misses (default 1; 0 computes "
        "in-process on a thread)",
    )
    serve_p.add_argument(
        "--max-inflight",
        type=int,
        default=16,
        metavar="N",
        help="most distinct computations in flight before misses are "
        "answered 429 (default 16; hits are always admitted)",
    )
    serve_p.add_argument(
        "--max-requests-per-conn",
        type=int,
        default=1000,
        metavar="N",
        help="requests one keep-alive connection may carry before the "
        "daemon closes it (default 1000)",
    )
    serve_p.add_argument(
        "--idle-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long a keep-alive connection may sit idle between "
        "requests before the daemon closes it (default 30)",
    )
    serve_p.add_argument(
        "--hot-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="hard byte budget for the in-memory hot tier of rendered "
        "responses (default 64 MiB; 0 disables the tier)",
    )
    _add_cache_dir(serve_p)

    lint_p = sub.add_parser(
        "lint",
        help="run the repro invariant linter (exit 1 on findings)",
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks", "examples"],
        help="files or directories to lint (default: src benchmarks examples)",
    )
    lint_p.add_argument(
        "--include-tests",
        action="store_true",
        help="also lint test files (exempt by default)",
    )
    lint_p.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE",
        help="run only this rule (repeatable)",
    )
    lint_p.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    lint_p.add_argument(
        "--deep",
        action="store_true",
        help="also run the interprocedural determinism analysis "
        "(repro analyze) over the same paths and merge its findings",
    )
    lint_p.add_argument(
        "--stale",
        action="store_true",
        help="also report repro-lint suppression pragmas that no longer "
        "match any diagnostic (stale waivers)",
    )

    analyze_p = sub.add_parser(
        "analyze",
        help="whole-program determinism analysis: call graph, taint "
        "propagation from nondeterminism sources, per-experiment "
        "impurity chains (exit 1 on findings)",
    )
    analyze_p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories whose first-party import closure "
        "to analyze (default: src)",
    )
    analyze_p.add_argument(
        "--include-tests",
        action="store_true",
        help="also analyze test files (exempt by default)",
    )
    analyze_p.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the full report (symbols, classifications, chains) "
        "as JSON on stdout",
    )
    analyze_p.add_argument(
        "--graph",
        metavar="DOT",
        default=None,
        help="write the classified call graph as Graphviz DOT to this path",
    )
    return parser


def _write_json(json_dir: str, name: str, payload: dict) -> str:
    import json
    import os

    os.makedirs(json_dir, exist_ok=True)
    path = os.path.join(json_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _cmd_list() -> int:
    from repro.experiments.registry import EXPERIMENTS

    width = max(len(eid) for eid in EXPERIMENTS)
    for eid, exp in EXPERIMENTS.items():
        print(f"{eid.ljust(width)}  {exp.title}")
    return 0


def _cmd_run(
    ids: list[str],
    quick: bool,
    seed: int,
    output: str | None,
    jobs: int = 1,
    json_dir: str | None = None,
    cache: str = "auto",
    cache_dir: str | None = None,
) -> int:
    from time import perf_counter

    from repro.experiments.registry import EXPERIMENTS
    from repro.runtime.runner import ExperimentRunner

    targets = list(EXPERIMENTS) if ids == ["all"] else ids
    runner = ExperimentRunner(jobs=jobs, cache=cache, cache_dir=cache_dir)
    failures = 0
    chunks: list[str] = []
    artifacts = []
    # Display-only timing for the cache-savings summary line.
    start = perf_counter()  # repro-lint: disable=nondet-wallclock
    for i, artifact in enumerate(
        runner.run_iter(targets, quick=quick, seed=seed)
    ):
        text = artifact.render()
        if i:
            print()
        print(text)
        chunks.append(text)
        artifacts.append(artifact)
        if not artifact.reproduced:
            failures += 1
    total_wall_time_s = perf_counter() - start  # repro-lint: disable=nondet-wallclock
    hits = sum(1 for a in artifacts if a.cache_hit)
    if cache != "off" and hits:
        saved = sum(a.saved_wall_time_s or 0.0 for a in artifacts)
        print(
            f"cache: {hits}/{len(artifacts)} hit(s), "
            f"saved {saved:.2f}s of compute",
            file=sys.stderr,
        )
    if output is not None:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write("\n\n".join(chunks) + "\n")
    if json_dir is not None:
        _write_artifact_dir(
            json_dir,
            artifacts,
            seed=seed,
            quick=quick,
            jobs=jobs,
            total_wall_time_s=total_wall_time_s,
            gc=_last_gc_counters(cache, cache_dir),
        )
    return 1 if failures else 0


def _last_gc_counters(cache: str, cache_dir: str | None) -> dict | None:
    """Counters of the auto-GC pass that followed this run (from the
    store's ``.gc-state.json``), for the manifest.  ``None`` when the
    run never touched a store or no collection has run."""
    if cache == "off":
        return None
    from repro.cache.gc import read_gc_state
    from repro.cache.store import Cache

    state = read_gc_state(Cache(cache_dir).root)
    if state is None:
        return None
    last = state.get("last")
    return dict(last) if isinstance(last, dict) else None


def _write_artifact_dir(
    json_dir: str,
    artifacts: list,
    seed: int,
    quick: bool,
    jobs: int,
    total_wall_time_s: float,
    gc: dict | None = None,
) -> None:
    """Write one ``<id>.json`` per artifact plus ``manifest.json``."""
    import os

    from repro.runtime.manifest import RunManifest

    os.makedirs(json_dir, exist_ok=True)
    names = {}
    for artifact in artifacts:
        name = f"{artifact.experiment_id}.json"
        names[artifact.experiment_id] = name
        with open(os.path.join(json_dir, name), "w", encoding="utf-8") as fh:
            fh.write(artifact.to_json() + "\n")
    manifest = RunManifest.build(
        artifacts,
        seed=seed,
        quick=quick,
        jobs=jobs,
        total_wall_time_s=total_wall_time_s,
        artifact_names=names,
        gc=gc,
    )
    with open(os.path.join(json_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(manifest.to_json() + "\n")


def _cmd_solve(
    spec_name: str,
    n: int,
    dist_text: str,
    quick: bool = False,
    seed: int = 0,
    json_dir: str | None = None,
) -> int:
    from repro.algorithms.library import get_spec
    from repro.analysis.recurrence import solve_recurrence
    from repro.profiles.parsing import parse_distribution
    from repro.util.tables import format_table

    spec = get_spec(spec_name)
    dist = parse_distribution(dist_text)
    solution = solve_recurrence(spec, n, dist, scan_dp=not quick)
    print(f"{spec.describe()}")
    print(f"Sigma = {dist.name}  (mean box {dist.mean():.4g})")
    if quick:
        print("quick mode: Wald-midpoint scans (approximate, not exact DP)")
    rows = [
        (rec.n, rec.f, rec.f_prime, rec.q, rec.m_n, rec.cost_ratio)
        for rec in solution.levels
    ]
    print(
        format_table(
            ["n", "f(n)", "f'(n)", "q", "m_n", "E[ratio]"],
            rows,
            title="exact Lemma-3 recurrence (Definition-3 cost = f(n)*m_n/n^e)",
        )
    )
    print(f"Eq-8 product of f/f' over levels: {solution.eq8_product():.6g}")
    if json_dir is not None:
        payload = {
            "command": "solve",
            "spec": spec_name,
            "spec_description": spec.describe(),
            "n": n,
            "dist": dist_text,
            "dist_name": dist.name,
            "dist_mean": float(dist.mean()),
            "quick": quick,
            "seed": seed,
            "levels": [
                {
                    "n": int(rec.n),
                    "f": float(rec.f),
                    "f_prime": float(rec.f_prime),
                    "q": float(rec.q),
                    "m_n": float(rec.m_n),
                    "cost_ratio": float(rec.cost_ratio),
                }
                for rec in solution.levels
            ],
            "eq8_product": float(solution.eq8_product()),
        }
        path = _write_json(json_dir, "solve.json", payload)
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_show_profile(
    n: int | None,
    pos_n: int | None = None,
    quick: bool = True,
    seed: int = 0,
    json_dir: str | None = None,
) -> int:
    from repro.errors import ProfileError
    from repro.profiles.worst_case import worst_case_potential, worst_case_profile

    if n is None:
        n = pos_n
    elif pos_n is not None and pos_n != n:
        raise ProfileError(
            f"conflicting problem sizes: positional {pos_n} vs --n {n}"
        )
    if n is None:
        raise ProfileError("show-profile needs a problem size (positional or --n)")
    profile = worst_case_profile(8, 4, n)
    potential_ratio = worst_case_potential(8, 4, n) / n**1.5
    print(f"M_{{8,4}}({n}): {len(profile)} boxes, duration {profile.total_time}")
    print(f"total potential / n^1.5 = {potential_ratio:.3f}")
    print(profile.sparkline(width=100))
    if not quick:
        census = profile.size_census()
        print("box census (size: count):")
        for size, count in census.items():
            print(f"  {size}: {count}")
    if json_dir is not None:
        payload = {
            "command": "show-profile",
            "a": 8,
            "b": 4,
            "n": n,
            "quick": quick,
            "seed": seed,
            "boxes": len(profile),
            "duration": profile.total_time,
            "potential_over_n_1_5": potential_ratio,
            "size_census": {
                str(size): count for size, count in profile.size_census().items()
            },
        }
        path = _write_json(json_dir, "profile.json", payload)
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_cache_stats(
    cache_dir: str | None, json_dir: str | None = None
) -> int:
    from repro.cache.store import Cache

    store = Cache(cache_dir)
    stats = store.stats()
    print(f"cache root: {stats.root}")
    print(f"entries: {stats.entries}")
    print(f"size on disk: {stats.total_bytes} bytes")
    print(f"stored compute time: {stats.stored_wall_time_s:.2f}s")
    print(f"temp debris: {stats.tmp_files} file(s), {stats.tmp_bytes} bytes")
    memo_state = stats.fingerprint_memo["state"]
    if memo_state == "current":
        count = stats.fingerprint_memo["fingerprints"]
        memo_state += f" ({count} fingerprint{'' if count == 1 else 's'})"
    elif memo_state == "stale":
        memo_state += " (another tree)"
    print(f"fingerprint memo: {memo_state}")
    if stats.gc is not None:
        print(
            f"gc: {stats.gc.get('collections', 0)} collection(s), "
            f"evicted {stats.gc.get('evicted_entries', 0)} entr"
            f"{'y' if stats.gc.get('evicted_entries', 0) == 1 else 'ies'} / "
            f"{stats.gc.get('evicted_bytes', 0)} bytes, "
            f"reaped {stats.gc.get('reaped_tmp_files', 0)} temp file(s)"
        )
    if stats.by_experiment:
        width = max(len(eid) for eid in stats.by_experiment)
        for eid, count in stats.by_experiment.items():
            print(f"  {eid.ljust(width)}  {count}")
    if json_dir is not None:
        payload = {
            "command": "cache-stats",
            "root": str(stats.root),
            "entries": stats.entries,
            "total_bytes": stats.total_bytes,
            "stored_wall_time_s": stats.stored_wall_time_s,
            "tmp_files": stats.tmp_files,
            "tmp_bytes": stats.tmp_bytes,
            "gc": stats.gc,
            "fingerprint_memo": stats.fingerprint_memo,
            "by_experiment": stats.by_experiment,
        }
        path = _write_json(json_dir, "cache_stats.json", payload)
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_cache_clear(cache_dir: str | None) -> int:
    from repro.cache.store import Cache

    removed = Cache(cache_dir).clear()
    print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
    return 0


def _cmd_serve(
    host: str,
    port: int,
    jobs: int,
    max_inflight: int,
    cache_dir: str | None,
    max_requests_per_conn: int = 1000,
    idle_timeout: float = 30.0,
    hot_bytes: int | None = None,
) -> int:
    import asyncio

    from repro.serve.app import ServeConfig, serve_forever
    from repro.serve.hotcache import DEFAULT_HOT_BYTES

    config = ServeConfig(
        host=host,
        port=port,
        jobs=jobs,
        max_inflight=max_inflight,
        cache_dir=cache_dir,
        max_requests_per_conn=max_requests_per_conn,
        idle_timeout_s=idle_timeout,
        hot_bytes=DEFAULT_HOT_BYTES if hot_bytes is None else hot_bytes,
    )
    return asyncio.run(serve_forever(config))


def _cmd_cache_gc(
    cache_dir: str | None,
    max_bytes: int | None,
    max_entries: int | None,
    max_age_days: float | None,
    tmp_grace_s: float | None,
    dry_run: bool,
    fail_on_debris: bool,
    json_dir: str | None = None,
) -> int:
    import dataclasses

    from repro.cache.gc import GCBudget
    from repro.cache.store import Cache

    budget = GCBudget.from_env()
    if max_bytes is not None:
        budget = dataclasses.replace(
            budget, max_bytes=max_bytes if max_bytes > 0 else None
        )
    if max_entries is not None:
        budget = dataclasses.replace(
            budget, max_entries=max_entries if max_entries > 0 else None
        )
    if max_age_days is not None:
        budget = dataclasses.replace(
            budget, max_age_days=max_age_days if max_age_days > 0 else None
        )
    if tmp_grace_s is not None:
        budget = dataclasses.replace(budget, tmp_grace_s=max(tmp_grace_s, 0.0))
    store = Cache(cache_dir)
    report = store.gc(budget, dry_run=dry_run)
    verb = "would reap" if dry_run else "reaped"
    print(f"cache root: {report.root}")
    print(
        f"{verb} {report.reaped_tmp_files} temp file(s) "
        f"({report.reaped_tmp_bytes} bytes of write debris)"
    )
    verb = "would evict" if dry_run else "evicted"
    print(
        f"{verb} {report.evicted_entries}/{report.examined_entries} "
        f"entr{'y' if report.evicted_entries == 1 else 'ies'} "
        f"({report.evicted_bytes} bytes)"
    )
    shown = report.evictions[:20]
    for eviction in shown:
        print(
            f"  {eviction.digest[:16]}  {eviction.size_bytes} bytes  "
            f"({eviction.reason})"
        )
    if len(report.evictions) > len(shown):
        print(f"  ... and {len(report.evictions) - len(shown)} more")
    print(
        f"surviving: {report.surviving_entries} entr"
        f"{'y' if report.surviving_entries == 1 else 'ies'}, "
        f"{report.surviving_bytes} bytes"
    )
    if json_dir is not None:
        payload = dict(report.to_dict(), command="cache-gc", root=str(report.root))
        path = _write_json(json_dir, "cache_gc.json", payload)
        print(f"wrote {path}", file=sys.stderr)
    if fail_on_debris and report.reaped_tmp_files:
        print(
            f"error: {report.reaped_tmp_files} orphaned .tmp-* file(s) in "
            "the store (--fail-on-debris)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_cache_verify(
    cache_dir: str | None, sample: int, seed: int, jobs: int
) -> int:
    from repro.cache.store import Cache
    from repro.cache.verify import verify_store

    store = Cache(cache_dir)
    report = verify_store(
        store, sample=None if sample <= 0 else sample, seed=seed, jobs=jobs
    )
    for record in report.records:
        line = (
            f"{record.status:<8}  {record.experiment_id} "
            f"(quick={record.quick}, seed={record.seed})"
        )
        if record.detail:
            line += f" — {record.detail}"
        print(line)
    print(
        f"cache verify: {report.checked} checked, "
        f"{report.mismatches} mismatch(es), {report.stale} stale "
        f"(jobs={report.jobs})"
    )
    return 0 if report.ok else 1


def _cmd_bench(
    suite: str,
    quick: bool,
    seed: int,
    output: str | None,
    history: bool = False,
) -> int:
    import json

    from repro.bench import (
        SUITES,
        append_record,
        check_regression,
        render_trend,
        run_bench,
    )

    record = run_bench(suite, quick=quick, seed=seed)
    output = output or f"BENCH_{suite}.json"
    regressed = False
    if history:
        doc = append_record(output, record)
        print(render_trend(doc))
        check = check_regression(doc)
        if check["status"] == "no-baseline":
            print(
                f"regression check: no baseline yet "
                f"({check['baseline_records']} of {check['min_records']} "
                f"comparable prior record(s) on file)"
            )
        else:
            print(
                f"regression check: {check['status']} — latest "
                f"{check['latest_speedup']:.1f}x vs baseline median "
                f"{check['baseline_speedup']:.1f}x over "
                f"{check['baseline_records']} comparable record(s) "
                f"(threshold {check['threshold']:.2f})"
            )
        regressed = check["status"] == "regression"
    else:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    speedup = record["speedup"]
    print(
        f"{suite} bench: scalar {record['scalar_wall_time_s']:.2f}s, "
        f"{SUITES[suite].fast} {record['chunked_wall_time_s']:.2f}s"
        + (f", min speedup {speedup:.1f}x" if speedup else "")
    )
    for workload in record["workloads"]:
        wsp = workload["speedup"]
        print(
            f"  {workload['name']}: "
            f"{workload['scalar_wall_time_s']:.2f}s -> "
            f"{workload['chunked_wall_time_s']:.2f}s"
            + (f" ({wsp:.1f}x)" if wsp else "")
        )
    print(f"bit-identical: {record['bit_identical']}")
    print(f"wrote {output}", file=sys.stderr)
    return 0 if record["bit_identical"] and not regressed else 1


def _cmd_lint(
    paths: list[str],
    include_tests: bool,
    rules: list[str] | None,
    list_rules: bool,
    deep: bool = False,
    stale: bool = False,
) -> int:
    from repro.devtools import all_rules, lint_paths

    if list_rules:
        width = max(len(rule.rule_id) for rule in all_rules())
        for rule in all_rules():
            print(f"{rule.rule_id.ljust(width)}  {rule.summary}")
        return 0
    diagnostics = list(
        lint_paths(
            paths,
            include_tests=include_tests,
            rule_ids=rules,
            report_stale=stale,
        )
    )
    if deep:
        from repro.devtools.analyze import analyze_paths

        report = analyze_paths(paths, include_tests=include_tests)
        diagnostics.extend(report.diagnostics)
        diagnostics.sort()
    for diag in diagnostics:
        print(diag.format())
    if diagnostics:
        print(
            f"repro lint: {len(diagnostics)} finding(s)"
            " — see docs/DEVTOOLS.md for rules and suppressions",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_analyze(
    paths: list[str],
    include_tests: bool,
    as_json: bool,
    graph: str | None,
) -> int:
    from repro.devtools.analyze import analyze_paths, render_dot, render_json

    report = analyze_paths(paths, include_tests=include_tests)
    if graph is not None:
        with open(graph, "w", encoding="utf-8") as fh:
            fh.write(render_dot(report))
        print(f"wrote {graph}", file=sys.stderr)
    if as_json:
        print(render_json(report))
        return 0 if report.ok else 1
    for diag in report.diagnostics:
        print(diag.format())
    impure = sum(
        1 for verdict in report.classifications.values() if verdict == "impure"
    )
    chains = sum(len(exp.chains) for exp in report.experiments)
    print(
        f"repro analyze: {len(report.graph.tables)} module(s), "
        f"{len(report.graph.symbols)} symbol(s), {impure} impure, "
        f"{len(report.experiments)} experiment(s) with {chains} tainted "
        f"chain(s), {report.waived} waived finding(s)",
        file=sys.stderr,
    )
    if report.diagnostics:
        print(
            f"repro analyze: {len(report.diagnostics)} finding(s)"
            " — see docs/DEVTOOLS.md ('Deep analysis') for rules, chains, "
            "and suppressions",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(
                args.ids,
                args.quick,
                args.seed,
                args.output,
                jobs=args.jobs,
                json_dir=args.json_dir,
                cache=args.cache,
                cache_dir=args.cache_dir,
            )
        if args.command == "show-profile":
            return _cmd_show_profile(
                args.n,
                pos_n=args.pos_n,
                quick=args.quick,
                seed=args.seed,
                json_dir=args.json_dir,
            )
        if args.command == "solve":
            return _cmd_solve(
                args.spec,
                args.n,
                args.dist,
                quick=args.quick,
                seed=args.seed,
                json_dir=args.json_dir,
            )
        if args.command == "cache":
            if args.cache_command == "stats":
                return _cmd_cache_stats(args.cache_dir, json_dir=args.json_dir)
            if args.cache_command == "clear":
                return _cmd_cache_clear(args.cache_dir)
            if args.cache_command == "gc":
                return _cmd_cache_gc(
                    args.cache_dir,
                    args.max_bytes,
                    args.max_entries,
                    args.max_age_days,
                    args.tmp_grace_s,
                    args.dry_run,
                    args.fail_on_debris,
                    json_dir=args.json_dir,
                )
            if args.cache_command == "verify":
                return _cmd_cache_verify(
                    args.cache_dir, args.sample, args.seed, args.jobs
                )
        if args.command == "serve":
            return _cmd_serve(
                args.host,
                args.port,
                args.jobs,
                args.max_inflight,
                args.cache_dir,
                max_requests_per_conn=args.max_requests_per_conn,
                idle_timeout=args.idle_timeout,
                hot_bytes=args.hot_bytes,
            )
        if args.command == "bench":
            return _cmd_bench(
                args.suite,
                args.quick,
                args.seed,
                args.output,
                history=args.history,
            )
        if args.command == "lint":
            return _cmd_lint(
                args.paths,
                args.include_tests,
                args.rules,
                args.list_rules,
                deep=args.deep,
                stale=args.stale,
            )
        if args.command == "analyze":
            return _cmd_analyze(
                args.paths,
                args.include_tests,
                args.as_json,
                args.graph,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
