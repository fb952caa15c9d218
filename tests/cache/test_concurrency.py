"""Multi-process store safety: the put-vs-GC race and a torture mix.

Both tests fork real processes against one store directory, so puts,
gets and collections interleave at the file-system level, where the
store's guarantees live: each entry is one file, written by one rename
and removed by one unlink.

The first test pins ``Cache.put``'s retry: a collection that evicts an
entry also prunes its emptied shard directory, which can vanish between
a put's ``mkdir`` and its ``mkstemp``.  Every put must still land.
"""

import json
import multiprocessing
import os
import sys
import traceback

import pytest

from repro.cache.gc import GCBudget, collect
from repro.cache.store import Cache, CacheKey
from repro.runtime.artifact import RunArtifact

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="requires fork"
)

ALL_SEEDS = tuple(range(9))
ROUNDS = 12


def make_artifact(seed: int = 0) -> RunArtifact:
    return RunArtifact(
        experiment_id="x",
        title="T",
        claim="C",
        metrics={"reproduced": True},
        verdict="REPRODUCED",
        seed=seed,
        quick=True,
        wall_time_s=0.25,
        counters={"sim.runs": 1},
        repro_version="1.0.0",
        git_revision="abc1234",
    )


def make_key(seed: int = 0) -> CacheKey:
    # Built directly (fixed fingerprint): worker processes must not pull
    # in the experiment registry just to hammer the store.
    return CacheKey(experiment_id="x", quick=True, seed=seed, fingerprint="f" * 64)


def _exit_on_error(worker, *args) -> None:
    """Run ``worker`` and turn any exception into a nonzero exit code —
    the parent asserts on exit codes, not on shared state."""
    try:
        worker(*args)
    except BaseException:
        traceback.print_exc(file=sys.stderr)
        os._exit(1)
    os._exit(0)


def _writer(root: str, seeds: tuple, rounds: int) -> None:
    store = Cache(root)
    for _ in range(rounds):
        for seed in seeds:
            store.put(make_key(seed), make_artifact(seed))


def _reader(root: str, seeds: tuple, rounds: int) -> None:
    store = Cache(root)
    for _ in range(rounds):
        for seed in seeds:
            entry = store.get(make_key(seed))
            # A miss (evicted or not yet written) is fine; a hit must be
            # the complete, correct artifact — never a torn read.
            if entry is not None:
                assert entry.artifact.seed == seed
                assert entry.artifact.experiment_id == "x"


def _collector(root: str, budget_entries: int, rounds: int) -> None:
    store = Cache(root)
    budget = GCBudget(max_bytes=None, max_entries=budget_entries)
    for _ in range(rounds):
        collect(store, budget)


def _spawn(worker, *args) -> multiprocessing.Process:
    context = multiprocessing.get_context("fork")
    process = context.Process(target=_exit_on_error, args=(worker, *args))
    process.start()
    return process


def _join_all(processes) -> None:
    for process in processes:
        process.join(timeout=120)
    assert all(p.exitcode == 0 for p in processes), [
        p.exitcode for p in processes
    ]


def _hidden_files(store: Cache) -> list:
    """Every dotfile left in the store; at rest only the GC state."""
    return sorted(p.name for p in store.root.rglob(".*"))


class TestPutVersusCollectRace:
    def test_every_put_lands_while_another_process_evicts(self, tmp_path):
        """One process puts a key in a loop, another evicts everything
        in a loop; no put fails (the writer exits 0) and nothing but
        the GC state is left beside the entries."""
        root = str(tmp_path / "store")
        Cache(root).put(make_key(0), make_artifact(0))
        processes = [
            _spawn(_writer, root, (0,), 40),
            _spawn(_collector, root, 0, 40),
        ]
        _join_all(processes)
        store = Cache(root)
        assert _hidden_files(store) == [".gc-state.json"]
        # and the store is still coherent: a fresh put + get round-trips
        store.put(make_key(0), make_artifact(0))
        assert store.get(make_key(0)).artifact.seed == 0


class TestMultiWriterTorture:
    def test_concurrent_put_get_collect(self, tmp_path):
        root = str(tmp_path / "store")
        store = Cache(root)
        for seed in ALL_SEEDS:
            store.put(make_key(seed), make_artifact(seed))
        # Two overlapping writers, a validating reader, and a collector
        # whose budget never evicts (so "no lost entries" is exact): GC
        # sweeps (debris, shard pruning) must never destroy a live entry.
        processes = [
            _spawn(_writer, root, ALL_SEEDS[:6], ROUNDS),
            _spawn(_writer, root, ALL_SEEDS[3:], ROUNDS),
            _spawn(_reader, root, ALL_SEEDS, ROUNDS),
            _spawn(_collector, root, len(ALL_SEEDS) + 8, ROUNDS),
        ]
        _join_all(processes)
        # no lost entries, no corrupt survivors
        settled = Cache(root)
        for seed in ALL_SEEDS:
            entry = settled.get(make_key(seed))
            assert entry is not None, f"seed {seed} lost"
            assert entry.artifact.seed == seed
        # every surviving payload parses as strict JSON
        for path in settled.iter_entry_paths():
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert isinstance(payload, dict)
        # a settled collection's accounting sums exactly
        report = collect(settled, GCBudget(max_bytes=None))
        assert report.examined_entries == len(ALL_SEEDS)
        assert (
            report.examined_entries
            == report.evicted_entries + report.surviving_entries
        )
        assert report.surviving_entries == settled.stats().entries
        assert _hidden_files(settled) == [".gc-state.json"]
