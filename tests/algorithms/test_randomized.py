"""Unit tests for randomized scan placement."""

import itertools

import pytest

from repro.errors import SimulationError, SpecError
from repro.algorithms.cursor import ExecutionCursor
from repro.algorithms.library import MM_INPLACE, MM_SCAN
from repro.algorithms.randomized import (
    coin_flip_placement,
    random_slot_placement,
    random_split_placement,
)
from repro.profiles.worst_case import worst_case_profile
from repro.simulation.symbolic import SymbolicSimulator
from repro.util.rng import ReplayableStream

FACTORIES = [random_slot_placement, random_split_placement, coin_flip_placement]


class TestFactories:
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_pieces_shape_and_sum(self, factory):
        randomizer = factory(MM_SCAN, rng=0)
        for size in (4, 16, 64):
            pieces = randomizer(size)
            assert len(pieces) == MM_SCAN.a + 1
            assert sum(pieces) == MM_SCAN.scan_length(size)
            assert all(p >= 0 for p in pieces)

    def test_slot_puts_whole_scan_in_one_slot(self):
        randomizer = random_slot_placement(MM_SCAN, rng=1)
        pieces = randomizer(64)
        assert sorted(pieces)[-1] == 64
        assert sum(1 for p in pieces if p) == 1

    def test_coin_flip_front_or_back(self):
        randomizer = coin_flip_placement(MM_SCAN, rng=2)
        for _ in range(16):
            pieces = randomizer(16)
            assert pieces[0] == 16 or pieces[-1] == 16

    def test_rejects_scanless_spec(self):
        for factory in FACTORIES:
            with pytest.raises(SpecError):
                factory(MM_INPLACE)

    def test_deterministic_by_seed(self):
        a = random_split_placement(MM_SCAN, rng=3)
        b = random_split_placement(MM_SCAN, rng=3)
        assert [a(64) for _ in range(4)] == [b(64) for _ in range(4)]


class TestBlockDraws:
    """``slot`` and ``coin`` read their uniform from a drawn block; each
    node must still get exactly its per-index draw, in any visit order
    and across block boundaries."""

    INDICES = [0, 1, 4095, 4096, 4097, 9000, 3, 12_289, 8191, 8192, 5]

    def test_slot_matches_per_index_integers(self):
        stream = ReplayableStream(21)
        placement = random_slot_placement(MM_SCAN, stream)
        slots = MM_SCAN.a + 1
        for node in self.INDICES:
            want = [0] * slots
            want[placement.stream.integers_at(node, 0, slots)] = 64
            assert placement(64, node) == want

    def test_coin_matches_per_index_uniform(self):
        placement = coin_flip_placement(MM_SCAN, ReplayableStream(22))
        for node in self.INDICES:
            heads = placement.stream.uniform_at(node) < 0.5
            pieces = placement(16, node)
            assert pieces[0 if heads else -1] == 16

    def test_fresh_placement_draws_the_same_layout(self):
        used = random_slot_placement(MM_SCAN, ReplayableStream(23))
        for node in reversed(self.INDICES):
            used(64, node)
        fresh = random_slot_placement(MM_SCAN, ReplayableStream(23))
        assert [used(64, i) for i in self.INDICES] == [
            fresh(64, i) for i in self.INDICES
        ]


class TestRandomizedCursor:
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_conservation(self, factory):
        cur = ExecutionCursor(MM_SCAN, 64, scan_randomizer=factory(MM_SCAN, 0))
        leaves = scans = 0
        while not cur.is_done:
            out = cur.feed_simplified(16)
            leaves += out.leaves
            scans += out.scan_accesses
        assert leaves == MM_SCAN.leaves(64)
        assert scans == MM_SCAN.subtree_scan_total(64)

    def test_invalid_randomizer_rejected(self):
        cur_factory = lambda: ExecutionCursor(
            MM_SCAN, 64, scan_randomizer=lambda size: [1, 2, 3]
        )
        with pytest.raises(SimulationError):
            cur_factory()

    def test_snapshot_carries_randomizer(self):
        cur = ExecutionCursor(
            MM_SCAN, 64, scan_randomizer=random_slot_placement(MM_SCAN, 0)
        )
        snap = cur.snapshot()
        assert snap._randomizer is cur._randomizer


class TestRandomizedSimulation:
    def test_simulator_plumbs_randomizer(self):
        sim = SymbolicSimulator(
            MM_SCAN, 64, scan_randomizer=random_slot_placement(MM_SCAN, 0)
        )
        rec = sim.run_to_completion(itertools.repeat(16))
        assert rec.completed
        assert rec.leaves_done == MM_SCAN.leaves(64)

    def test_randomized_beats_adversary(self):
        # the key phenomenon: randomized placement keeps the ratio well
        # below the deterministic log on the canonical adversary
        n = 4**4
        profile = worst_case_profile(8, 4, n)
        det = SymbolicSimulator(MM_SCAN, n, model="recursive").run(profile)
        assert det.adaptivity_ratio == pytest.approx(5.0)
        ratios = []
        for seed in range(5):
            sim = SymbolicSimulator(
                MM_SCAN,
                n,
                model="recursive",
                scan_randomizer=random_slot_placement(MM_SCAN, seed),
            )
            rec = sim.run_to_completion(
                itertools.chain(iter(profile), itertools.cycle(profile.boxes.tolist()))
            )
            ratios.append(rec.adaptivity_ratio)
        assert sum(ratios) / len(ratios) < 0.7 * det.adaptivity_ratio

    def test_reset_redraws(self):
        sim = SymbolicSimulator(
            MM_SCAN, 64, scan_randomizer=random_slot_placement(MM_SCAN, 0)
        )
        sim.run([10**9])
        sim.reset()
        assert not sim.is_done
