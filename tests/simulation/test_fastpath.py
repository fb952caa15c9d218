"""Differential tests: the chunked fast path vs the scalar simulator.

The fast path's contract (repro.simulation.fastpath) is *bit-identity*:
for every eligible workload it must produce exactly the RunRecord the
scalar per-box loop produces — same boxes_used, same leaves/scans, same
float potential, same counters.  These tests sweep specs x models x
completion divisors x box sources and assert record equality, then pin
the selection rules (when the fast path engages, when it falls back,
when forcing it raises).
"""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms.randomized import random_slot_placement
from repro.algorithms.spec import RegularSpec, ScanPlacement
from repro.errors import ProfileError, SimulationError
from repro.profiles import (
    BoxRuns,
    BoxSource,
    cycled,
    order_perturbed,
    order_perturbed_profile,
    perturbed_limit,
    sampled,
    uniform_multipliers,
    worst_case_profile,
)
from repro.profiles.distributions import UniformPowers, UniformRange
from repro.runtime import instrumentation
from repro.simulation import fastpath
from repro.simulation.fastpath import is_chunkable, run_chunked, run_sampled
from repro.simulation.montecarlo import (
    estimate_expected_cost,
    sample_boxes_to_complete,
)
from repro.simulation.runner import run_repeated
from repro.simulation.symbolic import MODELS, SymbolicSimulator
from repro.util.rng import ReplayableStream

SPECS = [
    RegularSpec(8, 4, 1.0),
    RegularSpec(8, 4, 0.0),
    RegularSpec(4, 4, 1.0),
    RegularSpec(2, 4, 1.0),
]


def both_records(spec, n, source, model="simplified", kappa=1, max_boxes=None):
    """(scalar record, fast record) for one workload."""
    kwargs = {"completion_divisor": kappa} if model == "simplified" else {}
    scalar = SymbolicSimulator(spec, n, model=model, **kwargs).run(
        source, max_boxes=max_boxes, fastpath=False
    )
    fast = SymbolicSimulator(spec, n, model=model, **kwargs).run(
        source, max_boxes=max_boxes
    )
    return scalar, fast


def sources_for(spec, n, rng):
    profile = worst_case_profile(spec.a, spec.b, n)
    arr = profile.boxes
    shuffled = arr.copy()
    rng.shuffle(shuffled)
    iid = rng.integers(1, 4 * n, size=500).astype(np.int64)
    return {
        "profile": profile,
        "runs": profile.runs(),
        "array": arr,
        "shuffled": shuffled,
        "iid": iid,
        "iid_runs": BoxRuns.from_boxes(iid),
        "tiny": np.ones(40, dtype=np.int64),
        "empty": np.empty(0, dtype=np.int64),
    }


class TestEquivalenceSweep:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("model", ["simplified", "greedy"])
    def test_identical_records_across_sources(self, spec, model):
        rng = np.random.default_rng(0)
        for n in (64, 256):
            for name, source in sources_for(spec, n, rng).items():
                scalar, fast = both_records(spec, n, source, model=model)
                assert scalar == fast, f"{name} n={n}"

    @pytest.mark.parametrize("kappa", [1, 2, 4])  # 4 = b for these specs
    def test_identical_records_across_completion_divisors(self, kappa):
        spec = SPECS[0]
        rng = np.random.default_rng(1)
        for name, source in sources_for(spec, 256, rng).items():
            scalar, fast = both_records(spec, 256, source, kappa=kappa)
            assert scalar == fast, name

    def test_identical_records_under_max_boxes(self):
        spec = SPECS[0]
        n = 256
        profile = worst_case_profile(spec.a, spec.b, n)
        for mb in (0, 1, 7, 100, len(profile) // 3, len(profile) + 10):
            scalar, fast = both_records(spec, n, profile, max_boxes=mb)
            assert scalar == fast, f"max_boxes={mb}"
            assert fast.boxes_used <= mb

    def test_seeded_property_sweep(self):
        # randomized workloads: i.i.d. sizes, random lengths, both models
        rng = np.random.default_rng(1234)
        for trial in range(20):
            spec = SPECS[trial % len(SPECS)]
            n = int(4 ** rng.integers(2, 5))
            length = int(rng.integers(0, 300))
            boxes = rng.integers(1, 2 * n, size=length).astype(np.int64)
            model = "simplified" if trial % 2 == 0 else "greedy"
            kappa = int(rng.integers(1, 5)) if model == "simplified" else 1
            scalar, fast = both_records(
                spec, n, boxes, model=model, kappa=kappa
            )
            assert scalar == fast, f"trial {trial}"

    def test_logical_box_counters_preserved(self):
        spec = SPECS[0]
        profile = worst_case_profile(spec.a, spec.b, 256)
        with instrumentation.collect() as scalar_counters:
            SymbolicSimulator(spec, 256).run(profile, fastpath=False)
        with instrumentation.collect() as fast_counters:
            SymbolicSimulator(spec, 256).run(profile.runs())
        assert scalar_counters.as_dict() == fast_counters.as_dict()
        assert fast_counters.as_dict()["sim.boxes"] == len(profile)


class TestRepeatedAndSampled:
    def test_run_repeated_equivalent(self):
        spec = SPECS[0]
        n = 256
        profile = worst_case_profile(spec.a, spec.b, n)
        for source in (profile, profile.runs(), profile.boxes):
            for mc in (None, 1, 3):
                scalar = run_repeated(
                    spec, n, source, max_completions=mc, fastpath=False
                )
                fast = run_repeated(spec, n, source, max_completions=mc)
                assert scalar == fast

    @pytest.mark.parametrize("dist", [UniformPowers(4, 0, 4), UniformRange(1, 64)])
    def test_run_sampled_bitwise_equal(self, dist):
        spec = SPECS[0]
        for seed in (0, 1, 2):
            scalar = sample_boxes_to_complete(
                spec, 256, dist, np.random.default_rng(seed), fastpath=False
            )
            fast = sample_boxes_to_complete(
                spec, 256, dist, np.random.default_rng(seed), fastpath=True
            )
            assert scalar == fast

    def test_estimate_expected_cost_identical(self):
        spec = SPECS[0]
        scalar = estimate_expected_cost(
            spec, 256, UniformPowers(4, 0, 4), trials=10, rng=7, fastpath=False
        )
        fast = estimate_expected_cost(
            spec, 256, UniformPowers(4, 0, 4), trials=10, rng=7, fastpath=True
        )
        assert scalar == fast


class TestSelection:
    def test_eligible_simulator_is_chunkable(self):
        assert is_chunkable(SymbolicSimulator(SPECS[0], 64))
        assert is_chunkable(SymbolicSimulator(SPECS[0], 64, model="greedy"))

    def test_recursive_model_is_chunkable(self):
        # chunkable since the replayable-RNG refactor (feed_recursive_run)
        sim = SymbolicSimulator(SPECS[0], 64, model="recursive")
        assert is_chunkable(sim)
        record = sim.run(worst_case_profile(8, 4, 64))  # auto-select: fast
        assert record.completed
        scalar = SymbolicSimulator(SPECS[0], 64, model="recursive").run(
            worst_case_profile(8, 4, 64), fastpath=False
        )
        assert record == scalar

    def test_addressable_placement_is_chunkable(self):
        # seed-built placements draw by node index: chunkable
        sim = SymbolicSimulator(
            SPECS[0], 64, scan_randomizer=random_slot_placement(SPECS[0], 0)
        )
        assert is_chunkable(sim)
        record = sim.run(worst_case_profile(8, 4, 64))
        assert record.completed

    def test_positional_placement_falls_back_to_scalar(self):
        # a live Generator keeps the legacy positional draws: scalar only
        legacy = random_slot_placement(SPECS[0], np.random.default_rng(0))
        sim = SymbolicSimulator(SPECS[0], 64, scan_randomizer=legacy)
        assert not is_chunkable(sim)
        record = sim.run(worst_case_profile(8, 4, 64))
        assert record.completed

    def test_forcing_fastpath_on_ineligible_raises(self):
        legacy = random_slot_placement(SPECS[0], np.random.default_rng(0))
        sim = SymbolicSimulator(SPECS[0], 64, scan_randomizer=legacy)
        with pytest.raises(SimulationError):
            sim.run(worst_case_profile(8, 4, 64), fastpath=True)

    def test_run_chunked_rejects_ineligible_simulator(self):
        legacy = random_slot_placement(SPECS[0], np.random.default_rng(0))
        sim = SymbolicSimulator(SPECS[0], 64, scan_randomizer=legacy)
        with pytest.raises(SimulationError):
            run_chunked(sim, worst_case_profile(8, 4, 64))

    def test_record_boxes_is_scalar_only(self):
        sim = SymbolicSimulator(SPECS[0], 64)
        profile = worst_case_profile(8, 4, 64)
        record = sim.run(profile, record_boxes=True)  # auto: falls back
        assert record.completed and record.box_sizes is not None
        with pytest.raises(SimulationError):
            SymbolicSimulator(SPECS[0], 64).run(
                profile, record_boxes=True, fastpath=True
            )

    def test_run_sampled_requires_chunkable(self):
        legacy = random_slot_placement(SPECS[0], np.random.default_rng(0))
        sim = SymbolicSimulator(SPECS[0], 64, scan_randomizer=legacy)
        with pytest.raises(SimulationError):
            run_sampled(sim, UniformPowers(4, 0, 4), np.random.default_rng(0))


# ---------------------------------------------------------------- box sources
def source_factories(spec, n):
    """name -> ``make(gen)`` building a fresh box source.

    Random sources are single-use, so unlike ``both_records`` the scalar
    and the fast side each build their own source, from equal generators.
    """
    profile = worst_case_profile(spec.a, spec.b, n)
    shuffled = np.random.default_rng(1).permutation(profile.boxes)
    tail = np.random.default_rng(2).integers(1, 4 * n, size=300).astype(np.int64)
    dist = UniformPowers(spec.b, 0, 4)
    return {
        "cycled": lambda gen: cycled(profile),
        "cycled_shifted": lambda gen: cycled(
            profile, first=profile.rotate(len(profile) // 3)
        ),
        "cycled_array": lambda gen: cycled(type(profile)(shuffled)),
        "sampled": lambda gen: sampled(dist, gen),
        "sampled_head": lambda gen: sampled(
            dist, gen, head=gen.permutation(profile.boxes)
        ),
        "sampled_stream": lambda gen: sampled(dist, ReplayableStream(7, "boxes")),
        "perturbed_limit": lambda gen: perturbed_limit(
            spec.a, spec.b, spec.base_size, uniform_multipliers(2.0), gen
        ),
        "order_perturbed": lambda gen: order_perturbed(
            spec.a, spec.b, n, spec.base_size, rng=gen
        ),
        "order_adversarial": lambda gen: cycled(
            order_perturbed_profile(
                spec.a, spec.b, n, spec.base_size, position_rule=lambda size, path: 1
            )
        ),
        # runs, then an array, then runs again: one run mixing both kinds
        "runs_array_runs": lambda gen: BoxSource(
            lambda: iter((profile.runs(), tail, profile.runs()))
        ),
    }


def source_records(spec, n, make, model, kappa=1, placement=None, max_boxes=None):
    """((scalar record, its RNG state), (fast record, its RNG state))."""
    out = []
    for fast in (False, True):
        gen = np.random.default_rng(5)
        sim = SymbolicSimulator(
            spec,
            n,
            model=model,
            completion_divisor=kappa,
            scan_randomizer=None if placement is None else placement(spec),
        )
        rec = sim.run(make(gen), max_boxes=max_boxes, fastpath=fast)
        out.append((rec, gen.bit_generator.state))
    return out


class TestBoxSourceEquivalence:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("kappa", [1, 4])  # 4 = b for these specs
    def test_identical_records_and_draws(self, model, kappa):
        for spec, n in ((SPECS[0], 256), (SPECS[3], 64)):
            for name, make in source_factories(spec, n).items():
                (scalar, s_state), (fast, f_state) = source_records(
                    spec, n, make, model, kappa
                )
                assert scalar == fast, f"{spec.name} {name}"
                # random sources draw exactly the scalar path's batches
                assert s_state == f_state, f"{spec.name} {name}"

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("kappa", [1, 4])
    def test_identical_records_under_addressable_placement(self, model, kappa):
        spec = SPECS[0]
        for name, make in source_factories(spec, 64).items():
            (scalar, s_state), (fast, f_state) = source_records(
                spec,
                64,
                make,
                model,
                kappa,
                placement=lambda s: random_slot_placement(s, 3),
            )
            assert scalar == fast, name
            assert s_state == f_state, name

    @pytest.mark.parametrize("model", MODELS)
    def test_identical_records_under_max_boxes(self, model):
        spec = SPECS[0]
        for mb in (0, 1, 37, 700, 5000):
            for name, make in source_factories(spec, 256).items():
                (scalar, s_state), (fast, f_state) = source_records(
                    spec, 256, make, model, max_boxes=mb
                )
                assert scalar == fast, f"{name} max_boxes={mb}"
                assert fast.boxes_used <= mb
                assert s_state == f_state, f"{name} max_boxes={mb}"

    def test_single_use_source_refuses_a_second_run(self):
        source = sampled(UniformPowers(4, 0, 4), 0)
        SymbolicSimulator(SPECS[0], 64).run(source)
        with pytest.raises(ProfileError, match="single-use"):
            SymbolicSimulator(SPECS[0], 64).run(source)

    def test_arbitrary_iterables_still_run_scalar(self):
        profile = worst_case_profile(8, 4, 64)
        sim = SymbolicSimulator(SPECS[0], 64)
        assert not is_chunkable(sim, iter(profile))
        assert is_chunkable(sim, cycled(profile))
        with pytest.raises(SimulationError):
            run_chunked(sim, iter(profile))


class TestHelpersReachTheEngine:
    """Each helper that feeds a box source must reach ``run_chunked``: a
    silent scalar fallback (a source the engine does not recognise)
    fails here instead of only slowing ``repro run all`` down."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        calls = {"run": 0, "chunked": 0}
        real_run, real_chunked = SymbolicSimulator.run, fastpath.run_chunked

        def run(sim, *args, **kwargs):
            calls["run"] += 1
            return real_run(sim, *args, **kwargs)

        def chunked(*args, **kwargs):
            calls["chunked"] += 1
            return real_chunked(*args, **kwargs)

        monkeypatch.setattr(SymbolicSimulator, "run", run)
        monkeypatch.setattr(fastpath, "run_chunked", chunked)
        return calls

    @staticmethod
    def helpers():
        from repro.algorithms.library import MM_SCAN
        from repro.analysis import smoothing
        from repro.experiments import (
            exp_ablation,
            exp_gap_theorem2,
            exp_randomized_algorithm,
            exp_realistic_profiles,
            exp_regime_sweep,
            exp_scan_hiding,
        )

        dist = UniformPowers(4, 0, 4)
        return {
            "iid": lambda: smoothing.iid_ratio_trials(MM_SCAN, 64, dist, 2, rng=0),
            "shuffle": lambda: smoothing.shuffled_worst_case_trials(
                MM_SCAN, 64, 2, rng=0
            ),
            "sizepert": lambda: smoothing.size_perturbation_trials(
                MM_SCAN, 64, uniform_multipliers(2.0), 2, rng=0
            ),
            "shiftpert": lambda: smoothing.start_shift_trials(MM_SCAN, 64, 2, rng=0),
            "orderpert": lambda: smoothing.order_perturbation_trials(
                MM_SCAN, 64, 2, rng=0
            ),
            "orderpert_adversarial": lambda: smoothing.order_perturbation_trials(
                MM_SCAN, 64, 2, rng=0, adversarial_position=1
            ),
            "gap": lambda: exp_gap_theorem2._ratio_on_worst_case(MM_SCAN, 64),
            "regimes": lambda: exp_regime_sweep._adversary_ratio(
                RegularSpec(16, 4, 1.0), 64
            ),
            "ablation": lambda: exp_ablation._adversary_ratio(
                MM_SCAN.with_placement(ScanPlacement.SPLIT), 64, "recursive", 4
            ),
            "randomized": lambda: exp_randomized_algorithm._mean_ratio(
                MM_SCAN, 64, random_slot_placement, 2, 0, 4
            ),
            "scanhide": lambda: exp_scan_hiding.run(quick=True, seed=0),
            "realistic": lambda: exp_realistic_profiles.run(quick=True, seed=0),
        }

    @pytest.mark.parametrize(
        "name",
        [
            "iid", "shuffle", "sizepert", "shiftpert", "orderpert",
            "orderpert_adversarial", "gap", "regimes", "ablation",
            "randomized", "scanhide", "realistic",
        ],
    )
    def test_every_run_is_chunked(self, engine_calls, name):
        self.helpers()[name]()
        assert engine_calls["run"] > 0
        assert engine_calls["chunked"] == engine_calls["run"]


class TestBoundedPotentialMemory:
    """``bounded_potential`` is folded in bounded blocks: the chunked
    engine never holds a per-box buffer for the whole run."""

    @staticmethod
    def peak_of(fn):
        tracemalloc.start()
        try:
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_cycled_adversary_peaks_below_one_flat_copy(self):
        # the regimes experiment's largest source: the (16,4,1)
        # adversary at n = 4**5, 1.1M boxes; keeping per-box arrays for
        # the whole run would hold several flat copies of them
        spec = RegularSpec(16, 4, 1.0)
        n = 4**5
        profile = worst_case_profile(16, 4, n)
        rec, peak = self.peak_of(lambda: SymbolicSimulator(spec, n).run(cycled(profile)))
        assert rec.completed and rec.boxes_used == len(profile)
        assert peak < profile.boxes.nbytes

    def test_long_array_stream_peaks_far_below_its_size(self):
        # a root scan (FRONT placement) absorbs 4M unit boxes through the
        # vectorized array path without completing
        spec = RegularSpec(2, 4, 1.0).with_placement(ScanPlacement.FRONT)
        boxes = np.ones(4_000_000, dtype=np.int64)
        rec, peak = self.peak_of(lambda: SymbolicSimulator(spec, 4**11).run(boxes))
        assert rec.boxes_used == boxes.size and not rec.completed
        assert rec.bounded_potential == float(boxes.size)
        assert peak < boxes.nbytes // 4
