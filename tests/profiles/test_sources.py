"""Unit tests for box sources (repro.profiles.sources): each constructor
yields the flat box sequence of the stream it replaces, draws the same
random batches, and refuses a second consumption when random."""

import itertools

import numpy as np
import pytest

from repro.errors import ProfileError
from repro.profiles import (
    BoxRuns,
    BoxSource,
    SquareProfile,
    UniformPowers,
    as_box_source,
    cycled,
    limit_profile_boxes,
    order_perturbed,
    order_perturbed_profile,
    perturbed_limit,
    sampled,
    uniform_multipliers,
    worst_case_profile,
)
from repro.profiles.sources import profile_chunk
from repro.util.rng import ReplayableStream


def take(source, k):
    return list(itertools.islice(iter(source), k))


class TestOneChunkSources:
    def test_profile_is_one_chunk_source(self):
        profile = worst_case_profile(8, 4, 64)
        chunks = list(as_box_source(profile).chunks())
        assert len(chunks) == 1
        assert isinstance(chunks[0], BoxRuns)  # repetitive: its RLE
        assert list(as_box_source(profile)) == list(profile)

    def test_low_repetition_profile_is_its_array(self):
        profile = SquareProfile([5, 1, 7, 2, 9])
        chunk = profile_chunk(profile)
        assert isinstance(chunk, np.ndarray)
        assert chunk.tolist() == [5, 1, 7, 2, 9]

    def test_runs_and_arrays_are_one_chunk_sources(self):
        runs = BoxRuns([(4, 3), (16, 1)])
        assert list(as_box_source(runs)) == [4, 4, 4, 16]
        arr = np.array([3, 1, 2], dtype=np.int32)
        (chunk,) = as_box_source(arr).chunks()
        assert chunk.dtype == np.int64 and chunk.tolist() == [3, 1, 2]

    def test_other_iterables_are_not_box_sources(self):
        for boxes in ([1, 2, 3], iter([1, 2]), (s for s in [4]),
                      np.ones((2, 2), dtype=np.int64), np.ones(3)):
            assert as_box_source(boxes) is None

    def test_mixed_chunks_iterate_in_order(self):
        source = BoxSource(
            lambda: iter([BoxRuns([(2, 2)]), np.array([7, 1], dtype=np.int64)])
        )
        assert list(source) == [2, 2, 7, 1]
        assert list(source) == [2, 2, 7, 1]  # reusable


class TestCycled:
    def test_cycling_is_the_profile_repeated(self):
        profile = worst_case_profile(8, 4, 64)
        k = 3 * len(profile) + 5
        expected = np.tile(profile.boxes, 4)[:k].tolist()
        assert take(cycled(profile), k) == expected

    def test_first_profile_then_cycle(self):
        profile = worst_case_profile(4, 4, 64)
        first = profile.rotate(7)
        k = len(first) + 2 * len(profile)
        expected = first.boxes.tolist() + np.tile(profile.boxes, 2).tolist()
        assert take(cycled(profile, first=first), k) == expected

    def test_low_repetition_profile_cycles_as_arrays(self):
        profile = SquareProfile([3, 1, 4, 1, 5])
        chunks = list(itertools.islice(cycled(profile).chunks(), 3))
        assert all(isinstance(c, np.ndarray) for c in chunks)
        assert take(cycled(profile), 12) == [3, 1, 4, 1, 5] * 2 + [3, 1]

    def test_empty_profile_ends(self):
        assert list(cycled(SquareProfile([]))) == []

    def test_reusable(self):
        source = cycled(worst_case_profile(8, 4, 16))
        assert take(source, 50) == take(source, 50)


class TestSampled:
    def test_matches_sampler_boxes_and_rng_state(self):
        dist = UniformPowers(4, 0, 4)
        g1, g2 = np.random.default_rng(3), np.random.default_rng(3)
        k = 3 * 4096 + 17  # spans batch boundaries
        assert take(sampled(dist, g1), k) == take(dist.sampler(g2), k)
        assert g1.bit_generator.state == g2.bit_generator.state

    def test_head_comes_first(self):
        dist = UniformPowers(4, 0, 2)
        head = np.array([9, 8, 7], dtype=np.int64)
        got = take(sampled(dist, 5, head=head), 3 + 100)
        assert got[:3] == [9, 8, 7]
        assert got[3:] == take(dist.sampler(5), 100)

    def test_addressed_stream_matches_sampler_at(self):
        dist = UniformPowers(4, 0, 3)
        stream = ReplayableStream(11, "boxes")
        assert take(sampled(dist, stream), 9000) == take(
            dist.sampler_at(stream), 9000
        )

    def test_single_use(self):
        source = sampled(UniformPowers(4, 0, 2), 1)
        take(source, 3)
        with pytest.raises(ProfileError, match="single-use"):
            take(source, 3)

    def test_chunks_are_drawn_lazily(self):
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        chunks = sampled(UniformPowers(4, 0, 2), gen).chunks()
        assert gen.bit_generator.state == before  # nothing drawn yet
        next(chunks)
        assert gen.bit_generator.state != before


class TestPerturbedLimit:
    def test_matches_batched_perturbation_of_the_limit_profile(self):
        mult = uniform_multipliers(2.0)
        g1, g2 = np.random.default_rng(4), np.random.default_rng(4)
        limit = limit_profile_boxes(8, 4)
        expected: list[int] = []
        for _ in range(5):
            sizes = np.asarray(list(itertools.islice(limit, 1024)), dtype=float)
            perturbed = np.rint(sizes * mult(sizes.size, g2)).astype(np.int64)
            expected.extend(perturbed[perturbed >= 1].tolist())
        chunks = list(
            itertools.islice(perturbed_limit(8, 4, 1, mult, g1).chunks(), 5)
        )
        assert np.concatenate(chunks).tolist() == expected
        assert g1.bit_generator.state == g2.bit_generator.state


def _per_box_perturbed_limit(a, b, base, multipliers, gen):
    """The generator-built perturbed_limit these sources replaced: each
    1024-box batch sliced from limit_profile_boxes one box at a time."""
    source = limit_profile_boxes(a, b, base)
    while True:
        sizes = np.asarray(
            list(itertools.islice(source, 1024)), dtype=np.float64
        )
        factors = np.asarray(multipliers(sizes.size, gen), dtype=np.float64)
        perturbed = np.rint(sizes * factors).astype(np.int64)
        yield perturbed[perturbed >= 1]


def _per_box_order_perturbed(a, b, n, base, position_rule):
    """The recursive, one-call-per-box order_perturbed_profile build."""
    out = []

    def build(size, path):
        if size == base:
            out.append(base)
            return
        pos = position_rule(size, path)
        for i in range(1, a + 1):
            build(size // b, path + (i,))
            if i == pos:
                out.append(size)

    build(n, ())
    return np.asarray(out, dtype=np.int64)


class TestArrayBuiltSources:
    """The array-built sources against copies of the per-box builders
    they replaced: equal boxes, equal draws."""

    @pytest.mark.parametrize("prefix", [None, 1, 40])
    @pytest.mark.parametrize(
        "a, b, base, seed",
        [(8, 4, 1, 0), (7, 4, 2, 1), (3, 2, 1, 2), (2, 3, 3, 3)],
    )
    def test_perturbed_limit_matches_per_box_build(
        self, monkeypatch, prefix, a, b, base, seed
    ):
        if prefix is not None:  # cut past a small prefix early
            monkeypatch.setattr("repro.profiles.sources._LIMIT_PREFIX", prefix)
        mult = uniform_multipliers(2.0)
        g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
        source = perturbed_limit(a, b, base, mult, g1)
        got = itertools.islice(source.chunks(), 45)
        want = itertools.islice(_per_box_perturbed_limit(a, b, base, mult, g2), 45)
        for mine, theirs in zip(got, want, strict=True):
            np.testing.assert_array_equal(mine, theirs)
        assert g1.bit_generator.state == g2.bit_generator.state

    @pytest.mark.parametrize(
        "a, b, n, base",
        [
            (8, 4, 256, 1),
            (7, 4, 128, 2),
            (3, 2, 64, 1),
            (2, 3, 27, 1),
            (1, 2, 8, 1),
            (5, 2, 3, 3),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_order_perturbed_matches_per_box_build(self, a, b, n, base, seed):
        calls, want_calls = [], []
        g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)

        def rule(gen, log):
            def position(size, path):
                log.append((size, path))
                return int(gen.integers(1, a + 1))

            return position

        got = order_perturbed_profile(a, b, n, base, position_rule=rule(g1, calls))
        want = _per_box_order_perturbed(a, b, n, base, rule(g2, want_calls))
        np.testing.assert_array_equal(got.boxes, want)
        assert calls == want_calls
        assert g1.bit_generator.state == g2.bit_generator.state

    def test_order_perturbed_default_rule_draws_as_before(self):
        g1, g2 = np.random.default_rng(9), np.random.default_rng(9)
        got = order_perturbed_profile(8, 4, 64, rng=g1)
        want = _per_box_order_perturbed(
            8, 4, 64, 1, lambda size, path: int(g2.integers(1, 9))
        )
        np.testing.assert_array_equal(got.boxes, want)
        assert g1.bit_generator.state == g2.bit_generator.state


class TestOrderPerturbed:
    def test_fresh_random_profiles_back_to_back(self):
        g1, g2 = np.random.default_rng(6), np.random.default_rng(6)
        expected = np.concatenate(
            [order_perturbed_profile(8, 4, 64, rng=g2).boxes for _ in range(3)]
        ).tolist()
        source = order_perturbed(8, 4, 64, rng=g1)
        assert take(source, len(expected)) == expected
        assert g1.bit_generator.state == g2.bit_generator.state

    def test_cycled_fixed_position_is_fresh_fixed_profiles(self):
        # A fixed position draws nothing, so fresh profiles back to back
        # are one profile cycled.
        one = order_perturbed_profile(8, 4, 64, position_rule=lambda size, path: 1)
        source = cycled(one)
        assert take(source, 2 * len(one)) == one.boxes.tolist() * 2
        assert take(source, len(one)) == one.boxes.tolist()
