"""The tail rule: the highest ladder percentile with >= 10 samples beyond it."""

import pytest

from harness import TAIL_MIN_BEYOND, tail


def beyond(values, value):
    return sum(1 for v in values if v > value)


@pytest.mark.parametrize(
    "n, percentile",
    [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (4000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_beyond(n, percentile):
    values = [float(i) for i in range(n)]
    p, value = tail(values)
    assert p == percentile
    assert beyond(values, value) >= TAIL_MIN_BEYOND


def test_too_few_samples_have_no_tail():
    assert tail([float(i) for i in range(19)]) is None
    assert tail([]) is None


def test_nearest_rank_on_unsorted_input():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4  # n = 20 -> p50 by nearest rank
    assert tail(values) == (50.0, 3.0)
