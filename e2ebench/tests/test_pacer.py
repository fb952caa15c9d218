"""The pacer scales an interval by the CPU time of the chunks inside it."""

import time

import pytest

from harness import BenchError
from pacer import MIN_CHUNKS, PACER_NOMINAL_S, Pacer, scale_of


def chunks(start, count, cpu, length=0.01):
    return [(start + i * length, start + (i + 1) * length, cpu) for i in range(count)]


def test_chunks_inside_the_interval_set_the_scale():
    slow = chunks(10.0, 2 * MIN_CHUNKS, 2 * PACER_NOMINAL_S)
    fast = chunks(0.0, 100, PACER_NOMINAL_S / 2)  # before the interval
    assert scale_of(fast + slow, 10.0, 11.0) == pytest.approx(0.5)


def test_short_interval_falls_back_to_overlapping_chunks():
    records = chunks(0.0, 3, PACER_NOMINAL_S, length=1.0)  # [0,1], [1,2], [2,3]
    assert scale_of(records, 1.5, 1.7) == pytest.approx(1.0)
    assert scale_of(records, 0.5, 2.5) == pytest.approx(1.0)


def test_no_chunk_is_an_error():
    with pytest.raises(BenchError):
        scale_of(chunks(0.0, 5, PACER_NOMINAL_S), 10.0, 11.0)


def test_live_pacer_runs_and_stops(tmp_path):
    with Pacer(tmp_path) as pacer:
        start = time.perf_counter()
        time.sleep(0.3)
        scale = pacer.scale(start, time.perf_counter())
        child = pacer.child
    assert 0.1 < scale < 10.0
    assert pacer.child is None
    if child is not None:  # a single-CPU host runs no pacer
        assert child.proc.returncode is not None
