"""Benchmark regenerating experiment ``realistic``.

The introduction's motivating fluctuation patterns (winner-take-all with
periodic flushes, random-walk contention), squarified and scored: natural
profiles stay adaptive; only the tailored adversary extracts the log.

Run with ``pytest benchmarks/ --benchmark-only``; the regenerated result
tables are printed (use ``-s`` to see them) and the reproduction verdict
is asserted, so this bench doubles as the paper-claim regression gate.
"""

from repro.api import run


def test_realistic_profiles(benchmark):
    result = benchmark.pedantic(
        run,
        args=("realistic",),
        kwargs={"quick": True, "seed": 0, "cache": "off"},
        iterations=1,
        rounds=1,
    )
    print()
    print(result.render())
    assert result.metrics.get("reproduced") is True, result.render()
