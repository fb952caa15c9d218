"""Benchmark regenerating experiment ``oracle``.

Explicit adaptation (Barve-Vitter style) vs smoothed obliviousness on the
same adversary: the adaptive executor flattens the ratio that costs the
oblivious algorithm Theta(log n); shuffling matches it obliviously.

Run with ``pytest benchmarks/ --benchmark-only``; the regenerated result
tables are printed (use ``-s`` to see them) and the reproduction verdict
is asserted, so this bench doubles as the paper-claim regression gate.
"""

from repro.api import run


def test_explicit_adaptivity(benchmark):
    result = benchmark.pedantic(
        run,
        args=("oracle",),
        kwargs={"quick": True, "seed": 0, "cache": "off"},
        iterations=1,
        rounds=1,
    )
    print()
    print(result.render())
    assert result.metrics.get("reproduced") is True, result.render()
