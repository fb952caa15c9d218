"""Benchmark regenerating experiment ``randomized``.

Open question: randomized scan placement defeats the fixed adversary.

Run with ``pytest benchmarks/ --benchmark-only``; the regenerated result
tables are printed (use ``-s`` to see them) and the reproduction verdict
is asserted, so this bench doubles as the paper-claim regression gate.
"""

from repro.api import run


def test_randomized_algorithm(benchmark):
    result = benchmark.pedantic(
        run,
        args=("randomized",),
        kwargs={"quick": True, "seed": 0, "cache": "off"},
        iterations=1,
        rounds=1,
    )
    print()
    print(result.render())
    assert result.metrics.get("reproduced") is True, result.render()
