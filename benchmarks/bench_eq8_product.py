"""Benchmark regenerating experiment ``eq8``.

Equation 8: the aggregate scan-correction product stays O(1).

Run with ``pytest benchmarks/ --benchmark-only``; the regenerated result
tables are printed (use ``-s`` to see them) and the reproduction verdict
is asserted, so this bench doubles as the paper-claim regression gate.
"""

from repro.api import run


def test_eq8_product(benchmark):
    result = benchmark.pedantic(
        run,
        args=("eq8",),
        kwargs={"quick": True, "seed": 0, "cache": "off"},
        iterations=1,
        rounds=1,
    )
    print()
    print(result.render())
    assert result.metrics.get("reproduced") is True, result.render()
