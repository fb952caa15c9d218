"""Benchmark regenerating experiment ``fig1``.

Figure 1: recursive worst-case profile construction and exact completion.

Run with ``pytest benchmarks/ --benchmark-only``; the regenerated result
tables are printed (use ``-s`` to see them) and the reproduction verdict
is asserted, so this bench doubles as the paper-claim regression gate.
"""

from repro.api import run


def test_fig1_worst_case(benchmark):
    result = benchmark.pedantic(
        run,
        args=("fig1",),
        kwargs={"quick": True, "seed": 0, "cache": "off"},
        iterations=1,
        rounds=1,
    )
    print()
    print(result.render())
    assert result.metrics.get("reproduced") is True, result.render()
