"""Benchmark regenerating experiment ``xcheck``.

Model validity: symbolic vs trace machine vs DAM.

Run with ``pytest benchmarks/ --benchmark-only``; the regenerated result
tables are printed (use ``-s`` to see them) and the reproduction verdict
is asserted, so this bench doubles as the paper-claim regression gate.
"""

from repro.api import run


def test_trace_crosscheck(benchmark):
    result = benchmark.pedantic(
        run,
        args=("xcheck",),
        kwargs={"quick": True, "seed": 0, "cache": "off"},
        iterations=1,
        rounds=1,
    )
    print()
    print(result.render())
    assert result.metrics.get("reproduced") is True, result.render()
