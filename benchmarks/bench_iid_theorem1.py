"""Benchmark regenerating experiment ``iid``.

Theorem 1: i.i.d. boxes give O(1) expected adaptivity ratio for any Sigma.

Run with ``pytest benchmarks/ --benchmark-only``; the regenerated result
tables are printed (use ``-s`` to see them) and the reproduction verdict
is asserted, so this bench doubles as the paper-claim regression gate.
"""

from repro.api import run


def test_iid_theorem1(benchmark):
    result = benchmark.pedantic(
        run,
        args=("iid",),
        kwargs={"quick": True, "seed": 0, "cache": "off"},
        iterations=1,
        rounds=1,
    )
    print()
    print(result.render())
    assert result.metrics.get("reproduced") is True, result.render()
