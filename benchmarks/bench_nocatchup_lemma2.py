"""Benchmark regenerating experiment ``nocatchup``.

Lemma 2: delayed starts never finish earlier.

Run with ``pytest benchmarks/ --benchmark-only``; the regenerated result
tables are printed (use ``-s`` to see them) and the reproduction verdict
is asserted, so this bench doubles as the paper-claim regression gate.
"""

from repro.api import run


def test_nocatchup_lemma2(benchmark):
    result = benchmark.pedantic(
        run,
        args=("nocatchup",),
        kwargs={"quick": True, "seed": 0, "cache": "off"},
        iterations=1,
        rounds=1,
    )
    print()
    print(result.render())
    assert result.metrics.get("reproduced") is True, result.render()
