"""Benchmark regenerating experiment ``sizepert``.

Robustness: box-size perturbations keep the profile worst-case.

Run with ``pytest benchmarks/ --benchmark-only``; the regenerated result
tables are printed (use ``-s`` to see them) and the reproduction verdict
is asserted, so this bench doubles as the paper-claim regression gate.
"""

from repro.api import run


def test_size_perturbation(benchmark):
    result = benchmark.pedantic(
        run,
        args=("sizepert",),
        kwargs={"quick": True, "seed": 0, "cache": "off"},
        iterations=1,
        rounds=1,
    )
    print()
    print(result.render())
    assert result.metrics.get("reproduced") is True, result.render()
