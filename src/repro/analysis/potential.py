"""Box potential ``rho`` — Lemma 1.

The *potential* of a box is the maximum progress (base-case subproblems at
least partly executed) it could achieve at any point of any execution of
the algorithm.  Lemma 1: ``rho(|box|) = Theta(|box|**e)`` with
``e = log_b a``.  This module provides the exact combinatorial value under
the simplified model, the smooth power form used in the efficiency
condition, and an empirical estimator that measures progress of a single
box dropped at sampled execution positions (used by the ``lemma1``
experiment to recover the exponent by fitting).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.algorithms.cursor import ExecutionCursor
from repro.algorithms.spec import RegularSpec
from repro.util.intmath import floor_power
from repro.util.rng import as_generator

__all__ = ["potential", "max_progress", "measured_potential"]


def potential(spec: RegularSpec, box_size: int, rho1: float = 1.0) -> float:
    """The smooth potential form ``rho1 * |box|**e`` used in the
    efficiency sums (Inequality 1/2)."""
    if box_size < 1:
        raise SimulationError(f"box size must be >= 1, got {box_size}")
    return rho1 * float(box_size) ** spec.exponent


def max_progress(spec: RegularSpec, box_size: int) -> int:
    """Exact maximum progress of one box under the simplified model.

    A box of size ``s`` completes at most the remainder of the largest
    problem of size ``<= s`` containing its start, so its progress is
    maximized when it starts at the very beginning of such a problem:
    ``leaves(largest node size <= s)``.  This is the ``Theta(s**e)``
    combinatorial quantity of Lemma 1.
    """
    if box_size < 1:
        raise SimulationError(f"box size must be >= 1, got {box_size}")
    if box_size < spec.base_size:
        return 0
    # Largest node size of the form base * b**k that is <= box_size.
    node = spec.base_size * floor_power(max(box_size // spec.base_size, 1), spec.b)
    return spec.leaves(node)


def measured_potential(
    spec: RegularSpec,
    n: int,
    box_size: int,
    samples: int = 256,
    rng: object = None,
    include_aligned: bool = True,
) -> int:
    """Empirical potential: drop a single box of ``box_size`` at sampled
    positions of a size-``n`` execution and return the maximum progress
    observed.

    Positions are sampled uniformly over the linearized access sequence;
    with ``include_aligned`` the start of the execution (the position that
    achieves the maximum) is always included, so with any ``samples >= 1``
    the returned value equals :func:`max_progress` when ``box_size <= n``.
    """
    spec.validate_problem_size(n)
    if samples < 1:
        raise SimulationError(f"samples must be >= 1, got {samples}")
    gen = as_generator(rng)
    total = spec.subtree_accesses(n)
    positions = set(int(p) for p in gen.integers(0, total, size=samples))
    if include_aligned:
        positions.add(0)
    best = 0
    cursor = ExecutionCursor(spec, n)
    for pos in positions:
        cursor.seek(pos)
        if cursor.is_done:
            continue
        _, leaves, _ = cursor.feed_simplified_run(box_size, 1)
        if leaves > best:
            best = leaves
    return best
