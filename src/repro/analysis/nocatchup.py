"""The No-Catch-up Lemma (Lemma 2), checkable.

Lemma 2: for a fixed memory-reference sequence and a fixed sequence of
squares, delaying the algorithm's start can never make it finish earlier —
if starting square 1 at reference ``r_i`` makes square ``k`` finish at
``r_j``, then starting at any earlier ``r_{i'}`` finishes at some
``r_{j'} <= r_j``.  The lemma is the engine of the paper's robustness
proofs (it is what lets a perturbed profile "re-synchronize" with the
algorithm), so the library verifies it wholesale: run the same box
sequence from every (sampled) start position and check the finish
position is monotone in the start position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.algorithms.cursor import ExecutionCursor
from repro.algorithms.spec import RegularSpec
from repro.util.rng import as_generator

__all__ = [
    "NoCatchupReport",
    "finish_positions",
    "check_no_catchup",
    "require_monotone_starts",
]


def require_monotone_starts(
    starts: Sequence[int], what: str = "start positions"
) -> tuple[int, ...]:
    """Runtime contract behind the ``nocatchup-monotonicity`` lint rule.

    Lemma 2 statements ("an earlier start can never finish later") are
    comparisons *along a monotone axis*: ``finish(starts[i])`` vs
    ``finish(starts[i+1])`` is only evidence about the lemma when
    ``starts[i] <= starts[i+1]``.  Call this on the start sequence
    immediately before any such adjacent-pair comparison; it returns the
    verified tuple so the guarded sequence is the compared sequence.

    Raises :class:`~repro.errors.SimulationError` on the first inversion
    (an ``assert`` would vanish under ``python -O``; the contract must
    not).
    """
    out = tuple(int(s) for s in starts)
    for i in range(len(out) - 1):
        if out[i] > out[i + 1]:
            raise SimulationError(
                f"{what} must be monotone nondecreasing for No-Catch-up "
                f"comparisons: index {i} holds {out[i]} but index "
                f"{i + 1} holds {out[i + 1]}; sort the starts (and keep "
                "finish positions paired with them) before comparing"
            )
    return out


def finish_positions(
    spec: RegularSpec,
    n: int,
    boxes: Sequence[int],
    start_positions: Sequence[int],
    model: str = "simplified",
) -> list[int]:
    """For each start position (linearized access index), run the whole
    box sequence and return the finishing access index (the execution's
    total access count if it completed early)."""
    if model not in ("simplified", "greedy"):
        raise SimulationError(f"unknown model {model!r}")
    spec.validate_problem_size(n)
    out: list[int] = []
    cursor = ExecutionCursor(spec, n)
    # one box at a time through the closed forms: the same semantics as
    # feed_simplified / feed_greedy, in O(depth) per box
    feed = (
        cursor.feed_simplified_run
        if model == "simplified"
        else cursor.feed_greedy_run
    )
    for start in start_positions:
        cursor.seek(int(start))
        for s in boxes:
            if cursor.is_done:
                break
            feed(int(s), 1)
        out.append(cursor.access_index())
    return out


@dataclass(frozen=True)
class NoCatchupReport:
    """Outcome of a No-Catch-up verification sweep."""

    starts: tuple[int, ...]
    finishes: tuple[int, ...]
    violations: tuple[tuple[int, int], ...]  # (earlier start, later start)

    @property
    def holds(self) -> bool:
        return not self.violations


def check_no_catchup(
    spec: RegularSpec,
    n: int,
    boxes: Sequence[int],
    starts: Sequence[int] | None = None,
    samples: int = 64,
    rng: object = None,
    model: str = "simplified",
) -> NoCatchupReport:
    """Verify Lemma 2 for one box sequence.

    If ``starts`` is omitted, ``samples`` positions are drawn uniformly
    (plus position 0).  A violation is a pair of starts ``i' < i`` whose
    finish positions satisfy ``finish(i') > finish(i)``; since finish
    positions must be monotone in the start, adjacent-pair checking over
    the sorted starts suffices.
    """
    spec.validate_problem_size(n)
    if starts is None:
        gen = as_generator(rng)
        total = spec.subtree_accesses(n)
        starts = sorted({0, *map(int, gen.integers(0, total, size=samples))})
    else:
        starts = sorted(int(s) for s in starts)
    # Contract guard directly in front of the adjacent-pair comparison:
    # the sort above establishes monotonicity today, but the lemma check
    # below is only sound because of it, so the guarded tuple is the
    # compared tuple.
    starts = require_monotone_starts(starts)
    finishes = finish_positions(spec, n, boxes, starts, model=model)
    violations = [
        (starts[i], starts[i + 1])
        for i in range(len(starts) - 1)
        if finishes[i] > finishes[i + 1]
    ]
    return NoCatchupReport(
        starts=starts,
        finishes=tuple(finishes),
        violations=tuple(violations),
    )
