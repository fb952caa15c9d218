"""The cursor against an independent array reference, box by box.

For each drawn execution and box list, four implementations must agree
after every box on ``(leaves, scans, done)`` and on the access index:

* the array reference (``reference.py``);
* the cursor's scalar per-box methods (``feed_simplified``,
  ``feed_recursive``, ``feed_greedy``), the oracle of the fast paths;
* the cursor's closed forms fed one box at a time (``feed_*_run(s, 1)``);
* the chunked engine, run over every prefix of the box list, as an
  array chunk and as run-length chunks.

Example budgets come from the active Hypothesis profile, so CI can run
this suite with a larger one (``--hypothesis-profile=ci``).
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from reference import ReferenceExecution
from repro.algorithms.cursor import ExecutionCursor
from repro.algorithms.randomized import (
    coin_flip_placement,
    random_slot_placement,
    random_split_placement,
)
from repro.algorithms.spec import RegularSpec, ScanPlacement
from repro.profiles.runs import BoxRuns
from repro.simulation.symbolic import SymbolicSimulator
from repro.util.rng import ReplayableStream

ADDRESSABLE = {
    "random-slot": random_slot_placement,
    "random-split": random_split_placement,
    "random-coin": coin_flip_placement,
}


@st.composite
def executions(draw):
    """``(spec, n, placement factory)`` with at most ~2k accesses."""
    a = draw(st.integers(min_value=1, max_value=6))
    b = draw(st.sampled_from([2, 3, 4]))
    c = draw(st.sampled_from([0.0, 0.5, 1.0]))
    base = draw(st.integers(min_value=1, max_value=3))
    placement = draw(st.sampled_from(ScanPlacement.ALL + tuple(ADDRESSABLE)))
    if placement in ADDRESSABLE and c == 0.0:
        c = 1.0  # a scan-free spec has nothing to randomize
    static = placement if placement in ScanPlacement.ALL else ScanPlacement.END
    spec = RegularSpec(a, b, c, base_size=base, scan_placement=static)
    max_depth = 1
    while (
        max_depth < 5
        and spec.subtree_accesses(base * b ** (max_depth + 1)) <= 2000
    ):
        max_depth += 1
    n = base * b ** draw(st.integers(min_value=0, max_value=max_depth))
    if placement in ADDRESSABLE:
        seed = draw(st.integers(min_value=0, max_value=2**16))
        factory = ADDRESSABLE[placement]

        def place():
            return factory(spec, ReplayableStream(seed))

    else:

        def place():
            return None

    return spec, n, place


@st.composite
def workloads(draw):
    spec, n, place = draw(executions())
    model = draw(st.sampled_from(["simplified", "recursive", "greedy"]))
    kappa = draw(st.integers(min_value=1, max_value=spec.b + 1))
    top = draw(st.sampled_from([spec.base_size + 1, n + 1, 2 * n + 2]))
    boxes = draw(
        st.lists(st.integers(min_value=1, max_value=top), min_size=1, max_size=30)
    )
    return spec, n, place, model, kappa, boxes


def scalar_step(cursor, model, s, kappa):
    if model == "simplified":
        out = cursor.feed_simplified(s, kappa)
    elif model == "recursive":
        out = cursor.feed_recursive(s, kappa)
    else:
        out = cursor.feed_greedy(s)
    return out.leaves, out.scan_accesses, out.done


def closed_form_step(cursor, model, s, kappa):
    if model == "simplified":
        got = cursor.feed_simplified_run(s, 1, kappa)
    elif model == "recursive":
        got = cursor.feed_recursive_run(s, 1, kappa)
    else:
        got = cursor.feed_greedy_run(s, 1)
    assert got[0] == 1
    return got[1], got[2], cursor.is_done


def reference_step(ref, model, s, kappa):
    if model == "simplified":
        return ref.feed_simplified(s, kappa)
    if model == "recursive":
        return ref.feed_recursive(s, kappa)
    return ref.feed_greedy(s)


def chunked(spec, n, place, model, kappa, chunk):
    sim = SymbolicSimulator(
        spec, n, model=model, completion_divisor=kappa, scan_randomizer=place()
    )
    rec = sim.run(chunk, fastpath=True)
    return rec, sim.cursor.access_index()


@given(workloads())
@settings(deadline=None)
def test_cursor_matches_reference_box_by_box(workload):
    spec, n, place, model, kappa, boxes = workload
    ref = ReferenceExecution(spec, n, place())
    scalar = ExecutionCursor(spec, n, scan_randomizer=place())
    closed = ExecutionCursor(spec, n, scan_randomizer=place())
    assert scalar.access_index() == closed.access_index() == ref.pos == 0
    trace = []  # (leaves, scans, access index) after each fed box
    leaves = scans = 0
    for s in boxes:
        if ref.done:
            break
        want = reference_step(ref, model, s, kappa)
        assert scalar_step(scalar, model, s, kappa) == want, s
        assert closed_form_step(closed, model, s, kappa) == want, s
        assert scalar.access_index() == closed.access_index() == ref.pos
        leaves += want[0]
        scans += want[1]
        trace.append((leaves, scans, ref.pos))
    assert scalar.is_done == closed.is_done == ref.done
    for used in range(1, len(trace) + 1):
        prefix = np.asarray(boxes[:used], dtype=np.int64)
        runs = BoxRuns((int(s), 1) for s in prefix)
        for chunk in (prefix, runs):
            rec, index = chunked(spec, n, place, model, kappa, chunk)
            assert rec.boxes_used == used
            assert (rec.leaves_done, rec.scan_accesses, index) == trace[used - 1]
            assert rec.completed == (used == len(trace) and ref.done)


@given(executions())
@settings(deadline=None)
def test_reference_preorder_matches_cursor_layout(execution):
    """The reference numbers nodes in its own preorder; the cursor's
    layout must give every access the same kind, in the same order."""
    spec, n, place = execution
    ref = ReferenceExecution(spec, n, place())
    assert ref.total == spec.subtree_accesses(n)
    cursor = ExecutionCursor(spec, n, scan_randomizer=place())
    while not cursor.is_done:
        assert cursor.access_index() == ref.pos
        assert cursor.at_scan() == ref.at_scan()
        if cursor.at_scan():
            assert cursor.scan_remaining() == ref.piece_rest()
            assert cursor.current_node_size() == ref.owner_size()
            ref.advance_to(ref.pos + cursor.advance_scan(1))
        else:
            cursor.complete_leaf()
            ref.advance_to(ref.pos + spec.base_size)
    assert ref.done
