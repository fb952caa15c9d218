"""Symbolic simulator: the paper's simplified caching model, executable.

Section 4 of the paper analyses ``(a,b,c)``-regular executions under a
simplified model of caching (proved w.l.o.g. in the full version):

* a box of size ``s`` that begins in a subproblem of size ``s`` or smaller
  completes to the end of the problem of size ``s`` containing it, and
  goes no further;
* a box of size ``s`` that begins in the scan of a problem larger than
  ``s`` advances ``min(s, rest of the scan)`` and ends.

:class:`SymbolicSimulator` drives an
:class:`~repro.algorithms.cursor.ExecutionCursor` with exactly these
rules (or the greedy access-budget variant for sensitivity analysis),
accumulating the potential accounting that defines cache-adaptive
efficiency.  Because the cursor is lazy, problems of size ``4**15`` and
beyond simulate in memory proportional to the recursion depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.errors import SimulationError
from repro.algorithms.cursor import BoxOutcome, ExecutionCursor
from repro.algorithms.spec import RegularSpec
from repro.profiles.square import SquareProfile, as_box_iter
from repro.runtime.instrumentation import record as _record

__all__ = ["RunRecord", "SymbolicSimulator"]

MODELS = ("simplified", "recursive", "greedy")


@dataclass(frozen=True)
class RunRecord:
    """Accounting of one symbolic run.

    ``bounded_potential`` is ``sum_i min(n, |box_i|)**e`` over the consumed
    boxes (Inequality 2's left side, final box not rounded down);
    ``adaptivity_ratio`` divides by ``n**e``.  ``box_sizes`` and
    ``progress_per_box`` are populated only when the run recorded them.
    Frozen: a record is evidence for a measurement and never changes
    after the run that produced it.
    """

    spec: RegularSpec
    n: int
    model: str
    boxes_used: int = 0
    leaves_done: int = 0
    scan_accesses: int = 0
    time_used: int = 0
    bounded_potential: float = 0.0
    completed: bool = False
    box_sizes: Optional[np.ndarray] = None
    progress_per_box: Optional[np.ndarray] = None

    @property
    def adaptivity_ratio(self) -> float:
        """``sum min(n, |box|)**e / n**e`` — O(1) iff the run was
        efficiently cache-adaptive, ``Θ(log_b n)`` on the worst case."""
        return self.bounded_potential / float(self.n) ** self.spec.exponent

    @property
    def normalized_progress(self) -> float:
        """Fraction of the problem's base cases completed."""
        return self.leaves_done / self.spec.leaves(self.n)

    @property
    def access_progress(self) -> int:
        """Footnote 4's alternative progress measure: memory accesses
        completed (leaves at ``base_size`` each, plus scan accesses).
        For scan-dominated shapes (``a <= b``) this — not the base-case
        count — is the right notion of work."""
        return self.leaves_done * self.spec.base_size + self.scan_accesses

    def summary(self) -> dict:
        return {
            "spec": self.spec.name,
            "n": self.n,
            "model": self.model,
            "boxes_used": self.boxes_used,
            "leaves_done": self.leaves_done,
            "scan_accesses": self.scan_accesses,
            "time_used": self.time_used,
            "completed": self.completed,
            "adaptivity_ratio": self.adaptivity_ratio,
        }


class SymbolicSimulator:
    """Feed boxes to an ``(a,b,c)``-regular execution of size ``n``.

    ``model`` selects the box semantics: ``"simplified"`` (the paper's,
    default, exact for the Lemma-3 recurrence), ``"recursive"`` (budgeted
    continuation — the right semantics when comparing across ``c``
    regimes), or ``"greedy"`` (naive access budget, for sensitivity).
    One simulator instance runs one execution; use :meth:`reset` or a
    fresh instance to rerun.
    """

    def __init__(
        self,
        spec: RegularSpec,
        n: int,
        model: str = "simplified",
        completion_divisor: int = 1,
        scan_randomizer=None,
    ):
        if model not in MODELS:
            raise SimulationError(f"model must be one of {MODELS}, got {model!r}")
        if completion_divisor < 1:
            raise SimulationError(
                f"completion_divisor must be >= 1, got {completion_divisor}"
            )
        spec.validate_problem_size(n)
        self.spec = spec
        self.n = n
        self.model = model
        self.completion_divisor = completion_divisor
        self.scan_randomizer = scan_randomizer
        self.cursor = ExecutionCursor(spec, n, scan_randomizer=scan_randomizer)
        self._exponent = spec.exponent

    def reset(self) -> None:
        """Rewind to the start of the execution.

        Addressable placements draw by node index, so a reset run replays
        the *same* randomized execution; legacy positional randomizers
        keep consuming their stream and re-draw fresh placements.  The
        cursor's closed-form lookup tables are carried over (they depend
        only on ``(spec, n, placement)``), so repeated runs skip the
        warm-up — this is what amortizes Monte-Carlo trials of one spec.
        """
        self.cursor = ExecutionCursor(
            self.spec,
            self.n,
            scan_randomizer=self.scan_randomizer,
            warm_from=self.cursor,
        )

    @property
    def is_done(self) -> bool:
        return self.cursor.is_done

    def feed(self, box_size: int) -> BoxOutcome:
        """Apply a single box and return its outcome."""
        if self.model == "simplified":
            return self.cursor.feed_simplified(
                box_size, completion_divisor=self.completion_divisor
            )
        if self.model == "recursive":
            return self.cursor.feed_recursive(
                box_size, completion_divisor=self.completion_divisor
            )
        return self.cursor.feed_greedy(box_size)

    def run(
        self,
        boxes: "SquareProfile | Iterable[int]",
        max_boxes: Optional[int] = None,
        record_boxes: bool = False,
        fastpath: Optional[bool] = None,
    ) -> RunRecord:
        """Consume boxes until the execution completes (or the source or
        ``max_boxes`` runs out) and return the accounting record.

        ``fastpath`` selects the chunked engine of
        :mod:`repro.simulation.fastpath`: ``None`` (default) uses it
        automatically whenever it is bit-identical to the scalar loop
        (any model, static or addressable scan placement, a box source
        from :mod:`repro.profiles.sources` or a profile, ``BoxRuns`` or
        integer array, no per-box recording), ``False`` forces the scalar
        loop over the same flat box sequence, and ``True`` requires the
        fast path (raising if ineligible).  Either way the returned
        record is the same field for field.
        """
        if fastpath is None or fastpath:
            from repro.simulation.fastpath import is_chunkable, run_chunked

            if fastpath or (not record_boxes and is_chunkable(self, boxes)):
                if record_boxes:
                    raise SimulationError(
                        "record_boxes is incompatible with the chunked "
                        "fast path (it needs per-box outcomes)"
                    )
                return run_chunked(self, boxes, max_boxes=max_boxes)
        exponent = self._exponent
        n = self.n
        boxes_used = 0
        leaves_done = 0
        scan_accesses = 0
        time_used = 0
        bounded_potential = 0.0
        sizes: list[int] = []
        progress: list[int] = []
        it = as_box_iter(boxes)
        while not self.cursor.is_done:
            if max_boxes is not None and boxes_used >= max_boxes:
                break
            try:
                s = next(it)
            except StopIteration:
                break
            out = self.feed(s)
            boxes_used += 1
            leaves_done += out.leaves
            scan_accesses += out.scan_accesses
            time_used += s
            bounded_potential += float(min(s, n)) ** exponent
            if record_boxes:
                sizes.append(s)
                progress.append(out.leaves)
        _record("sim.runs")
        _record("sim.boxes", boxes_used)
        return RunRecord(
            spec=self.spec,
            n=n,
            model=self.model,
            boxes_used=boxes_used,
            leaves_done=leaves_done,
            scan_accesses=scan_accesses,
            time_used=time_used,
            bounded_potential=bounded_potential,
            completed=self.cursor.is_done,
            box_sizes=np.asarray(sizes, dtype=np.int64) if record_boxes else None,
            progress_per_box=(
                np.asarray(progress, dtype=np.int64) if record_boxes else None
            ),
        )

    def run_to_completion(
        self,
        boxes: "SquareProfile | Iterable[int]",
        max_boxes: Optional[int] = None,
        record_boxes: bool = False,
        fastpath: Optional[bool] = None,
    ) -> RunRecord:
        """Like :meth:`run` but raises if the execution did not finish."""
        rec = self.run(
            boxes,
            max_boxes=max_boxes,
            record_boxes=record_boxes,
            fastpath=fastpath,
        )
        if not rec.completed:
            raise SimulationError(
                f"boxes exhausted after {rec.boxes_used} boxes with "
                f"{rec.leaves_done}/{self.spec.leaves(self.n)} leaves done"
            )
        return rec
