"""Chunked simulation fast path: consume box streams in closed form.

The scalar driver in :class:`~repro.simulation.symbolic.SymbolicSimulator`
pays one Python iteration per box, and the paper's canonical inputs make
that the bottleneck: the worst-case profile ``M_{8,4}(4**8)`` has ~1.9e7
boxes, and a Monte-Carlo estimate runs thousands of i.i.d. boxes per
trial.  Those inputs are massively repetitive — ``M_{a,b}`` emits long
runs of identical boxes, and a size-``n`` scan absorbs thousands of
boxes in a row — so this module consumes them *chunked*:

* run chunks (:class:`~repro.profiles.runs.BoxRuns`) are fed run by
  run through the closed-form cursor methods
  :meth:`~repro.algorithms.cursor.ExecutionCursor.feed_simplified_run` /
  :meth:`~repro.algorithms.cursor.ExecutionCursor.feed_greedy_run` /
  :meth:`~repro.algorithms.cursor.ExecutionCursor.feed_recursive_run`
  (their unchecked forms: the engine has vetted the arguments), whose
  every box, batched or not, is O(depth) cursor arithmetic;
* array chunks (sampled boxes, low-repetition profiles) stream scans
  vectorized: one ``cumsum`` + ``searchsorted`` decides how many of the
  next boxes the current scan piece absorbs, instead of one Python
  ``feed`` per box.  Off a streaming scan, simplified-model boxes that
  agree on their completion level feed as one closed-form run; other
  boxes take the cursor's O(depth) per-box steps.

Every input is a box source (:mod:`repro.profiles.sources`): a lazy
sequence of such chunks, of which a profile, a ``BoxRuns`` or an array
is the one-chunk case.  One feeding loop (:meth:`_ChunkEngine.feed_chunks`)
consumes them all, pulling the next chunk only when a box is needed, so
random sources draw exactly the batches the scalar loop draws.

The fast path is *bit-identical* to the scalar loop — same
:class:`~repro.simulation.symbolic.RunRecord` field by field, including
``bounded_potential``, which is re-accumulated box-sequentially with
``np.add.accumulate`` in bounded blocks, carrying the running sum into
the next block (still a strict left fold, same float rounding as the
scalar ``+=``; ``np.sum``'s pairwise reduction would differ in the last
ulps).  Equivalence is enforced differentially across specs, models, κ,
and sources in ``tests/simulation/test_fastpath.py`` and — for the
randomized/recursive coverage — ``tests/simulation/test_replay.py``.

Exactness requires box semantics that depend only on the current cursor
state plus randomness that is *addressable* rather than positional, so
eligibility (:func:`is_chunkable`) is: any of the three models (the
``recursive`` model batches via ``feed_recursive_run``, whose exact-fit
sibling regime covers the canonical worst-case profile), a static or
addressable scan placement (closed forms skip whole sibling subtrees
without entering them — a legacy positional randomizer would
desynchronize, while an addressable placement draws by node index and
cannot), and a box source (an arbitrary iterable may be stateful and
must be pulled one box at a time).  Everything else falls back to the
scalar path; see ``docs/PERF.md`` for the selection rules and measured
speedups.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.errors import SimulationError
from repro.profiles.distributions import BoxDistribution
from repro.profiles.runs import BoxRuns
from repro.profiles.sources import BoxSource, Chunk, as_box_source, sampled
from repro.profiles.square import SquareProfile
from repro.runtime.instrumentation import record as _record
from repro.simulation.symbolic import MODELS, RunRecord, SymbolicSimulator
from repro.util.rng import ReplayableStream

__all__ = [
    "CHUNK",
    "is_chunkable",
    "run_chunked",
    "run_repeated_chunked",
    "run_sampled",
]

# Window for vectorized scan streaming; with a positional Generator,
# run_sampled draws in the same batches as BoxDistribution.sampler so
# the RNG stream is identical (an addressed ReplayableStream makes the
# batch size irrelevant by construction).
CHUNK = 4096

# Boxes per bounded_potential fold: bounds the per-box float buffer, so
# a million-box run holds no more of it than a 64k-box one.
_FOLD = 1 << 16

_FAST_MODELS = MODELS


def _static_or_addressable(sim: SymbolicSimulator) -> bool:
    r = sim.scan_randomizer
    return r is None or bool(getattr(r, "addressable", False))


def is_chunkable(sim: SymbolicSimulator, boxes: object = None) -> bool:
    """True iff the chunked engine reproduces ``sim.run(boxes)`` exactly.

    With ``boxes=None`` only the simulator is checked (the source is the
    caller's problem, e.g. :func:`run_sampled` draws its own arrays).
    """
    if sim.model not in _FAST_MODELS or not _static_or_addressable(sim):
        return False
    return boxes is None or as_box_source(boxes) is not None


class _ChunkEngine:
    """Shared accumulator behind the chunked drivers.

    Mirrors the aggregate accounting of the scalar loop in
    ``SymbolicSimulator.run`` exactly; ``bounded_potential`` is folded
    from the consumed boxes, in order, with the same box-sequential float
    accumulation the scalar loop performs.
    """

    __slots__ = (
        "sim",
        "greedy",
        "recursive",
        "kappa",
        "max_boxes",
        "need_potential",
        "boxes_used",
        "leaves",
        "scans",
        "time_used",
        "_potential",
        "_pending",
        "_pending_boxes",
        "_run_sizes",
        "_run_counts",
        "_pows",
        "_chain",
    )

    def __init__(
        self,
        sim: SymbolicSimulator,
        max_boxes: Optional[int] = None,
        need_potential: bool = True,
    ):
        self.sim = sim
        self.greedy = sim.model == "greedy"
        self.recursive = sim.model == "recursive"
        self.kappa = sim.completion_divisor
        self.max_boxes = max_boxes
        self.need_potential = need_potential
        self.boxes_used = 0
        self.leaves = 0
        self.scans = 0
        self.time_used = 0
        self._potential = 0.0
        # per-box potential terms consumed but not yet folded, in order;
        # the trailing runs wait in _run_sizes/_run_counts unexpanded
        self._pending: list[np.ndarray] = []
        self._pending_boxes = 0
        self._run_sizes: list[int] = []
        self._run_counts: list[int] = []
        self._pows: dict[int, float] = {}
        # the execution's node sizes, ascending: base_size, ..., n
        self._chain = np.asarray(sim.spec.problem_sizes(sim.n), dtype=np.int64)

    # -- feeding -------------------------------------------------------
    def stopped(self) -> bool:
        """True once the execution completed or the box budget ran out."""
        return self.sim.cursor.is_done or (
            self.max_boxes is not None and self.boxes_used >= self.max_boxes
        )

    def feed_chunks(self, chunks: Iterator[Chunk]) -> None:
        """Feed chunks until the execution completes, the box budget runs
        out, or the source ends.

        The next chunk is pulled only when another box is needed — where
        the scalar loop would pull its next box — so a random source
        draws exactly the batches the scalar path draws.
        """
        while not self.stopped():
            chunk = next(chunks, None)
            if chunk is None:
                return
            if isinstance(chunk, BoxRuns):
                self.feed_runs(chunk.iter_runs())
            else:
                self.feed_array(chunk)

    def feed_run(self, s: int, count: int) -> int:
        """Feed up to ``count`` boxes of size ``s``; returns the number
        consumed (less than ``count`` only when the execution completed
        or the box budget ran out)."""
        return self.feed_runs(((s, count),))

    def feed_runs(self, runs: Iterable[tuple[int, int]]) -> int:
        """Feed ``(size, count)`` runs in order until they end, the
        execution completes or the box budget runs out; returns the boxes
        consumed.  The box, leaf, scan and time counters are summed over
        the runs and stored once."""
        cursor = self.sim.cursor
        if cursor.is_done:
            return 0
        # the cursor's unchecked closed forms: is_chunkable vetted the
        # placement, and s, count and kappa are positive here
        greedy = self.greedy
        step = cursor._recursive_run if self.recursive else cursor._simplified_run
        kappa = self.kappa
        room = None if self.max_boxes is None else self.max_boxes - self.boxes_used
        need_potential = self.need_potential
        leaves = scans = time_used = boxes = 0
        for s, count in runs:
            if room is not None:
                if count > room:
                    count = room
                if count <= 0:
                    break
            consumed = 0
            if greedy:
                while consumed < count and not cursor.is_done:
                    got, lv, sc = cursor._greedy_run(s, count - consumed)
                    consumed += got
                    leaves += lv
                    scans += sc
            else:
                s_eff = s // kappa
                while consumed < count and not cursor.is_done:
                    got, lv, sc = step(s, count - consumed, s_eff)
                    consumed += got
                    leaves += lv
                    scans += sc
            boxes += consumed
            time_used += s * consumed
            if need_potential and consumed:
                self._note_run(s, consumed)
            if room is not None:
                room -= consumed
            if consumed < count or cursor.is_done:
                break
        self.leaves += leaves
        self.scans += scans
        self.boxes_used += boxes
        self.time_used += time_used
        return boxes

    def feed_array(self, arr: np.ndarray) -> int:
        """Feed boxes from an int64 array; returns how many were consumed
        (always a prefix — stops at completion or the box budget).

        While the cursor stands in a scan it cannot complete, whole
        windows of boxes are absorbed with one ``cumsum`` +
        ``searchsorted``.  Any other box goes through the cursor's
        unchecked closed forms: a group of simplified-model boxes at
        once (:meth:`_group_ends`), a budgeted or greedy box as one
        O(depth) per-box step.
        """
        sim = self.sim
        cursor = sim.cursor
        greedy = self.greedy
        kappa = self.kappa
        max_boxes = self.max_boxes
        size = int(arr.size)
        i = 0
        # simplified box groups, drawn up one window at a time
        groups_lo = groups_hi = 0
        group_ends: list[int] = []
        times: list[int] = []
        while not cursor.is_done and i < size:
            if max_boxes is not None and self.boxes_used >= max_boxes:
                break
            if cursor.at_scan():
                rem = cursor.scan_remaining()
                # boxes are >= 1 block, so a scan with rem left absorbs at
                # most rem boxes — keep windows tight for short scans
                window = arr[i : i + (CHUNK if rem >= CHUNK else rem)]
                if max_boxes is not None:
                    window = window[: max_boxes - self.boxes_used]
                if greedy:
                    # greedy: a box of size s <= (scan left) is absorbed
                    # entirely; consume the longest such prefix at once
                    csum = np.cumsum(window)
                    k = int(np.searchsorted(csum, rem, side="right"))
                    if k:
                        total = int(csum[k - 1])
                        self.scans += cursor.advance_scan(total)
                        self.boxes_used += k
                        self.time_used += total
                        i += k
                        continue
                elif self.recursive:
                    # recursive: same streaming condition as simplified
                    # (the box cannot complete the scanning node), but a
                    # box is only fully absorbed when its whole budget
                    # fits the piece; the boundary box spills its
                    # leftover deeper and goes through the per-box step
                    limit = cursor.current_node_size() * kappa
                    big = np.flatnonzero(window >= limit)
                    stop = int(big[0]) if big.size else int(window.size)
                    if stop:
                        csum = np.cumsum(window[:stop])
                        k = int(np.searchsorted(csum, rem, side="right"))
                        if k:
                            total = int(csum[k - 1])
                            self.scans += cursor.advance_scan(total)
                            self.boxes_used += k
                            self.time_used += total
                            i += k
                            continue
                else:
                    # simplified: a box streams this scan iff it cannot
                    # complete the scanning node: s // kappa < F, i.e.
                    # s < F * kappa
                    limit = cursor.current_node_size() * kappa
                    big = np.flatnonzero(window >= limit)
                    stop = int(big[0]) if big.size else int(window.size)
                    if stop:
                        csum = np.cumsum(window[:stop])
                        total = int(csum[-1])
                        if total < rem:
                            self.scans += cursor.advance_scan(total)
                            self.boxes_used += stop
                            self.time_used += total
                            i += stop
                            continue
                        # the scan completes within the prefix: boxes
                        # 0..j-1 advance fully, box j its remainder
                        j = int(np.searchsorted(csum, rem, side="left"))
                        self.scans += cursor.advance_scan(rem)
                        self.boxes_used += j + 1
                        self.time_used += int(csum[j])
                        i += j + 1
                        continue
            # single box through the cursor's unchecked per-box closed
            # forms: same semantics as sim.feed, O(depth) per step
            s = int(arr[i])
            if not greedy and not self.recursive:
                # simplified, off a streaming scan: a box acts only
                # through its completion level and whether it covers a
                # leaf, so the boxes agreeing with box i on both feed
                # as one closed-form run (which stops before a box that
                # would stream)
                if i >= groups_hi:
                    groups_lo = i
                    groups_hi = min(size, i + CHUNK)
                    window = arr[i:groups_hi]
                    group_ends = self._group_ends(window, i)
                    # times[k]: total size of the window's first k boxes
                    times = [0, *np.cumsum(window).tolist()]
                q = group_ends[bisect.bisect_right(group_ends, i)] - i
                if max_boxes is not None:
                    q = min(q, max_boxes - self.boxes_used)
                got, lv, sc = cursor._simplified_run(s, q, s // kappa)
                self.leaves += lv
                self.scans += sc
                self.boxes_used += got
                self.time_used += times[i + got - groups_lo] - times[i - groups_lo]
                i += got
                continue
            if greedy:
                lv, sc = cursor._greedy_box(s)
            else:
                lv, sc = cursor._recursive_box(s, s // kappa)
            self.leaves += lv
            self.scans += sc
            self.boxes_used += 1
            self.time_used += s
            i += 1
        if self.need_potential and i:
            self._note_array(arr[:i])
        return i

    def _group_ends(self, window: np.ndarray, lo: int) -> list[int]:
        """Where the simplified model's box groups of ``window`` (boxes
        ``lo, lo+1, ...``) end: consecutive boxes share a group when
        they agree on the outermost chain size their ``s // kappa``
        completes and on ``s >= base_size``.  Ascending indices, the
        last one ``lo + len(window)``."""
        level = np.searchsorted(self._chain, window // self.kappa, side="right")
        key = 2 * level + (window >= self.sim.spec.base_size)
        ends = (np.flatnonzero(key[1:] != key[:-1]) + (lo + 1)).tolist()
        ends.append(lo + int(window.size))
        return ends

    # -- accounting ----------------------------------------------------
    def _pow(self, s: int) -> float:
        """The scalar loop's per-box term ``float(min(s, n)) ** e``, as
        the same Python float ``pow`` (cached per size)."""
        p = self._pows.get(s)
        if p is None:
            p = float(min(s, self.sim.n)) ** self.sim._exponent
            self._pows[s] = p
        return p

    def _note_run(self, s: int, count: int) -> None:
        while count:
            room = _FOLD - self._pending_boxes
            take = count if count < room else room
            self._run_sizes.append(s)
            self._run_counts.append(take)
            self._pending_boxes += take
            count -= take
            if take == room:
                self._fold()

    def _close_runs(self) -> None:
        if self._run_sizes:
            pows = np.asarray(
                [self._pow(s) for s in self._run_sizes], dtype=np.float64
            )
            self._pending.append(np.repeat(pows, self._run_counts))
            self._run_sizes = []
            self._run_counts = []

    def _note_array(self, boxes: np.ndarray) -> None:
        self._close_runs()
        for lo in range(0, int(boxes.size), _FOLD):
            block = np.minimum(boxes[lo : lo + _FOLD], self.sim.n)
            uniq, inv = np.unique(block, return_inverse=True)
            pows = np.asarray(
                [self._pow(u) for u in uniq.tolist()], dtype=np.float64
            )
            self._pending.append(pows[inv])
            self._pending_boxes += int(block.size)
            if self._pending_boxes >= _FOLD:
                self._fold()

    def _fold(self) -> None:
        """Fold the pending terms into the running potential.

        ``np.add.accumulate`` over ``[potential, term, ...]`` adds
        strictly left to right, so folding block by block reproduces the
        scalar loop's per-box ``bp += float(min(s, n)) ** exponent``
        rounding exactly; ``np.sum``'s pairwise reduction would not.
        """
        self._close_runs()
        if self._pending:
            terms = np.concatenate(([self._potential], *self._pending))
            self._potential = float(np.add.accumulate(terms)[-1])
            self._pending = []
            self._pending_boxes = 0

    def finish(self) -> RunRecord:
        """Close the run: record the same instrumentation counters as the
        scalar loop (logical boxes, not chunks) and build the record."""
        if not self.need_potential:
            raise SimulationError(
                "engine was created without potential tracking"
            )
        self._fold()
        sim = self.sim
        _record("sim.runs")
        _record("sim.boxes", self.boxes_used)
        return RunRecord(
            spec=sim.spec,
            n=sim.n,
            model=sim.model,
            boxes_used=self.boxes_used,
            leaves_done=self.leaves,
            scan_accesses=self.scans,
            time_used=self.time_used,
            bounded_potential=self._potential,
            completed=sim.cursor.is_done,
        )


def run_chunked(
    sim: SymbolicSimulator,
    boxes: "BoxSource | SquareProfile | BoxRuns | np.ndarray",
    max_boxes: Optional[int] = None,
) -> RunRecord:
    """Chunked equivalent of ``sim.run(boxes, max_boxes=...)``.

    ``boxes`` is any box source (:func:`repro.profiles.sources.as_box_source`):
    run chunks take the closed-form ``feed_*_run`` path, array chunks the
    vectorized scan streaming.  Raises :class:`SimulationError` when the
    combination is not eligible (:func:`is_chunkable`);
    :meth:`SymbolicSimulator.run` only routes here when it is, so the
    scalar fallback stays transparent.
    """
    source = as_box_source(boxes)
    if source is None or not is_chunkable(sim):
        raise SimulationError(
            "chunked fast path requires a static or addressable scan "
            "placement and a box source (BoxSource, SquareProfile, "
            "BoxRuns, or 1-d integer ndarray); got "
            f"model={sim.model!r}, source={type(boxes).__name__}"
        )
    eng = _ChunkEngine(sim, max_boxes=max_boxes)
    eng.feed_chunks(source.chunks())
    return eng.finish()


def run_sampled(
    sim: SymbolicSimulator,
    dist: BoxDistribution,
    rng: "np.random.Generator | ReplayableStream",
    max_boxes: Optional[int] = None,
    chunk: int = CHUNK,
) -> RunRecord:
    """Batched equivalent of running ``sim`` on i.i.d. boxes from ``dist``.

    With an addressed :class:`~repro.util.rng.ReplayableStream`, box
    ``i`` of the trial is ``dist.sample_at(i, i+1, rng)`` — a pure
    function of the stream and the index — so this is bit-identical to
    ``sim.run(dist.sampler_at(rng))`` whatever batch sizes either side
    uses.  With a positional ``Generator`` (legacy), it draws
    ``chunk``-sized sample arrays — the same batches, in the same order,
    as :meth:`BoxDistribution.sampler` draws internally — so the RNG
    stream and every consumed box are bit-identical to the scalar path;
    the unread tail of the final batch is discarded exactly as an
    abandoned sampler generator would discard it.  The boxes come from
    :func:`repro.profiles.sources.sampled`.
    """
    if not is_chunkable(sim):
        raise SimulationError(
            "sampled fast path requires a static or addressable scan "
            f"placement; got model={sim.model!r}"
        )
    eng = _ChunkEngine(sim, max_boxes=max_boxes)
    eng.feed_chunks(sampled(dist, rng, batch=chunk).chunks())
    return eng.finish()


def run_repeated_chunked(
    spec,
    n: int,
    boxes: "BoxSource | SquareProfile | BoxRuns | np.ndarray",
    model: str = "simplified",
    max_completions: Optional[int] = None,
):
    """Chunked equivalent of :func:`repro.simulation.runner.run_repeated`.

    Same back-to-back semantics: a box is consumed entirely by the
    execution it is fed to, and a fresh execution starts on the next box.
    The closed forms stop exactly at a completion boundary, so the batch
    loop resets and resumes mid-chunk without splitting any box.
    """
    from repro.simulation.runner import RepeatedRunRecord

    sim = SymbolicSimulator(spec, n, model=model)
    source = as_box_source(boxes)
    if source is None or not is_chunkable(sim):
        raise SimulationError(
            "chunked repeated runs require a box source; got "
            f"model={model!r}, source={type(boxes).__name__}"
        )
    eng = _ChunkEngine(sim, need_potential=False)
    completions = 0
    leaves_before = 0  # eng.leaves when the current execution started

    def completed() -> bool:
        """Count a finished execution and start the next; True when
        ``max_completions`` says to stop."""
        nonlocal completions, leaves_before
        completions += 1
        leaves_before = eng.leaves
        if max_completions is not None and completions >= max_completions:
            return True
        sim.reset()
        return False

    stop = False
    for chunk in source.chunks():
        if isinstance(chunk, BoxRuns):
            for s, count in chunk.iter_runs():
                while count and not stop:
                    count -= eng.feed_run(s, count)
                    if sim.is_done:
                        stop = completed()
                if stop:
                    break
        else:
            i = 0
            while i < chunk.size and not stop:
                i += eng.feed_array(chunk[i:])
                if sim.is_done:
                    stop = completed()
        if stop:
            break
    return RepeatedRunRecord(
        spec=spec,
        n=n,
        model=model,
        completions=completions,
        partial_leaves=eng.leaves - leaves_before,
        boxes_used=eng.boxes_used,
        time_used=eng.time_used,
    )
