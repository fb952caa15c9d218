"""Execution cursor: a lazy program counter over the recursion tree.

The symbolic simulator never materializes the recursion tree of an
``(a,b,c)``-regular algorithm (it can have ``a**30`` leaves); instead,
:class:`ExecutionCursor` tracks the current position as a stack of frames
from the root to the active node, and answers the aggregate questions the
cache-adaptive semantics needs in ``O(depth)`` arithmetic:

* "complete execution through the end of the size-``s`` ancestor; how many
  base-case leaves and scan accesses did that cover?"
* "advance ``k`` accesses inside the current scan";
* "how far into the canonical linearization of the execution are we?"
  (:meth:`access_index` — the total order used by the No-Catch-up lemma).

Node event order is derived from the spec's scan placement: a size-``m``
node executes ``piece_0, child_0, piece_1, ..., child_{a-1}, piece_a``
where the pieces partition its scan (all in ``piece_a`` for the canonical
END placement).  Base-case nodes are atomic leaf events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.algorithms.spec import RegularSpec

__all__ = ["BoxOutcome", "ExecutionCursor"]


@dataclass(frozen=True)
class BoxOutcome:
    """What one box accomplished.

    ``leaves`` — base-case subproblems completed inside the box;
    ``scan_accesses`` — scan accesses performed inside the box;
    ``completed_size`` — size of the largest problem whose *end* this box
    reached by the ancestor-completion rule (None for pure scan boxes);
    ``done`` — True iff the root problem finished during this box.
    """

    leaves: int
    scan_accesses: int
    completed_size: Optional[int]
    done: bool


class _Frame:
    """One recursion level: node size, its event list, the index of the
    current event, and progress within the current event when it is a
    scan piece.  Events live on the frame (not keyed by size) so that
    randomized algorithms can lay out each node's scan independently.
    ``node`` is the node's preorder index in the recursion tree — the
    address randomized placements draw their pieces at.  ``suffix`` and
    ``child_run`` hold the node's closed-form tables once first needed
    (see :meth:`ExecutionCursor._event_suffix_totals` and
    :meth:`ExecutionCursor._child_run_end`)."""

    __slots__ = (
        "size", "events", "event_idx", "scan_done", "node", "suffix", "child_run"
    )

    def __init__(
        self,
        size: int,
        events: list,
        event_idx: int = 0,
        scan_done: int = 0,
        node: int = 0,
        suffix: Optional[tuple[list[int], list[int]]] = None,
        child_run: Optional[list[int]] = None,
    ):
        self.size = size
        self.events = events
        self.event_idx = event_idx
        self.scan_done = scan_done
        self.node = node
        self.suffix = suffix
        self.child_run = child_run

    def clone(self) -> "_Frame":
        return _Frame(
            self.size,
            self.events,
            self.event_idx,
            self.scan_done,
            self.node,
            self.suffix,
            self.child_run,
        )


# Event encodings: ("child", child_index) | ("scan", length) | ("leaf",)
_CHILD, _SCAN, _LEAF = "child", "scan", "leaf"
_LEAF_EVENTS: list[tuple] = [(_LEAF,)]


class ExecutionCursor:
    """Position of an ``(a,b,c)``-regular execution on a size-``n`` problem.

    A fresh cursor stands at the first access; :meth:`is_done` becomes
    True once the root problem (including its trailing scan) completes.
    The two feed methods implement the box semantics of the simplified
    caching model (Section 4) and a greedy variant; see
    :mod:`repro.simulation.symbolic` for the driver.
    """

    def __init__(
        self,
        spec: RegularSpec,
        n: int,
        scan_randomizer=None,
        warm_from: "Optional[ExecutionCursor]" = None,
    ):
        """``scan_randomizer``, when given, is either

        * an *addressable* placement (``addressable = True`` attribute,
          called as ``(size, node_index) -> pieces``): each node's pieces
          are a pure function of its preorder index, so replays, resets
          and chunked closed forms all see the same layout; or
        * a legacy positional callable ``(size) -> pieces``, consulted
          once per node as the execution first enters it (draws depend on
          visit order; scalar path only).

        Either returns ``a + 1`` non-negative ints summing to
        ``spec.scan_length(size)``, modelling *randomized* algorithms
        that decide at runtime where to run each node's scan (the
        paper's concluding open question).  Without it, the spec's
        static placement applies.

        ``warm_from`` shares the closed-form lookup tables of an
        existing cursor for the same ``(spec, n, scan_randomizer)`` —
        resets and repeated Monte-Carlo trials skip the table warm-up.
        """
        spec.validate_problem_size(n)
        self.spec = spec
        self.n = n
        self._randomizer = scan_randomizer
        self._addressable = bool(getattr(scan_randomizer, "addressable", False))
        if warm_from is not None:
            if (
                warm_from.spec != spec
                or warm_from.n != n
                or warm_from._randomizer is not scan_randomizer
            ):
                raise SimulationError(
                    "warm_from cursor must share spec, n, and scan_randomizer"
                )
            self._events_cache = warm_from._events_cache
            self._depth_cache = warm_from._depth_cache
            self._child_run_cache = warm_from._child_run_cache
            self._subtree_cache = warm_from._subtree_cache
            self._suffix_cache = warm_from._suffix_cache
            self._node_count_cache = warm_from._node_count_cache
        else:
            self._events_cache: dict[int, list[tuple]] = {}
            # Closed-form (feed_*_run) lookup tables; see _outermost_depth,
            # _child_run_end and _subtree_totals.
            self._depth_cache: dict[int, Optional[int]] = {}
            self._child_run_cache: dict[int, list[int]] = {}
            self._subtree_cache: dict[int, tuple[int, int]] = {}
            self._suffix_cache: dict[int, tuple[list[int], list[int]]] = {}
            self._node_count_cache: dict[int, int] = {}
            # _normalize's inline descent reads both without a miss path
            # for leaves: every chain size has a node count, and the
            # leaf event list is shared whatever the placement
            self._node_count(n)
            self._events_cache[spec.base_size] = _LEAF_EVENTS
        self._stack: list[_Frame] = [self._make_frame(n, 0)]
        self._normalize()

    # -- structural helpers -------------------------------------------------
    def _build_events(self, size: int, pieces) -> list[tuple]:
        ev: list[tuple] = []
        for i in range(self.spec.a):
            if pieces[i]:
                ev.append((_SCAN, pieces[i]))
            ev.append((_CHILD, i))
        if pieces[self.spec.a]:
            ev.append((_SCAN, pieces[self.spec.a]))
        return ev

    def _events_for(self, size: int, node: int) -> list[tuple]:
        """Event list for a fresh node (cached per size for static
        placements, drawn by node index for addressable placements,
        freshly drawn in visit order for legacy positional ones)."""
        if size <= self.spec.base_size:
            return _LEAF_EVENTS
        if self._randomizer is not None:
            if self._addressable:
                pieces = self._randomizer(size, node)
            else:
                pieces = self._randomizer(size)
            total = self.spec.scan_length(size)
            if (
                len(pieces) != self.spec.a + 1
                or sum(pieces) != total
                or min(pieces) < 0
            ):
                raise SimulationError(
                    f"scan randomizer returned invalid pieces {pieces} for "
                    f"size {size} (need {self.spec.a + 1} non-negative ints "
                    f"summing to {total})"
                )
            return self._build_events(size, pieces)
        ev = self._events_cache.get(size)
        if ev is None:
            ev = self._build_events(size, self.spec.scan_pieces(size))
            self._events_cache[size] = ev
        return ev

    def _make_frame(self, size: int, node: int) -> _Frame:
        return _Frame(size, self._events_for(size, node), node=node)

    def _node_count(self, size: int) -> int:
        """Number of nodes in a size-``size`` subtree — the preorder
        stride between consecutive siblings."""
        cnt = self._node_count_cache.get(size)
        if cnt is None:
            if size <= self.spec.base_size:
                cnt = 1
            else:
                cnt = 1 + self.spec.a * self._node_count(size // self.spec.b)
            self._node_count_cache[size] = cnt
        return cnt

    def _child_node(self, fr: _Frame, child_index: int, child_size: int) -> int:
        """Preorder index of child ``child_index`` of the frame's node."""
        return fr.node + 1 + child_index * self._node_count(child_size)

    def _normalize(self) -> None:
        """Advance past finished events and descend into pending children
        until the top frame's current event is a pending leaf or scan (or
        the execution is done).

        Child frames are built inline: size ``size // b``, preorder index
        from the cached node count (:meth:`_child_node`), and the shared
        event list of that size when there is one (leaves always, every
        size under a static placement); only an addressable or positional
        placement's fresh node goes through :meth:`_events_for`."""
        stack = self._stack
        b = self.spec.b
        counts = self._node_count_cache
        shared = self._events_cache
        while stack:
            fr = stack[-1]
            events = fr.events
            if fr.event_idx >= len(events):
                stack.pop()
                if stack:
                    stack[-1].event_idx += 1
                    stack[-1].scan_done = 0
                continue
            ev = events[fr.event_idx]
            kind = ev[0]
            if kind == _CHILD:
                size = fr.size // b
                node = fr.node + 1 + ev[1] * counts[size]
                child_events = shared.get(size)
                if child_events is None:
                    child_events = self._events_for(size, node)
                stack.append(_Frame(size, child_events, 0, 0, node))
                continue
            if kind == _SCAN and fr.scan_done >= ev[1]:
                fr.event_idx += 1
                fr.scan_done = 0
                continue
            return  # pending leaf or partially-done scan

    # -- inspection --------------------------------------------------------
    @property
    def is_done(self) -> bool:
        return not self._stack

    def depth(self) -> int:
        """Current stack depth (root = 1); 0 when done."""
        return len(self._stack)

    def current_node_size(self) -> int:
        """Size of the innermost active node."""
        if self.is_done:
            raise SimulationError("execution already complete")
        return self._stack[-1].size

    def at_scan(self) -> bool:
        """True iff the cursor stands inside a scan piece."""
        if self.is_done:
            return False
        fr = self._stack[-1]
        return fr.events[fr.event_idx][0] == _SCAN

    def scan_remaining(self) -> int:
        """Accesses left in the current scan piece (0 if not at a scan)."""
        if self.is_done:
            return 0
        fr = self._stack[-1]
        ev = fr.events[fr.event_idx]
        return ev[1] - fr.scan_done if ev[0] == _SCAN else 0

    def access_index(self) -> int:
        """Completed accesses in the canonical linearization (leaves count
        ``base_size`` accesses, scans their length).  Strictly increases
        with execution progress; the total length is
        ``spec.subtree_accesses(n)``."""
        spec = self.spec
        if self.is_done:
            return spec.subtree_accesses(self.n)
        pos = 0
        for i, fr in enumerate(self._stack):
            events = fr.events
            child_size = fr.size // spec.b if fr.size > spec.base_size else 0
            for ev in events[: fr.event_idx]:
                if ev[0] == _CHILD:
                    pos += spec.subtree_accesses(child_size)
                elif ev[0] == _SCAN:
                    pos += ev[1]
                else:  # completed leaf events never linger (frame pops)
                    pos += spec.base_size
            if i == len(self._stack) - 1 and fr.event_idx < len(events):
                if events[fr.event_idx][0] == _SCAN:
                    pos += fr.scan_done
        return pos

    def snapshot(self) -> "ExecutionCursor":
        """Deep copy of the cursor (shares the immutable spec/cache)."""
        dup = ExecutionCursor.__new__(ExecutionCursor)
        dup.spec = self.spec
        dup.n = self.n
        dup._randomizer = self._randomizer
        dup._addressable = self._addressable
        dup._events_cache = self._events_cache
        dup._depth_cache = self._depth_cache
        dup._child_run_cache = self._child_run_cache
        dup._subtree_cache = self._subtree_cache
        dup._suffix_cache = self._suffix_cache
        dup._node_count_cache = self._node_count_cache
        dup._stack = [fr.clone() for fr in self._stack]
        return dup

    # -- positioning --------------------------------------------------------
    def seek(self, access_index: int) -> None:
        """Reposition the cursor at the given linearized access index.

        ``access_index`` must be in ``[0, spec.subtree_accesses(n)]``; the
        largest value positions the cursor at completion.  Used to sample
        uniformly random execution positions (Lemma 1's potential is a max
        over all positions).
        """
        spec = self.spec
        total = spec.subtree_accesses(self.n)
        if not 0 <= access_index <= total:
            raise SimulationError(
                f"access index {access_index} outside [0, {total}]"
            )
        if access_index == total:
            self._stack = []
            return
        self._stack = [self._make_frame(self.n, 0)]
        remaining = access_index
        while True:
            fr = self._stack[-1]
            events = fr.events
            if events[fr.event_idx][0] == _LEAF:
                # position inside a leaf: the leaf is atomic; stand at it
                return
            advanced = False
            while fr.event_idx < len(events):
                ev = events[fr.event_idx]
                if ev[0] == _CHILD:
                    child = spec.child_size(fr.size)
                    cost = spec.subtree_accesses(child)
                    if remaining >= cost:
                        remaining -= cost
                        fr.event_idx += 1
                        continue
                    self._stack.append(
                        self._make_frame(child, self._child_node(fr, ev[1], child))
                    )
                    advanced = True
                    break
                if ev[0] == _SCAN:
                    if remaining >= ev[1]:
                        remaining -= ev[1]
                        fr.event_idx += 1
                        continue
                    fr.scan_done = remaining
                    return
                # leaf event inside a non-base node cannot occur
                raise SimulationError("malformed event list")
            if not advanced:
                # consumed every event of this frame with remainder 0
                self._normalize()
                return

    # -- aggregate completion ----------------------------------------------
    def _remaining_in_subtree(self, frame_idx: int) -> tuple[int, int]:
        """Leaves and scan accesses left from the cursor to the end of the
        node at ``frame_idx`` (inclusive of deeper pending work)."""
        spec = self.spec
        leaves = 0
        scans = 0
        stack = self._stack
        for i in range(len(stack) - 1, frame_idx - 1, -1):
            fr = stack[i]
            events = fr.events
            start = fr.event_idx
            if i == len(stack) - 1:
                if start < len(events):
                    ev = events[start]
                    if ev[0] == _LEAF:
                        leaves += 1
                    elif ev[0] == _SCAN:
                        scans += ev[1] - fr.scan_done
                    start += 1
            else:
                start += 1  # current child event is covered by deeper frames
            child = fr.size // spec.b if fr.size > spec.base_size else 0
            for ev in events[start:]:
                if ev[0] == _CHILD:
                    child_leaves, child_scans = self._subtree_totals(child)
                    leaves += child_leaves
                    scans += child_scans
                elif ev[0] == _SCAN:
                    scans += ev[1]
        return leaves, scans

    def remaining_leaves(self) -> int:
        """Base cases left before the root completes."""
        if self.is_done:
            return 0
        return self._remaining_in_subtree(0)[0]

    def complete_through(self, frame_idx: int) -> tuple[int, int]:
        """Finish everything up to the end of the node at ``frame_idx``.

        Returns ``(leaves, scan_accesses)`` covered.  Afterwards the
        cursor stands at the next event after that node (or is done).
        """
        if self.is_done:
            raise SimulationError("execution already complete")
        if not 0 <= frame_idx < len(self._stack):
            raise SimulationError(f"frame index {frame_idx} out of range")
        leaves, scans = self._remaining_in_subtree(frame_idx)
        del self._stack[frame_idx:]
        if self._stack:
            self._stack[-1].event_idx += 1
            self._stack[-1].scan_done = 0
        self._normalize()
        return leaves, scans

    def advance_scan(self, k: int) -> int:
        """Advance up to ``k`` accesses in the current scan piece; returns
        the number actually advanced."""
        if k < 0:
            raise SimulationError(f"k must be >= 0, got {k}")
        if self.is_done or not self.at_scan():
            raise SimulationError("cursor is not at a scan")
        fr = self._stack[-1]
        ev = fr.events[fr.event_idx]
        step = min(k, ev[1] - fr.scan_done)
        fr.scan_done += step
        self._normalize()
        return step

    def complete_leaf(self) -> None:
        """Complete the pending base-case leaf under the cursor."""
        if self.is_done or self.at_scan():
            raise SimulationError("cursor is not at a leaf")
        fr = self._stack[-1]
        fr.event_idx += 1
        self._normalize()

    # -- box semantics --------------------------------------------------------
    def _outermost_frame_with_size_at_most(self, s: int) -> Optional[int]:
        """Index of the outermost stack frame whose node size is <= s
        (frame sizes strictly decrease root-to-leaf), or None."""
        for i, fr in enumerate(self._stack):
            if fr.size <= s:
                return i
        return None

    def feed_simplified(self, s: int, completion_divisor: int = 1) -> BoxOutcome:
        """Apply one box of size ``s`` under the simplified caching model.

        * Box begins inside the scan of a problem it cannot complete:
          advance ``min(s, rest of that scan piece)`` and stop (any
          sufficiently large box can stream a scan).
        * Otherwise: complete to the end of the largest containing
          problem the box can complete, including its trailing scan, and
          go no further.

        ``completion_divisor`` (κ >= 1) sets which problems a size-``s``
        box can complete: those of size at most ``s // κ``.  κ = 1 is the
        generous normalization Section 4 adopts for the positive results
        (a size-``s`` box completes the size-``s`` problem containing it).
        Real caches hide a constant — a problem of size ``m`` touches
        ``Θ(m)`` distinct blocks with a constant above 1, so per Lemma 1 a
        box only completes problems *sufficiently small* in ``Θ(s)``; the
        paper's negative (robustness) results depend on that constant.
        κ = b is the natural conservative choice for reproducing them.
        Regardless of κ, a box of at least ``base_size`` completes the
        pending base-case leaf (boxes are assumed to be sufficiently
        large constants, so leaves are never a barrier).

        Boxes too small to do any of the above make no progress and yield
        a zero outcome.
        """
        if self.is_done:
            raise SimulationError("execution already complete")
        if s < 1:
            raise SimulationError(f"box size must be >= 1, got {s}")
        if completion_divisor < 1:
            raise SimulationError(
                f"completion_divisor must be >= 1, got {completion_divisor}"
            )
        s_eff = s // completion_divisor
        fr = self._stack[-1]
        if self.at_scan() and fr.size > s_eff:
            k = self.advance_scan(s)
            return BoxOutcome(0, k, None, self.is_done)
        idx = self._outermost_frame_with_size_at_most(s_eff)
        if idx is None:
            if s >= self.spec.base_size and not self.at_scan():
                # The pending leaf is always completable by a
                # constant-sized box.
                self.complete_leaf()
                return BoxOutcome(1, 0, self.spec.base_size, self.is_done)
            return BoxOutcome(0, 0, None, False)
        completed_size = self._stack[idx].size
        leaves, scans = self.complete_through(idx)
        return BoxOutcome(leaves, scans, completed_size, self.is_done)

    # -- closed-form lookup tables -----------------------------------------
    def _outermost_depth(self, s: int) -> Optional[int]:
        """Index of the outermost stack frame whose size is <= ``s``, as a
        cached table lookup.

        Equivalent to :meth:`_outermost_frame_with_size_at_most` because
        stack sizes are always the fixed chain ``n, n//b, n//b//b, ...``
        (every frame's child has size ``child_size(parent)``), so the
        answer depends only on ``s`` and the current depth — not on which
        nodes the frames happen to be.
        """
        d = self._depth_cache.get(s, -1)
        if d == -1:
            size = self.n
            b = self.spec.b
            base = self.spec.base_size
            i = 0
            while True:
                if size <= s:
                    d: Optional[int] = i
                    break
                if size <= base:  # deepest possible frame still too big
                    d = None
                    break
                size //= b
                i += 1
            self._depth_cache[s] = d
        if d is None or d >= len(self._stack):
            return None
        return d

    def _per_node(self, frame: _Frame) -> bool:
        """True iff the frame's event list is its node's own (an internal
        node under a randomized placement), so its tables cannot be
        shared per size."""
        return self._randomizer is not None and frame.size > self.spec.base_size

    def _child_run_end(self, frame: _Frame) -> int:
        """First event index at or after the frame's current event that is
        not a ``child`` event.  The table is kept on the frame once built:
        per node under a randomized placement (each node has its own
        layout), shared per size otherwise (one event list per size)."""
        tbl = frame.child_run
        if tbl is None:
            per_size = not self._per_node(frame)
            if per_size:
                tbl = self._child_run_cache.get(frame.size)
            if tbl is None:
                events = frame.events
                end = len(events)
                tbl = [0] * (end + 1)
                tbl[end] = end
                for j in range(end - 1, -1, -1):
                    tbl[j] = tbl[j + 1] if events[j][0] == _CHILD else j
                if per_size:
                    self._child_run_cache[frame.size] = tbl
            frame.child_run = tbl
        return tbl[frame.event_idx]

    def _subtree_totals(self, size: int) -> tuple[int, int]:
        """``(leaves, scan_accesses)`` of a whole fresh subtree — the
        placement-independent totals a sibling-completing box covers."""
        totals = self._subtree_cache.get(size)
        if totals is None:
            totals = (self.spec.leaves(size), self.spec.subtree_scan_total(size))
            self._subtree_cache[size] = totals
        return totals

    def _event_suffix_totals(self, frame: _Frame) -> tuple[list[int], list[int]]:
        """Tables ``(leaves, scans)`` of everything from event ``j`` on in
        the frame's node: ``tables[0][j]``/``tables[1][j]`` cover
        ``events[j:]`` with child events counted as whole fresh subtrees.
        Kept on the frame once built, per node or per size exactly as
        :meth:`_child_run_end`'s table (all frame sizes come from the
        chain ``n, n//b, ...``, so under a static placement a size
        identifies its event list)."""
        tbl = frame.suffix
        if tbl is None:
            per_size = not self._per_node(frame)
            if per_size:
                tbl = self._suffix_cache.get(frame.size)
            if tbl is None:
                spec = self.spec
                events = frame.events
                if frame.size > spec.base_size:
                    child_leaves, child_scans = self._subtree_totals(
                        frame.size // spec.b
                    )
                else:
                    child_leaves = child_scans = 0
                m = len(events)
                suf_leaves = [0] * (m + 1)
                suf_scans = [0] * (m + 1)
                for j in range(m - 1, -1, -1):
                    ev = events[j]
                    kind = ev[0]
                    if kind == _CHILD:
                        suf_leaves[j] = suf_leaves[j + 1] + child_leaves
                        suf_scans[j] = suf_scans[j + 1] + child_scans
                    elif kind == _SCAN:
                        suf_leaves[j] = suf_leaves[j + 1]
                        suf_scans[j] = suf_scans[j + 1] + ev[1]
                    else:
                        suf_leaves[j] = suf_leaves[j + 1] + 1
                        suf_scans[j] = suf_scans[j + 1]
                tbl = (suf_leaves, suf_scans)
                if per_size:
                    self._suffix_cache[frame.size] = tbl
            frame.suffix = tbl
        return tbl

    def _close_frames(self, frame_idx: int) -> None:
        """Drop the frames from ``frame_idx`` on (their nodes are done)
        and move the cursor to the event after that node."""
        stack = self._stack
        del stack[frame_idx:]
        if stack:
            stack[-1].event_idx += 1
            stack[-1].scan_done = 0
        self._normalize()

    def _complete_through_cached(self, frame_idx: int) -> tuple[int, int]:
        """:meth:`complete_through` computed with the suffix tables —
        O(depth) instead of O(depth * events), same result and state."""
        stack = self._stack
        leaves = 0
        scans = 0
        top = len(stack) - 1
        for i in range(frame_idx, top + 1):
            fr = stack[i]
            start = fr.event_idx
            if i == top:
                if start < len(fr.events):
                    ev = fr.events[start]
                    if ev[0] == _LEAF:
                        leaves += 1
                    elif ev[0] == _SCAN:
                        scans += ev[1] - fr.scan_done
                    start += 1
            else:
                start += 1  # current child event is covered by deeper frames
            suf_leaves, suf_scans = self._event_suffix_totals(fr)
            leaves += suf_leaves[start]
            scans += suf_scans[start]
        self._close_frames(frame_idx)
        return leaves, scans

    def _check_run(self, name: str, s: int, count: int, divisor: int = 1) -> None:
        """The argument checks the public ``feed_*_run`` methods share."""
        if self._randomizer is not None and not self._addressable:
            raise SimulationError(
                f"{name} requires a static or addressable scan "
                "placement; positional randomizers must step box by box"
            )
        if not self._stack:
            raise SimulationError("execution already complete")
        if s < 1:
            raise SimulationError(f"box size must be >= 1, got {s}")
        if count < 1:
            raise SimulationError(f"count must be >= 1, got {count}")
        if divisor < 1:
            raise SimulationError(
                f"completion_divisor must be >= 1, got {divisor}"
            )

    # -- closed forms -------------------------------------------------------
    def feed_simplified_run(
        self, s: int, count: int, completion_divisor: int = 1
    ) -> tuple[int, int, int]:
        """Consume up to ``count`` boxes of identical size ``s`` in closed
        form under the simplified model; returns ``(consumed, leaves,
        scan_accesses)``.

        Exactly equivalent to ``consumed`` sequential
        :meth:`feed_simplified` calls — the batched aggregate and the
        final cursor state are identical (asserted differentially in
        ``tests/simulation/test_fastpath.py``) — but a run streaming a
        scan becomes one division, ``k`` boxes each completing one fresh
        size-``<= s//κ`` sibling become one multiply, and ``k`` boxes
        each completing one pending leaf become one addition.  Consumes
        a maximal closed-form prefix: call again with the remaining
        count while the cursor is not done.

        Requires a static or *addressable* scan placement.  Batches skip
        whole sibling subtrees without entering them; a legacy positional
        randomizer is consulted once per first-entered node, so skipping
        would desynchronize its stream — an addressable placement draws
        by node index, so unvisited nodes consume nothing either way.
        """
        self._check_run("feed_simplified_run", s, count, completion_divisor)
        return self._simplified_run(s, count, s // completion_divisor)

    def _simplified_run(self, s: int, count: int, s_eff: int) -> tuple[int, int, int]:
        """:meth:`feed_simplified_run` without the argument checks;
        ``s_eff`` is ``s // completion_divisor``."""
        spec = self.spec
        stack = self._stack
        fr = stack[-1]
        ev = fr.events[fr.event_idx]
        # a run streaming a scan it cannot complete: one division
        if ev[0] == _SCAN and fr.size > s_eff:
            rem = ev[1] - fr.scan_done
            need = -(-rem // s)  # boxes to fill the piece (ceil)
            q = need if count >= need else count
            step = min(q * s, rem)
            fr.scan_done += step
            if fr.scan_done >= ev[1]:
                fr.event_idx += 1
                fr.scan_done = 0
                self._normalize()
            return q, 0, step
        idx = self._outermost_depth(s_eff)
        if idx is None:
            if s >= spec.base_size and ev[0] == _LEAF:
                # leaf batch: boxes too small to complete any ancestor
                # still complete pending base cases, one each
                if len(stack) == 1:
                    self.complete_leaf()
                    return 1, 1, 0
                parent = stack[-2]
                q = min(count, self._child_run_end(parent) - parent.event_idx)
                del stack[-1]
                parent.event_idx += q
                parent.scan_done = 0
                self._normalize()
                return q, q, 0
            # zero-progress boxes: the cursor does not move, so the
            # whole run is consumed at once
            return count, 0, 0
        # subtree completion: each box completes (the remainder of) the
        # outermost problem of size <= s_eff containing the cursor
        leaves = 0
        scans = 0
        consumed = 0
        while True:
            top = len(stack) - 1
            if idx == top:
                fr = stack[top]
                fresh = fr.event_idx == 0 and fr.scan_done == 0
            else:
                fresh = all(
                    f.event_idx == 0 and f.scan_done == 0 for f in stack[idx:]
                )
            if fresh and idx > 0:
                # batch consecutive fresh siblings: one multiply
                parent = stack[idx - 1]
                q = min(
                    count - consumed,
                    self._child_run_end(parent) - parent.event_idx,
                )
                sub_leaves, sub_scans = self._subtree_totals(stack[idx].size)
                leaves += q * sub_leaves
                scans += q * sub_scans
                del stack[idx:]
                parent.event_idx += q
                parent.scan_done = 0
                self._normalize()
                consumed += q
            else:
                # partially progressed (the run's first box) or the root
                got_leaves, got_scans = self._complete_through_cached(idx)
                leaves += got_leaves
                scans += got_scans
                consumed += 1
            if consumed >= count or not stack:
                break
            fr = stack[-1]
            if fr.events[fr.event_idx][0] == _SCAN and fr.size > s_eff:
                break  # next box streams a scan: separate closed form
            idx = self._outermost_depth(s_eff)
            if idx is None:
                break  # next box behaves as a leaf/zero-progress box
        return consumed, leaves, scans

    def feed_greedy_run(self, s: int, count: int) -> tuple[int, int, int]:
        """Consume up to ``count`` identical greedy boxes in closed form;
        returns ``(consumed, leaves, scan_accesses)``.

        Batches the two regimes that dominate long runs — boxes fully
        absorbed by the current scan piece (one division) and boxes too
        small to complete a leaf (consumed without progress) — and
        takes any other box through the O(depth) per-box step
        :meth:`_greedy_box`.  Equivalent to ``consumed`` sequential
        :meth:`feed_greedy` calls.
        """
        self._check_run("feed_greedy_run", s, count)
        return self._greedy_run(s, count)

    def _greedy_run(self, s: int, count: int) -> tuple[int, int, int]:
        """:meth:`feed_greedy_run` without the argument checks."""
        fr = self._stack[-1]
        ev = fr.events[fr.event_idx]
        if ev[0] == _SCAN:
            rem = ev[1] - fr.scan_done
            whole = rem // s  # boxes the piece absorbs entirely
            if whole >= 1:
                q = whole if count >= whole else count
                step = q * s
                fr.scan_done += step
                if fr.scan_done >= ev[1]:
                    fr.event_idx += 1
                    fr.scan_done = 0
                    self._normalize()
                return q, 0, step
        elif s < self.spec.base_size:
            # cannot afford a leaf and is not at a scan: no progress
            return count, 0, 0
        leaves, scans = self._greedy_box(s)
        return 1, leaves, scans

    def _greedy_box(self, s: int) -> tuple[int, int]:
        """One greedy box in O(depth) per step; returns ``(leaves,
        scan_accesses)``, exactly as :meth:`feed_greedy`.

        At a scan the box advances ``min(budget, rest of the piece)``.
        At a leaf it completes the outermost frame whose remaining
        accesses fit the budget (the leaf itself fits whenever the budget
        covers ``base_size``): the greedy box would cover that remainder
        access by access, every leaf in it affordable, and the frame's
        parent does not fit, so the walk outward stops at the first
        frame that does not.
        """
        stack = self._stack
        base = self.spec.base_size
        budget = s
        leaves = 0
        scans = 0
        while budget > 0 and stack:
            top = len(stack) - 1
            fr = stack[top]
            ev = fr.events[fr.event_idx]
            if ev[0] == _SCAN:
                rem = ev[1] - fr.scan_done
                if budget < rem:
                    fr.scan_done += budget
                    scans += budget
                    break
                fr.event_idx += 1
                fr.scan_done = 0
                self._normalize()
                scans += rem
                budget -= rem
                continue
            if budget < base:
                break
            # at a leaf: its frame holds the leaf alone
            best = top
            best_leaves = rem_leaves = 1
            best_scans = rem_scans = 0
            best_cost = base
            j = top
            while j > 0:
                j -= 1
                f = stack[j]
                suf_leaves, suf_scans = self._event_suffix_totals(f)
                rem_leaves += suf_leaves[f.event_idx + 1]
                rem_scans += suf_scans[f.event_idx + 1]
                cost = rem_leaves * base + rem_scans
                if cost > budget:
                    break
                best = j
                best_leaves = rem_leaves
                best_scans = rem_scans
                best_cost = cost
            self._close_frames(best)
            leaves += best_leaves
            scans += best_scans
            budget -= best_cost
        return leaves, scans

    def feed_recursive_run(
        self, s: int, count: int, completion_divisor: int = 1
    ) -> tuple[int, int, int]:
        """Consume up to ``count`` identical boxes in closed form under the
        budgeted-continuation model; returns ``(consumed, leaves,
        scan_accesses)``.  Equivalent to ``consumed`` sequential
        :meth:`feed_recursive` calls (asserted differentially in
        ``tests/simulation/test_replay.py``).

        Three regimes batch; every other box takes the O(depth) per-box
        step :meth:`_recursive_box`, so arbitrary box/spec combinations
        stay exact:

        * a run streaming a scan of a node too large to complete —
          every fully-absorbed box is one division (the boundary box,
          which spills its leftover budget past the scan, is one step);
        * boxes whose budget is consumed *exactly* by ``j`` fresh sibling
          subtrees (``s == j * cost``, ``cost = min(m, subtree
          accesses)``) — one multiply per batch.  The canonical
          worst-case profile hits this with ``j = 1`` at every level,
          which is what makes the recursive model chunkable on the
          paper's central input;
        * boxes too small to make any progress — the whole run is
          consumed at once.

        Requires a static or addressable scan placement, exactly as
        :meth:`feed_simplified_run` (sibling batches skip subtrees
        without entering them).
        """
        self._check_run("feed_recursive_run", s, count, completion_divisor)
        return self._recursive_run(s, count, s // completion_divisor)

    def _recursive_run(self, s: int, count: int, s_eff: int) -> tuple[int, int, int]:
        """:meth:`feed_recursive_run` without the argument checks;
        ``s_eff`` is ``s // completion_divisor``."""
        base = self.spec.base_size
        stack = self._stack
        leaves = 0
        scans = 0
        consumed = 0
        while True:
            fr = stack[-1]
            ev = fr.events[fr.event_idx]
            batched = False
            if ev[0] == _SCAN and fr.size > s_eff:
                # scan streaming: boxes with s <= (scan left) are fully
                # absorbed (budget exhausted inside the piece)
                rem = ev[1] - fr.scan_done
                whole = rem // s
                if whole >= 1:
                    q = whole if count - consumed >= whole else count - consumed
                    step = q * s
                    fr.scan_done += step
                    if fr.scan_done >= ev[1]:
                        fr.event_idx += 1
                        fr.scan_done = 0
                        self._normalize()
                    consumed += q
                    scans += step
                    batched = True
            else:
                idx = self._outermost_depth(s_eff)
                if idx is None:
                    if ev[0] == _LEAF and s < base:
                        # no scan, no completable ancestor, cannot afford
                        # a leaf: the cursor does not move
                        return count, leaves, scans
                elif idx > 0 and all(
                    f.event_idx == 0 and f.scan_done == 0 for f in stack[idx:]
                ):
                    sz = stack[idx].size
                    sub_leaves, sub_scans = self._subtree_totals(sz)
                    cost = min(sz, sub_leaves * base + sub_scans)
                    if cost <= s and s % cost == 0:
                        # each box completes exactly j consecutive fresh
                        # siblings, budget exhausted with no leftover to
                        # spill deeper
                        j = s // cost
                        parent = stack[idx - 1]
                        avail = self._child_run_end(parent) - parent.event_idx
                        q = min(count - consumed, avail // j)
                        if q >= 1:
                            total = q * j
                            leaves += total * sub_leaves
                            scans += total * sub_scans
                            del stack[idx:]
                            parent.event_idx += total
                            parent.scan_done = 0
                            self._normalize()
                            consumed += q
                            batched = True
            if not batched:
                # the scan's boundary box, a partially progressed or
                # root-level subtree, or an inexact budget: one box
                got_leaves, got_scans = self._recursive_box(s, s_eff)
                consumed += 1
                leaves += got_leaves
                scans += got_scans
            if consumed >= count or not stack:
                break
        return consumed, leaves, scans

    def _recursive_box(self, s: int, s_eff: int) -> tuple[int, int]:
        """One budgeted box in O(depth) per step; returns ``(leaves,
        scan_accesses)``, exactly as :meth:`feed_recursive`.

        Each step computes the remaining ``(leaves, scans)`` of the
        frames from the top outward, one suffix-table lookup each, and
        completes the outermost completable frame whose cost
        ``min(size, leaves * base + scans)`` fits the budget.  Both the
        size and the remainder shrink from a frame to its child, so the
        cost does too: the frames that fit are the innermost ones, and
        the walk outward stops at the first that does not.
        """
        stack = self._stack
        base = self.spec.base_size
        budget = s
        leaves = 0
        scans = 0
        while budget > 0 and stack:
            top = len(stack) - 1
            fr = stack[top]
            ev = fr.events[fr.event_idx]
            at_scan = ev[0] == _SCAN
            rem = ev[1] - fr.scan_done if at_scan else 0
            if not at_scan or fr.size <= s_eff:
                idx = self._outermost_depth(s_eff)
                if idx is not None:
                    suf_leaves, suf_scans = self._event_suffix_totals(fr)
                    nxt = fr.event_idx + 1
                    rem_leaves = suf_leaves[nxt] + (0 if at_scan else 1)
                    rem_scans = suf_scans[nxt] + rem
                    best = -1
                    j = top
                    while True:
                        size_j = stack[j].size
                        cost = rem_leaves * base + rem_scans
                        if size_j < cost:
                            cost = size_j
                        if cost > budget:
                            break
                        best = j
                        best_leaves = rem_leaves
                        best_scans = rem_scans
                        best_cost = cost
                        if j == idx:
                            break
                        j -= 1
                        f = stack[j]
                        suf_leaves, suf_scans = self._event_suffix_totals(f)
                        rem_leaves += suf_leaves[f.event_idx + 1]
                        rem_scans += suf_scans[f.event_idx + 1]
                    if best >= 0:
                        self._close_frames(best)
                        leaves += best_leaves
                        scans += best_scans
                        budget -= best_cost
                        continue
            if at_scan:
                # stream the scan (or, when its node is completable but
                # does not fit, make fine-grained progress in it)
                if budget < rem:
                    fr.scan_done += budget
                    scans += budget
                    break
                fr.event_idx += 1
                fr.scan_done = 0
                self._normalize()
                scans += rem
                budget -= rem
                continue
            if budget < base:
                break
            fr.event_idx += 1  # complete the pending leaf
            self._normalize()
            leaves += 1
            budget -= base
        return leaves, scans

    def feed_recursive(self, s: int, completion_divisor: int = 1) -> BoxOutcome:
        """Apply one box of size ``s`` under the budgeted-continuation model.

        Like :meth:`feed_simplified`, a box can complete problems of size
        up to ``s // completion_divisor`` — but instead of "going no
        further", it carries a *distinct-block budget* of ``s``: completing
        the remainder of a subproblem of size ``m`` costs
        ``min(m, remaining accesses in it)`` blocks (the subtree touches at
        most ``m`` distinct blocks — the reuse that makes divide-and-conquer
        cache-efficient), scan accesses cost one block each, and the box
        continues into following siblings while budget remains.

        On the canonical worst-case profile this model behaves identically
        to the simplified one (every box is exactly consumed), so the
        ``c = 1`` lower bounds are preserved; unlike the simplified model
        it does not spuriously strand the leftover capacity of large boxes
        on small scans, which is what lets ``c < 1`` algorithms show their
        Theorem-2 adaptivity.
        """
        if self.is_done:
            raise SimulationError("execution already complete")
        if s < 1:
            raise SimulationError(f"box size must be >= 1, got {s}")
        if completion_divisor < 1:
            raise SimulationError(
                f"completion_divisor must be >= 1, got {completion_divisor}"
            )
        s_eff = s // completion_divisor
        budget = s
        leaves = 0
        scans = 0
        largest: Optional[int] = None
        base = self.spec.base_size
        while budget > 0 and not self.is_done:
            fr = self._stack[-1]
            if self.at_scan() and fr.size > s_eff:
                step = self.advance_scan(min(budget, self.scan_remaining()))
                scans += step
                budget -= step
                continue
            idx = self._outermost_frame_with_size_at_most(s_eff)
            progressed = False
            if idx is not None:
                # Largest completable ancestor whose remainder fits the
                # remaining budget (frames shrink root-to-leaf).
                for j in range(idx, len(self._stack)):
                    rem_leaves, rem_scans = self._remaining_in_subtree(j)
                    cost = min(self._stack[j].size, rem_leaves * base + rem_scans)
                    if cost <= budget:
                        size_j = self._stack[j].size
                        got_leaves, got_scans = self.complete_through(j)
                        leaves += got_leaves
                        scans += got_scans
                        budget -= cost
                        if largest is None or size_j > largest:
                            largest = size_j
                        progressed = True
                        break
            if progressed:
                continue
            # No wholesale completion fits: make fine-grained progress.
            if self.at_scan():
                step = self.advance_scan(min(budget, self.scan_remaining()))
                scans += step
                budget -= step
                if step == 0:
                    break
                continue
            if budget >= base:
                self.complete_leaf()
                leaves += 1
                budget -= base
                if largest is None:
                    largest = base
                continue
            break
        return BoxOutcome(leaves, scans, largest, self.is_done)

    def feed_greedy(self, s: int) -> BoxOutcome:
        """Apply one box of size ``s`` under the greedy access-budget model.

        The box performs up to ``s`` accesses (every access assumed to
        touch a fresh block): leaves cost ``base_size``, scan pieces their
        remaining length, crossing into the next subproblem is free.  An
        optimistic sensitivity-analysis variant — not the paper's model.
        """
        if self.is_done:
            raise SimulationError("execution already complete")
        if s < 1:
            raise SimulationError(f"box size must be >= 1, got {s}")
        budget = s
        leaves = 0
        scans = 0
        largest: Optional[int] = None
        while budget > 0 and not self.is_done:
            fr = self._stack[-1]
            if self.at_scan():
                step = self.advance_scan(budget)
                scans += step
                budget -= step
            else:
                if budget < self.spec.base_size:
                    break
                self.complete_leaf()
                leaves += 1
                budget -= self.spec.base_size
                if largest is None or self.spec.base_size > largest:
                    largest = self.spec.base_size
        return BoxOutcome(leaves, scans, largest, self.is_done)
