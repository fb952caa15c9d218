"""An independent reference for the execution cursor, over flat arrays.

:class:`~repro.algorithms.cursor.ExecutionCursor` walks a stack of
frames and answers box questions from cached per-size and per-node
tables.  This module answers the same questions the slow, obvious way:
it materializes the canonical linearization of a small execution as
arrays and applies each box model straight from its docstring.

* Per access: whether it belongs to a leaf or a scan, and which node
  owns it.
* Per node, numbered in this module's own preorder: its size and the
  ``[start, end)`` range of accesses its subtree covers.

A position is a linearized access index ``p``: the accesses before
``p`` are done.  Leaves are atomic, so ``p`` never stands inside one.
The nodes that contain ``p`` are the cursor's stack, outermost first.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.spec import RegularSpec

LEAF, SCAN = 0, 1


class ReferenceExecution:
    """A size-``n`` execution of ``spec`` as arrays, plus a position.

    ``placement`` is ``None`` (the spec's static placement) or an
    addressable placement called as ``(size, node_index)``.
    """

    def __init__(self, spec: RegularSpec, n: int, placement=None):
        self.spec = spec
        self.n = n
        kinds: list[int] = []
        owners: list[int] = []
        sizes: list[int] = []
        starts: list[int] = []
        ends: list[int] = []

        def visit(size: int) -> None:
            node = len(sizes)
            sizes.append(size)
            starts.append(len(kinds))
            ends.append(-1)
            if size <= spec.base_size:
                kinds.extend([LEAF] * spec.base_size)
                owners.extend([node] * spec.base_size)
            else:
                if placement is None:
                    pieces = spec.scan_pieces(size)
                else:
                    pieces = list(placement(size, node))
                for i in range(spec.a + 1):
                    kinds.extend([SCAN] * pieces[i])
                    owners.extend([node] * pieces[i])
                    if i < spec.a:
                        visit(size // spec.b)
            ends[node] = len(kinds)

        visit(n)
        self.kinds = np.asarray(kinds, dtype=np.int64)
        self.owners = np.asarray(owners, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)
        self.total = len(kinds)
        self.pos = 0

    # -- position queries ----------------------------------------------
    @property
    def done(self) -> bool:
        return self.pos >= self.total

    def path(self) -> np.ndarray:
        """Nodes containing the position, outermost (largest) first."""
        p = self.pos
        inside = np.flatnonzero((self.starts <= p) & (p < self.ends))
        return inside[np.argsort(-self.sizes[inside], kind="stable")]

    def at_scan(self) -> bool:
        return not self.done and self.kinds[self.pos] == SCAN

    def piece_rest(self) -> int:
        """Accesses left in the scan piece under the position: the run
        of scan accesses of the same owner that contains it."""
        p = self.pos
        owner = self.owners[p]
        end = p
        while (
            end < self.total
            and self.kinds[end] == SCAN
            and self.owners[end] == owner
        ):
            end += 1
        return end - p

    def owner_size(self) -> int:
        return int(self.sizes[self.owners[self.pos]])

    def advance_to(self, new_pos: int) -> tuple[int, int]:
        """Move to ``new_pos``; returns the ``(leaves, scans)`` passed."""
        span = self.kinds[self.pos : new_pos]
        scans = int(np.count_nonzero(span == SCAN))
        leaves = (len(span) - scans) // self.spec.base_size
        self.pos = new_pos
        return leaves, scans

    # -- the three box models ------------------------------------------
    def feed_simplified(self, s: int, kappa: int = 1) -> tuple[int, int, bool]:
        """Streaming a scan of a node the box cannot complete, advance
        ``min(s, rest of the piece)``.  Otherwise complete the largest
        containing problem of size at most ``s // kappa``, or the pending
        leaf when ``s >= base_size``, and go no further."""
        s_eff = s // kappa
        if self.at_scan() and self.owner_size() > s_eff:
            got = self.advance_to(self.pos + min(s, self.piece_rest()))
            return (*got, self.done)
        for node in self.path():
            if self.sizes[node] <= s_eff:
                got = self.advance_to(int(self.ends[node]))
                return (*got, self.done)
        if s >= self.spec.base_size and not self.at_scan():
            got = self.advance_to(self.pos + self.spec.base_size)
            return (*got, self.done)
        return 0, 0, False

    def feed_recursive(self, s: int, kappa: int = 1) -> tuple[int, int, bool]:
        """A distinct-block budget of ``s``: completing the rest of a
        containing problem of size ``m <= s // kappa`` costs
        ``min(m, accesses left in it)``, scan accesses cost one each, a
        leaf ``base_size``; the box continues while budget remains."""
        s_eff = s // kappa
        base = self.spec.base_size
        budget = s
        leaves = scans = 0

        def step(new_pos: int) -> None:
            nonlocal leaves, scans
            got = self.advance_to(new_pos)
            leaves += got[0]
            scans += got[1]

        while budget > 0 and not self.done:
            if self.at_scan() and self.owner_size() > s_eff:
                k = min(budget, self.piece_rest())
                step(self.pos + k)
                budget -= k
                continue
            completed = False
            for node in self.path():
                if self.sizes[node] > s_eff:
                    continue
                end = int(self.ends[node])
                cost = min(int(self.sizes[node]), end - self.pos)
                if cost <= budget:
                    step(end)
                    budget -= cost
                    completed = True
                    break
            if completed:
                continue
            if self.at_scan():
                k = min(budget, self.piece_rest())
                step(self.pos + k)
                budget -= k
                continue
            if budget >= base:
                step(self.pos + base)
                budget -= base
                continue
            break
        return leaves, scans, self.done

    def feed_greedy(self, s: int) -> tuple[int, int, bool]:
        """Up to ``s`` accesses in linear order; a leaf costs
        ``base_size`` and is atomic, so a leaf that does not fit the
        budget left ends the box."""
        base = self.spec.base_size
        budget = s
        leaves = scans = 0
        while budget > 0 and not self.done:
            if self.at_scan():
                k = min(budget, self.piece_rest())
            elif budget >= base:
                k = base
            else:
                break
            got = self.advance_to(self.pos + k)
            leaves += got[0]
            scans += got[1]
            budget -= k
        return leaves, scans, self.done
