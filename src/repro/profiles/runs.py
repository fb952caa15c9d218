"""Run-length encoded box streams: the chunked profile representation.

The paper's canonical structures are massively repetitive: the
worst-case profile ``M_{a,b}(n)`` emits ``a^(D-k)`` *identical* boxes of
size ``b^k`` per level, and i.i.d. profiles drawn from small-support
distributions repeat sizes constantly.  :class:`BoxRuns` stores a box
sequence as maximal ``(size, count)`` runs — two parallel int64 arrays —
so the chunked simulation fast path
(:mod:`repro.simulation.fastpath`) can consume a run of identical boxes
in closed form instead of one Python iteration per box.

``BoxRuns`` is purely a *representation*: iterating it yields exactly
the same flat box sequence as the profile it encodes (the RLE round-trip
is asserted for every profile family in ``tests/profiles/test_runs.py``),
and :meth:`SquareProfile.runs` / :func:`BoxRuns.from_boxes` convert both
ways losslessly.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.errors import ProfileError

if TYPE_CHECKING:
    from repro.profiles.square import SquareProfile

__all__ = ["BoxRuns"]


class BoxRuns:
    """A box sequence as maximal runs ``((size_1, count_1), ...)``.

    Runs are canonical: counts are positive, and adjacent runs always
    have distinct sizes (equal neighbours are merged, zero-count runs
    dropped, at construction).  Two ``BoxRuns`` encoding the same flat
    box sequence therefore compare equal.
    """

    __slots__ = ("_sizes", "_counts")

    def __init__(self, runs: Iterable[tuple[int, int]]) -> None:
        pairs = list(runs)
        if pairs:
            arr = np.asarray(pairs)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ProfileError("runs must be (size, count) pairs")
            if not np.issubdtype(arr.dtype, np.integer):
                if np.any(arr != np.floor(arr)):
                    raise ProfileError("run sizes and counts must be integers")
            sizes = arr[:, 0].astype(np.int64)
            counts = arr[:, 1].astype(np.int64)
        else:
            sizes = np.empty(0, dtype=np.int64)
            counts = np.empty(0, dtype=np.int64)
        if counts.size and counts.min() < 0:
            raise ProfileError("run counts must be >= 0")
        keep = counts > 0
        sizes, counts = sizes[keep], counts[keep]
        if sizes.size and sizes.min() < 1:
            raise ProfileError("box sizes must be >= 1 block")
        if sizes.size:
            # merge adjacent runs of equal size into maximal runs
            boundary = np.empty(sizes.size, dtype=bool)
            boundary[0] = True
            np.not_equal(sizes[1:], sizes[:-1], out=boundary[1:])
            if not boundary.all():
                group = np.cumsum(boundary) - 1
                merged = np.zeros(int(group[-1]) + 1, dtype=np.int64)
                np.add.at(merged, group, counts)
                sizes, counts = sizes[boundary], merged
        sizes.setflags(write=False)
        counts.setflags(write=False)
        self._sizes = sizes
        self._counts = counts

    # -- construction ---------------------------------------------------
    @staticmethod
    def from_boxes(boxes: "np.ndarray | Iterable[int]") -> "BoxRuns":
        """RLE-encode a flat box sequence (vectorized for arrays)."""
        arr = np.asarray(
            boxes if isinstance(boxes, np.ndarray) else list(boxes)
        )
        if arr.ndim != 1:
            raise ProfileError("box sequence must be one-dimensional")
        if arr.size == 0:
            return BoxRuns([])
        arr = arr.astype(np.int64, copy=False)
        starts = np.concatenate(
            ([0], np.flatnonzero(arr[1:] != arr[:-1]) + 1)
        )
        counts = np.diff(np.concatenate((starts, [arr.size])))
        out = BoxRuns.__new__(BoxRuns)
        sizes = arr[starts].copy()
        counts = counts.astype(np.int64)
        if sizes.size and sizes.min() < 1:
            raise ProfileError("box sizes must be >= 1 block")
        sizes.setflags(write=False)
        counts.setflags(write=False)
        out._sizes = sizes
        out._counts = counts
        return out

    # -- views ----------------------------------------------------------
    @property
    def sizes(self) -> np.ndarray:
        """Read-only int64 array of run sizes (adjacent entries distinct)."""
        return self._sizes

    @property
    def counts(self) -> np.ndarray:
        """Read-only int64 array of run lengths, aligned with :attr:`sizes`."""
        return self._counts

    def __len__(self) -> int:
        """Number of runs (*not* boxes; see :attr:`total_boxes`)."""
        return int(self._sizes.size)

    @property
    def total_boxes(self) -> int:
        """Number of boxes in the flat sequence this encodes."""
        return int(self._counts.sum())

    @property
    def total_time(self) -> int:
        """Total duration in I/O steps (= sum of all box sizes)."""
        return int(np.dot(self._sizes, self._counts))

    def iter_runs(self) -> Iterator[tuple[int, int]]:
        """Yield ``(size, count)`` pairs as Python ints."""
        return zip(self._sizes.tolist(), self._counts.tolist())

    def iter_boxes(self) -> Iterator[int]:
        """Yield the flat box sequence (the RLE round-trip inverse)."""
        for size, count in self.iter_runs():
            yield from itertools.repeat(size, count)

    def __iter__(self) -> Iterator[int]:
        return self.iter_boxes()

    def to_boxes(self) -> np.ndarray:
        """The flat box sequence as an int64 array."""
        return np.repeat(self._sizes, self._counts)

    def to_profile(self) -> SquareProfile:
        """Expand into a :class:`~repro.profiles.square.SquareProfile`."""
        from repro.profiles.square import SquareProfile

        return SquareProfile(self.to_boxes())

    # -- comparison ------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoxRuns):
            return NotImplemented
        return np.array_equal(self._sizes, other._sizes) and np.array_equal(
            self._counts, other._counts
        )

    def __hash__(self) -> int:
        return hash((self._sizes.tobytes(), self._counts.tobytes()))

    def __repr__(self) -> str:
        n = len(self)
        head = ", ".join(
            f"({int(s)}x{int(c)})"
            for s, c in zip(self._sizes[:6], self._counts[:6])
        )
        tail = ", ..." if n > 6 else ""
        return f"BoxRuns([{head}{tail}], runs={n}, boxes={self.total_boxes})"
