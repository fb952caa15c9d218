"""Randomized ``(a,b,c)``-regular algorithms — the paper's open question.

The conclusion asks: *"Could randomized algorithms also overcome
worst-case profiles and result in cache-adaptivity?"*  Definition 2 lets
an algorithm run parts of its scan before, between, and after the
recursive calls; a natural randomization is to let each node decide *at
runtime, randomly* where its scan goes.  The worst-case profile is built
against one fixed placement (canonically, trailing scans), so a random
placement breaks the adversary's alignment at every node — but the
No-Catch-up machinery suggests the profile may re-synchronize anyway.
The ``randomized`` experiment measures which intuition wins.

This module provides scan-placement randomizers to plug into
:class:`~repro.algorithms.cursor.ExecutionCursor` (and through
:class:`~repro.simulation.symbolic.SymbolicSimulator`'s
``scan_randomizer`` argument):

* :func:`random_slot_placement` — the whole scan runs after a uniformly
  random one of the ``a + 1`` slots around the children;
* :func:`random_split_placement` — the scan is split multinomially
  across all ``a + 1`` slots;
* :func:`coin_flip_placement` — front or back, by a fair coin (the
  smallest possible randomization).

Each factory returns an **addressable** placement when given a seed or a
:class:`~repro.util.rng.ReplayableStream`: node placements are drawn by
the node's *preorder index* in the recursion tree, not by consumption
order, so the cursor's chunked closed forms can skip whole sibling
subtrees without desynchronizing the randomness, and ``reset()`` replays
the exact same randomized execution for free.  Passing an existing
``numpy.random.Generator`` keeps the legacy positional behaviour (one
draw per first-entry, scalar path only).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import SpecError
from repro.algorithms.spec import RegularSpec
from repro.util.rng import ReplayableStream, _integer_from, as_generator

__all__ = [
    "ScanRandomizer",
    "AddressablePlacement",
    "random_slot_placement",
    "random_split_placement",
    "coin_flip_placement",
]

# Maps a node size to the a+1 scan-piece lengths for that node.  The
# addressable variant is called with the node's preorder index as well;
# the cursor dispatches on the `addressable` attribute.
ScanRandomizer = Callable[[int], "list[int]"]


class AddressablePlacement:
    """A scan randomizer whose draws are addressed by node index.

    ``__call__(size, node_index)`` returns the ``a + 1`` scan-piece
    lengths for the node at preorder index ``node_index``, as a pure
    function of ``(stream, node_index)``.  The three kinds:

    * ``"slot"`` — the whole scan in one uniformly random slot;
    * ``"split"`` — multinomial split over all ``a + 1`` slots;
    * ``"coin"`` — all-front or all-back by a fair coin.

    Two cursors (or the same cursor after ``reset()``) holding the same
    placement lay out every node identically, whatever order — or
    whether — each node is visited.

    ``slot`` and ``coin`` read node ``i``'s uniform from an aligned
    block of ``_BLOCK`` indices drawn with one ``uniforms_at`` call,
    which the addressing contract makes bit-equal to the per-index draw.
    Only the current block is kept: a cursor enters nodes in increasing
    preorder index, and a deep tree has millions of them.
    """

    addressable = True

    _KINDS = ("slot", "split", "coin")
    _BLOCK = 4096

    def __init__(self, spec: RegularSpec, stream: ReplayableStream, kind: str):
        if kind not in self._KINDS:
            raise SpecError(f"kind must be one of {self._KINDS}, got {kind!r}")
        _check(spec)
        self.spec = spec
        self.stream = stream.substream(f"scan-{kind}")
        self.kind = kind
        self._slots = spec.a + 1
        if kind == "split":
            self._probs = np.full(self._slots, 1.0 / self._slots)
        # (first index, draws): one tuple, so a reader on another thread
        # never pairs one block's index with another block's draws
        self._block: tuple[int, np.ndarray] = (0, np.empty(0))

    def _uniform(self, node_index: int) -> float:
        """The draw ``stream.uniform_at(node_index)``, read from the
        current block (drawing the node's block when it is another)."""
        lo, draws = self._block
        k = node_index - lo
        if not 0 <= k < draws.size:
            lo = node_index - node_index % self._BLOCK
            draws = self.stream.uniforms_at(lo, lo + self._BLOCK)
            self._block = (lo, draws)
            k = node_index - lo
        return float(draws[k])

    def __call__(self, size: int, node_index: int = 0) -> list[int]:
        length = self.spec.scan_length(size)
        out = [0] * self._slots
        if length == 0:
            return out
        if self.kind == "slot":
            out[_integer_from(self._uniform(node_index), 0, self._slots)] = length
        elif self.kind == "coin":
            heads = self._uniform(node_index) < 0.5
            out[0 if heads else self._slots - 1] = length
        else:  # split: a structured draw — use the per-index generator
            gen = self.stream.generator_at(node_index)
            out = [int(x) for x in gen.multinomial(length, self._probs)]
        return out

    def __repr__(self) -> str:
        return (
            f"AddressablePlacement(kind={self.kind!r}, spec={self.spec.name}, "
            f"stream={self.stream})"
        )


def _check(spec: RegularSpec) -> None:
    if float(spec.c) == 0.0:
        raise SpecError(
            f"{spec.name} has no scans (c = 0); nothing to randomize"
        )


def _as_stream(rng: object) -> "ReplayableStream | None":
    """Addressable routing: streams pass through, ints/None become root
    streams, Generators signal the legacy positional path (None here)."""
    if isinstance(rng, ReplayableStream):
        return rng
    if rng is None:
        return ReplayableStream(0)
    if isinstance(rng, (int, np.integer)):
        return ReplayableStream(int(rng))
    return None


def random_slot_placement(spec: RegularSpec, rng: object = None) -> ScanRandomizer:
    """Each node's whole scan runs in one uniformly random slot
    (before child 0, between children i and i+1, or after child a-1)."""
    stream = _as_stream(rng)
    if stream is not None:
        return AddressablePlacement(spec, stream, "slot")
    _check(spec)
    gen = as_generator(rng)
    slots = spec.a + 1

    def pieces(size: int) -> list[int]:
        out = [0] * slots
        out[int(gen.integers(0, slots))] = spec.scan_length(size)
        return out

    return pieces


def random_split_placement(spec: RegularSpec, rng: object = None) -> ScanRandomizer:
    """Each node's scan is split uniformly-multinomially across all
    ``a + 1`` slots (every scan access lands in an independent slot)."""
    stream = _as_stream(rng)
    if stream is not None:
        return AddressablePlacement(spec, stream, "split")
    _check(spec)
    gen = as_generator(rng)
    slots = spec.a + 1
    probs = np.full(slots, 1.0 / slots)

    def pieces(size: int) -> list[int]:
        length = spec.scan_length(size)
        if length == 0:
            return [0] * slots
        return [int(x) for x in gen.multinomial(length, probs)]

    return pieces


def coin_flip_placement(spec: RegularSpec, rng: object = None) -> ScanRandomizer:
    """Each node flips a fair coin: scan entirely first or entirely last."""
    stream = _as_stream(rng)
    if stream is not None:
        return AddressablePlacement(spec, stream, "coin")
    _check(spec)
    gen = as_generator(rng)
    slots = spec.a + 1

    def pieces(size: int) -> list[int]:
        out = [0] * slots
        idx = 0 if gen.random() < 0.5 else slots - 1
        out[idx] = spec.scan_length(size)
        return out

    return pieces
