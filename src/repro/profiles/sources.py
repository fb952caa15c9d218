"""Box sources: box sequences the simulator consumes chunk by chunk.

The experiments rarely feed a simulator one finite profile.  They cycle
the adversary so every algorithm finishes, continue a shuffled multiset
with i.i.d. draws, or stream perturbed and re-drawn profiles forever.
A :class:`BoxSource` describes such a sequence as a lazy sequence of
*chunks*, each a :class:`~repro.profiles.runs.BoxRuns` or a 1-d int64
array, so the chunked engine (:mod:`repro.simulation.fastpath`) consumes
it natively: run chunks in closed form, array chunks with vectorized
scan streaming.  Iterating a source yields the same flat box sequence
one Python ``int`` at a time, which is what the scalar loop (the
oracle) and the box-at-a-time consumers (the adaptive executor, the
square-profile trace machine) read.

A :class:`~repro.profiles.square.SquareProfile`, a ``BoxRuns`` or a 1-d
integer array is a one-chunk source (:func:`as_box_source`).  The
constructors build the rest:

* :func:`cycled` — a profile (or a given first profile) once, then the
  profile repeated forever: cycling a profile is its RLE repeated;
* :func:`sampled` — i.i.d. batches ``dist.sample(4096, gen)`` (or
  addressed ``dist.sample_at`` windows), after an optional head array;
* :func:`perturbed_limit` — the limit worst-case profile with i.i.d.
  multiplicative size noise, one chunk per 1024-box batch;
* :func:`order_perturbed` — freshly drawn order-perturbed worst-case
  profiles, one chunk each.

A chunk is pulled only when the consumer needs its first box, so a
random source draws exactly the batches, in the same order, that the
scalar loop's box-at-a-time iteration draws: RNG consumption does not
depend on which engine ran.  Random sources are single-use; build one
per run.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Union

import numpy as np

from repro.errors import ProfileError
from repro.profiles.runs import BoxRuns
from repro.profiles.square import SquareProfile
from repro.util.rng import ReplayableStream, as_generator

if TYPE_CHECKING:
    from repro.profiles.distributions import BoxDistribution
    from repro.profiles.perturbations import MultiplierSampler

__all__ = [
    "BoxSource",
    "Chunk",
    "as_box_source",
    "cycled",
    "order_perturbed",
    "perturbed_limit",
    "profile_chunk",
    "sampled",
]

Chunk = Union[BoxRuns, np.ndarray]

# Batch sizes of the scalar streams these sources replace; a random
# source must draw in exactly these batches to keep RNG consumption.
SAMPLE_BATCH = 4096  # BoxDistribution.sampler
PERTURB_BATCH = 1024

# Most limit-profile boxes perturbed_limit materializes: the prefix
# M(base*b^k) for the largest k within this count; later boxes are cut
# from copies of it.
_LIMIT_PREFIX = 1 << 16


class BoxSource:
    """A box sequence as a lazy sequence of chunks (``BoxRuns`` or 1-d
    int64 arrays).

    ``make_chunks`` returns a fresh chunk iterator per consumption.  A
    ``single_use`` source (one that draws random batches) refuses a
    second consumption instead of silently replaying different boxes.
    """

    __slots__ = ("_make", "_single_use", "_used")

    def __init__(
        self, make_chunks: Callable[[], Iterator[Chunk]], single_use: bool = False
    ) -> None:
        self._make = make_chunks
        self._single_use = single_use
        self._used = False

    def chunks(self) -> Iterator[Chunk]:
        """The chunk iterator; each chunk is produced on demand."""
        if self._single_use:
            if self._used:
                raise ProfileError(
                    "this box source draws random batches and is single-use; "
                    "build a fresh one per run"
                )
            self._used = True
        return self._make()

    def __iter__(self) -> Iterator[int]:
        """The flat box sequence, one Python ``int`` per box."""
        for chunk in self.chunks():
            if isinstance(chunk, BoxRuns):
                yield from chunk.iter_boxes()
            else:
                yield from chunk.tolist()


def profile_chunk(profile: SquareProfile) -> Chunk:
    """The chunk a profile is consumed as: its RLE when that is at least
    2x shorter than the flat array (closed-form runs win), else the array
    (vectorized scan streaming wins)."""
    arr = profile.boxes
    if arr.size < 2:
        return arr
    nruns = 1 + int(np.count_nonzero(arr[1:] != arr[:-1]))
    return profile.runs() if 2 * nruns <= int(arr.size) else arr


def as_box_source(boxes: object) -> Optional[BoxSource]:
    """``boxes`` as a box source, or None when it is not one.

    A ``BoxSource`` is returned as is; a ``SquareProfile``, ``BoxRuns``
    or 1-d integer array becomes a one-chunk source.  Any other iterable
    is not a box source: it can only be pulled one box at a time.
    """
    if isinstance(boxes, BoxSource):
        return boxes
    if isinstance(boxes, SquareProfile):
        profile = boxes
        return BoxSource(lambda: iter((profile_chunk(profile),)))
    if isinstance(boxes, BoxRuns):
        runs = boxes
        return BoxSource(lambda: iter((runs,)))
    if (
        isinstance(boxes, np.ndarray)
        and boxes.ndim == 1
        and np.issubdtype(boxes.dtype, np.integer)
    ):
        arr = boxes.astype(np.int64, copy=False)
        return BoxSource(lambda: iter((arr,)))
    return None


def cycled(profile: SquareProfile, first: Optional[SquareProfile] = None) -> BoxSource:
    """``first`` (default ``profile``) once, then ``profile`` repeated
    forever — the cyclic continuation that lets an algorithm outlasting
    one copy of a profile still complete (and, with a rotated ``first``,
    the paper's cyclic start-shift smoothing).  Reusable."""

    def chunks() -> Iterator[Chunk]:
        if first is not None:
            yield profile_chunk(first)
        rep = profile_chunk(profile)
        yield rep
        while len(rep):
            yield rep

    return BoxSource(chunks)


def sampled(
    dist: "BoxDistribution",
    rng: "np.random.Generator | ReplayableStream | int | None" = None,
    head: Optional[np.ndarray] = None,
    batch: int = SAMPLE_BATCH,
) -> BoxSource:
    """``head`` (if given), then i.i.d. boxes from ``dist`` forever.

    With a :class:`~repro.util.rng.ReplayableStream`, box ``i`` after the
    head is ``dist.sample_at(i, i+1, rng)`` (drawn in ``batch`` windows;
    any windowing gives the same boxes).  Otherwise the boxes come from
    ``dist.sample(batch, gen)`` batches: exactly the batches
    :meth:`~repro.profiles.distributions.BoxDistribution.sampler` draws,
    so the positional stream is consumed identically.  Single-use.
    """
    if head is not None:
        head = np.asarray(head, dtype=np.int64)
        if head.ndim != 1:
            raise ProfileError("head must be a one-dimensional box array")

    def chunks() -> Iterator[Chunk]:
        if head is not None:
            yield head
        if isinstance(rng, ReplayableStream):
            for pos in itertools.count(0, batch):
                yield dist.sample_at(pos, pos + batch, rng)
        else:
            gen = as_generator(rng)
            while True:
                yield dist.sample(batch, gen)

    return BoxSource(chunks, single_use=True)


def perturbed_limit(
    a: int,
    b: int,
    base_size: int,
    multipliers: "MultiplierSampler",
    rng: object = None,
) -> BoxSource:
    """The limit worst-case profile ``M_{a,b}`` with each box size
    multiplied by an i.i.d. factor (rounded to the nearest integer);
    boxes that round to zero are dropped (they provide nothing).  One
    chunk per 1024 limit-profile boxes, each cut from array segments of
    the profile with one ``multipliers`` call.  Single-use."""
    from repro.profiles.worst_case import _limit_profile_segments

    gen = as_generator(rng)

    def chunks() -> Iterator[Chunk]:
        segments = _limit_profile_segments(a, b, base_size, _LIMIT_PREFIX)
        seg = np.empty(0, dtype=np.int64)
        at = 0
        while True:
            parts = []
            need = PERTURB_BATCH
            while need:
                if at == seg.size:
                    seg = next(segments)
                    at = 0
                take = min(need, seg.size - at)
                parts.append(seg[at : at + take])
                at += take
                need -= take
            sizes = np.concatenate(parts).astype(np.float64)
            factors = np.asarray(multipliers(sizes.size, gen), dtype=np.float64)
            perturbed = np.rint(sizes * factors).astype(np.int64)
            yield perturbed[perturbed >= 1]

    return BoxSource(chunks, single_use=True)


def order_perturbed(
    a: int,
    b: int,
    n: int,
    base_size: int = 1,
    rng: object = None,
) -> BoxSource:
    """Order-perturbed ``M_{a,b}(n)`` profiles back to back, each built
    fresh (:func:`~repro.profiles.worst_case.order_perturbed_profile`):
    every node's big box after a random copy.  Single-use."""
    from repro.profiles.worst_case import order_perturbed_profile

    gen = as_generator(rng)

    def chunks() -> Iterator[Chunk]:
        while True:
            yield profile_chunk(
                order_perturbed_profile(a, b, n, base_size, rng=gen)
            )

    return BoxSource(chunks, single_use=True)
