"""Deterministic random-number utilities.

Every randomized component in the library accepts either a seed or a
:class:`numpy.random.Generator`; this module centralizes the coercion so
experiments are reproducible bit-for-bit from a single integer seed, and
independent sub-streams can be spawned for parallel Monte-Carlo trials
without correlation (via ``SeedSequence.spawn``).

Two consumption disciplines coexist:

* **Positional** (``as_generator`` / ``spawn``): draws come off a shared
  stream in call order, so two code paths see the same randomness only
  if they make byte-identical draw sequences.  This is the legacy
  discipline; it forces chunked and scalar simulation paths to mirror
  each other's batching exactly.
* **Addressed** (:class:`ReplayableStream`): every draw has a logical
  *index* on a counter-based (Philox) stream keyed by ``(root_seed,
  purpose, trial)``.  Draw ``i`` is the same value whether it is read
  alone, inside any batch, in any order, or from any process — which is
  what lets the chunked simulator, the scalar cursor, and parallel
  Monte-Carlo workers consume provably identical randomness.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "RNG_SCHEME",
    "ReplayableStream",
    "as_generator",
    "spawn",
    "fixed_seeds",
]

#: Identifier of the randomness-consumption scheme, recorded in run
#: artifacts and cache keys.  Bump whenever the mapping from
#: ``(seed, purpose, trial, index)`` to drawn values changes — stale
#: cache entries from an older scheme must miss, and artifact diffs
#: must be attributable to the scheme change rather than silent drift.
RNG_SCHEME = "philox-addressed-v2"

# Philox-4x64 emits one float64 per 64-bit word, four words per counter
# block: word index i lives in counter block i // 4, offset i % 4.
_WORDS_PER_BLOCK = 4


@lru_cache(maxsize=4096)
def _philox_key(*parts: "int | str") -> int:
    """128-bit Philox key for one addressing plane.

    Derived by hashing so that nearby seeds / trials give statistically
    unrelated streams (raw small-integer keys are a known Philox
    weak spot) and so string components cannot collide with integer
    fields (each component is length-prefixed and type-tagged).
    """
    h = hashlib.sha256()
    for part in parts:
        tag = b"s" if isinstance(part, str) else b"i"
        data = str(part).encode("utf-8")
        h.update(tag)
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)
    return int.from_bytes(h.digest()[:16], "little")


@dataclass(frozen=True)
class ReplayableStream:
    """A counter-based random plane addressed by logical draw index.

    ``uniforms_at(lo, hi)`` returns draws ``lo .. hi-1`` of the float64
    stream keyed by ``(root_seed, purpose, trial)``.  The addressing
    contract (pinned in ``tests/util/test_rng_streams.py``):

    * draw ``i`` is a pure function of ``(root_seed, purpose, trial, i)``;
    * any batching of a range gives bit-identical values to per-index
      draws (``uniforms_at(0, 8) == [uniform_at(i) for i in range(8)]``);
    * consumption order is irrelevant — there is no stream position.

    Instances are frozen, tiny, and picklable, so they can be shipped to
    pool workers directly; ``for_trial`` / ``substream`` derive disjoint
    planes for parallel trials and independent consumers.
    """

    root_seed: int
    purpose: str = ""
    trial: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.root_seed, (int, np.integer)):
            raise TypeError(
                f"root_seed must be an int, got {type(self.root_seed).__name__}"
            )
        if not isinstance(self.trial, (int, np.integer)):
            raise TypeError(
                f"trial must be an int, got {type(self.trial).__name__}"
            )
        # normalize numpy integers so pickling/equality are type-stable
        object.__setattr__(self, "root_seed", int(self.root_seed))
        object.__setattr__(self, "trial", int(self.trial))

    # -- derivation ----------------------------------------------------
    def substream(self, purpose: str) -> "ReplayableStream":
        """A disjoint plane for an independent consumer ("placement",
        "boxes", ...).  Nested purposes chain with ``/``."""
        if not purpose:
            raise ValueError("substream purpose must be non-empty")
        joined = f"{self.purpose}/{purpose}" if self.purpose else purpose
        return replace(self, purpose=joined)

    def for_trial(self, trial: int) -> "ReplayableStream":
        """The same plane re-keyed for Monte-Carlo trial ``trial``."""
        if trial < 0:
            raise ValueError(f"trial must be >= 0, got {trial}")
        return replace(self, trial=int(trial))

    # -- addressed draws -----------------------------------------------
    @property
    def _key(self) -> int:
        return _philox_key(self.root_seed, self.purpose, self.trial)

    def uniforms_at(self, lo: int, hi: int) -> np.ndarray:
        """Float64 draws at indices ``[lo, hi)`` — uniform on ``[0, 1)``.

        Bit-identical to concatenating any finer-grained reads of the
        same index range (one Philox word per draw; the block counter
        starts at ``lo // 4`` and the first ``lo % 4`` words of that
        block are discarded).
        """
        if lo < 0 or hi < lo:
            raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
        if hi == lo:
            return np.empty(0, dtype=np.float64)
        pad = lo % _WORDS_PER_BLOCK
        gen = np.random.Generator(
            np.random.Philox(key=self._key, counter=lo // _WORDS_PER_BLOCK)
        )
        return gen.random(pad + (hi - lo))[pad:]

    def uniform_at(self, index: int) -> float:
        """The single float64 draw at ``index``."""
        return float(self.uniforms_at(index, index + 1)[0])

    def integers_at(self, index: int, low: int, high: int) -> int:
        """A uniform integer in ``[low, high)`` addressed at ``index``.

        Mapped as ``low + floor(u * (high - low))`` from the float64 draw
        at ``index`` — a fixed, scheme-versioned mapping (deliberately
        *not* ``Generator.integers``, whose rejection sampling consumes a
        data-dependent number of words and would break addressing).
        """
        if high <= low:
            raise ValueError(f"need low < high, got low={low}, high={high}")
        return _integer_from(self.uniform_at(index), low, high)

    def generator_at(self, index: int) -> np.random.Generator:
        """A full :class:`numpy.random.Generator` addressed at ``index``.

        For structured draws (multinomial, permutations) that need more
        than one word: the generator is keyed by ``(root_seed, purpose,
        trial, index)``, so however many words the draw consumes, it
        cannot disturb any other index.
        """
        if index < 0:
            raise ValueError(f"index must be >= 0, got {index}")
        key = _philox_key(self.root_seed, self.purpose, self.trial, index)
        return np.random.Generator(np.random.Philox(key=key))


def _integer_from(u: float, low: int, high: int) -> int:
    """:meth:`ReplayableStream.integers_at`'s mapping of the draw ``u``
    to an integer in ``[low, high)``, for callers that read ``u`` from a
    block of ``uniforms_at``."""
    v = low + int(u * (high - low))
    return min(v, high - 1)  # guard the u -> 1.0 closure under float


def as_generator(rng: object = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an int seed, a ``SeedSequence``, or
    an existing ``Generator`` (returned unchanged).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None or isinstance(rng, (int, np.integer)):
        return np.random.default_rng(rng)
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    raise TypeError(
        f"cannot interpret {type(rng).__name__} as a random generator; "
        "pass an int seed, numpy Generator, SeedSequence, or None"
    )


def spawn(rng: object, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` statistically independent generators from ``rng``.

    When ``rng`` is an int or ``SeedSequence``, the children derive from
    ``SeedSequence.spawn`` and are reproducible; when ``rng`` is already a
    ``Generator``, children are spawned from its internal bit generator.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(rng, np.random.Generator):
        return rng.spawn(n)
    if rng is None:
        seq = np.random.SeedSequence()
    elif isinstance(rng, (int, np.integer)):
        seq = np.random.SeedSequence(int(rng))
    elif isinstance(rng, np.random.SeedSequence):
        seq = rng
    else:
        raise TypeError(f"cannot spawn from {type(rng).__name__}")
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def fixed_seeds(base_seed: int, n: int) -> Sequence[int]:
    """Derive ``n`` distinct deterministic integer seeds from one seed."""
    seq = np.random.SeedSequence(base_seed)
    return [int(s.generate_state(1)[0]) for s in seq.spawn(n)]
