"""Worst-case (adversarial) memory profiles ``M_{a,b}(n)`` — Figure 1.

Section 3 of the paper constructs, for any ``(a,b,1)``-regular algorithm
with ``a > b``, a *bad* profile that forces the logarithmic gap: give the
algorithm a huge cache exactly while it scans (when it cannot exploit
memory) and a tiny cache while it recurses (when it could).

Concretely (with block size 1 and base-case size ``n0``):

    ``M(n0) = [ n0 ]``
    ``M(n)  = M(n/b) * a  ++  [ n ]``

i.e. ``a`` recursive copies of the bad profile for the subproblems,
followed by one box of size ``n`` that is consumed entirely by the final
size-``n`` scan.  The total potential of ``M(n)`` is
``(log_b(n/n0) + 1) * n**e`` with ``e = log_b a``, while the algorithm
completes only ``(n/n0)**e`` leaves — hence the ``Θ(log n)`` adaptivity
ratio (Theorem 2's lower bound).

This module builds ``M_{a,b}(n)`` explicitly (numpy), lazily (generator,
including the infinite *limit profile* ``M_{a,b}``), and in the
*box-order-perturbed* form where each node's big box is placed after an
arbitrary recursive copy (the paper's third robustness result).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.cache.memo import memoized

if TYPE_CHECKING:
    from repro.algorithms.spec import RegularSpec
from repro.errors import ProfileError
from repro.profiles.square import SquareProfile
from repro.util.intmath import critical_exponent, ilog, is_power_of
from repro.util.rng import as_generator

__all__ = [
    "matched_worst_case_profile",
    "worst_case_profile",
    "worst_case_boxes",
    "worst_case_runs",
    "limit_profile_boxes",
    "worst_case_box_count",
    "worst_case_total_time",
    "worst_case_potential",
    "worst_case_bounded_potential",
    "order_perturbed_profile",
]

# A position rule maps (problem_size, path_key) -> index in [1, a] after
# which recursive copy the node's big box is placed. The canonical worst
# case places it after copy ``a`` (i.e. at the very end).
PositionRule = Callable[[int, tuple[int, ...]], int]


def _check_params(a: int, b: int, n: int, base_size: int) -> int:
    if not (isinstance(a, int) and isinstance(b, int)) or b < 2 or a < 1:
        raise ProfileError(f"need integer a >= 1, b >= 2; got a={a}, b={b}")
    if base_size < 1:
        raise ProfileError(f"base_size must be >= 1, got {base_size}")
    if n < base_size:
        raise ProfileError(f"n={n} smaller than base_size={base_size}")
    if n % base_size != 0 or not is_power_of(n // base_size, b):
        raise ProfileError(
            f"n={n} must equal base_size*b**k for integer k (base={base_size}, b={b})"
        )
    return ilog(n // base_size, b)


def _profile_key(
    a: int, b: int, n: int, base_size: int = 1
) -> tuple[int, int, int, int]:
    return (a, b, n, base_size)


@memoized(maxsize=16, key=_profile_key)
def worst_case_profile(
    a: int, b: int, n: int, base_size: int = 1
) -> SquareProfile:
    """The canonical bad profile ``M_{a,b}(n)`` as an explicit profile.

    ``n`` must be ``base_size * b**k``.  Raises :class:`ProfileError` for
    profiles that would exceed ~``3*10**7`` boxes; use
    :func:`worst_case_boxes` (lazy) beyond that.

    Memoized (small keyed LRU — profiles can run to hundreds of MB):
    :class:`SquareProfile` is immutable, so callers share one instance
    per ``(a, b, n, base_size)``.  ``worst_case_profile.cache_info()``
    exposes the counters.
    """
    depth = _check_params(a, b, n, base_size)
    count = worst_case_box_count(a, b, n, base_size)
    if count > 3 * 10**7:
        raise ProfileError(
            f"M_{{{a},{b}}}({n}) has {count} boxes; too large to materialize "
            "- use worst_case_boxes() instead"
        )
    # Iterative bottom-up tiling: M(size*b) = tile(M(size), a) ++ [size*b].
    boxes = np.array([base_size], dtype=np.int64)
    size = base_size
    for _ in range(depth):
        size *= b
        boxes = np.concatenate([np.tile(boxes, a), np.array([size], dtype=np.int64)])
    return SquareProfile(boxes)


def worst_case_boxes(
    a: int, b: int, n: int, base_size: int = 1
) -> Iterator[int]:
    """Lazily yield the boxes of ``M_{a,b}(n)`` in order.

    Streams in O(depth) memory; recursion depth equals the tree depth
    ``log_b(n/base_size)``, far below Python's limit.
    """
    depth = _check_params(a, b, n, base_size)

    def rec(level: int) -> Iterator[int]:
        if level == 0:
            yield base_size
            return
        for _ in range(a):
            yield from rec(level - 1)
        yield base_size * b**level

    yield from rec(depth)


def worst_case_runs(
    a: int, b: int, n: int, base_size: int = 1
) -> Iterator[tuple[int, int]]:
    """Lazily yield ``M_{a,b}(n)`` as maximal ``(size, count)`` runs.

    Native run emission for the chunked fast path: the only repeated
    adjacency in the recursive construction is the block of ``a``
    base-size boxes at the bottom of each depth-1 node (adjacent
    recursive copies never merge across their boundary because every
    copy ends with its own big box), so with the depth-1 block emitted
    as one run the flat output *is* the maximal RLE of the profile —
    identical to ``worst_case_profile(...).runs()`` but in O(depth)
    memory and without materializing the ``Θ(a^D)`` boxes.
    """
    depth = _check_params(a, b, n, base_size)

    def rec(level: int) -> Iterator[tuple[int, int]]:
        if level == 0:
            yield base_size, 1
            return
        if level == 1:
            yield base_size, a
            yield base_size * b, 1
            return
        for _ in range(a):
            yield from rec(level - 1)
        yield base_size * b**level, 1

    yield from rec(depth)


def limit_profile_boxes(a: int, b: int, base_size: int = 1) -> Iterator[int]:
    """The infinite *limit profile* ``M_{a,b}``.

    ``M(n)`` is a prefix of ``M(n*b)`` (the recursive construction reuses
    the previous profile as its first copy), so the sequence of profiles
    converges to a well-defined infinite profile; this generator streams
    it: after emitting ``M(n)``, it emits copies ``2..a`` of ``M(n)`` and
    the box ``n*b``, and so on forever.
    """
    _check_limit_params(a, b, base_size)
    yield base_size
    size = base_size
    while True:
        next_size = size * b
        for _ in range(a - 1):
            yield from worst_case_boxes(a, b, size, base_size)
        yield next_size
        size = next_size


def _limit_profile_segments(
    a: int, b: int, base_size: int, max_prefix: int
) -> Iterator[np.ndarray]:
    """The limit profile :func:`limit_profile_boxes` as consecutive int64
    arrays, for consumers that cut it into batches.

    The first segment is ``M(m)`` for the largest ``m = base_size*b^k``
    of at most ``max_prefix`` boxes (from :func:`worst_case_profile`).
    Past it every ``M(m*b)`` is ``a`` copies of ``M(m)`` and the box
    ``m*b``, so the other segments are that array again and single big
    boxes.
    """
    _check_limit_params(a, b, base_size)
    m = base_size
    while a > 1 and worst_case_box_count(a, b, m * b, base_size) <= max_prefix:
        m *= b
    prefix = worst_case_profile(a, b, m, base_size).boxes

    def profile(size: int) -> Iterator[np.ndarray]:
        # M(size) for size >= m
        if size == m:
            yield prefix
            return
        for _ in range(a):
            yield from profile(size // b)
        yield np.array([size], dtype=np.int64)

    yield prefix
    size = m
    while True:
        for _ in range(a - 1):
            yield from profile(size)
        size *= b
        yield np.array([size], dtype=np.int64)


def _check_limit_params(a: int, b: int, base_size: int) -> None:
    if b < 2 or a < 1:
        raise ProfileError(f"need a >= 1, b >= 2; got a={a}, b={b}")
    if base_size < 1:
        raise ProfileError(f"base_size must be >= 1, got {base_size}")


def worst_case_box_count(a: int, b: int, n: int, base_size: int = 1) -> int:
    """Exact number of boxes in ``M_{a,b}(n)``: ``(a**(D+1)-1)/(a-1)``
    with ``D = log_b(n/base_size)`` (or ``D+1`` when ``a == 1``)."""
    depth = _check_params(a, b, n, base_size)
    if a == 1:
        return depth + 1
    return (a ** (depth + 1) - 1) // (a - 1)


def worst_case_total_time(a: int, b: int, n: int, base_size: int = 1) -> int:
    """Exact total duration (sum of box sizes) of ``M_{a,b}(n)``.

    Satisfies ``T(n) = a*T(n/b) + n``; in closed form
    ``T(n) = sum_{k=0..D} a**(D-k) * base*b**k``.
    """
    depth = _check_params(a, b, n, base_size)
    return sum(a ** (depth - k) * base_size * b**k for k in range(depth + 1))


def worst_case_potential(
    a: int, b: int, n: int, base_size: int = 1, exponent: float | None = None
) -> float:
    """Exact total potential ``sum |box|**e`` of ``M_{a,b}(n)``.

    Level ``k`` (from the leaves, ``k=0``) contributes ``a**(D-k)`` boxes
    of size ``base*b**k``.  When ``a == b**e`` exactly, every level
    contributes the same ``n**e`` and the sum is ``(D+1)*n**e`` — the
    ``Θ(log n)`` factor of the worst-case gap.
    """
    depth = _check_params(a, b, n, base_size)
    e = critical_exponent(a, b) if exponent is None else exponent
    return float(
        sum(a ** (depth - k) * float(base_size * b**k) ** e for k in range(depth + 1))
    )


def worst_case_bounded_potential(
    a: int,
    b: int,
    n: int,
    bound: int,
    base_size: int = 1,
    exponent: float | None = None,
) -> float:
    """Exact ``sum min(bound, |box|)**e`` over ``M_{a,b}(n)``'s boxes."""
    depth = _check_params(a, b, n, base_size)
    e = critical_exponent(a, b) if exponent is None else exponent
    total = 0.0
    for k in range(depth + 1):
        size = base_size * b**k
        total += a ** (depth - k) * float(min(size, bound)) ** e
    return total


def order_perturbed_profile(
    a: int,
    b: int,
    n: int,
    base_size: int = 1,
    position_rule: PositionRule | None = None,
    rng: object = None,
) -> SquareProfile:
    """Box-order perturbation of ``M_{a,b}(n)``.

    In the recursive construction, the size-``m`` box of each node is
    placed after copy ``position_rule(m, path)`` (1-indexed) of the ``a``
    recursive instances, instead of always after the last.  When no rule
    is given, positions are chosen independently and uniformly at random
    (the "random" variant of the paper's third smoothing; pass a rule for
    the adversarial variant).  The paper proves the result remains a
    worst-case profile *with probability one*.
    """
    depth = _check_params(a, b, n, base_size)
    gen = as_generator(rng)

    if position_rule is None:
        def position_rule(size: int, path: tuple[int, ...]) -> int:  # noqa: F811
            return int(gen.integers(1, a + 1))

    count = worst_case_box_count(a, b, n, base_size)
    if count > 3 * 10**7:
        raise ProfileError(
            f"order-perturbed M_{{{a},{b}}}({n}) has {count} boxes; too large"
        )
    # 1. One rule call per internal node, in preorder (the order the
    # rule's draws must keep).  Preorder visits each depth's nodes in
    # path order, so positions[d] lists depth d's nodes in that order.
    positions: list[list[int]] = [[] for _ in range(depth)]

    def visit(size: int, path: tuple[int, ...], d: int) -> None:
        pos = position_rule(size, path)
        if not 1 <= pos <= a:
            raise ProfileError(
                f"position rule returned {pos}, must be in [1, {a}]"
            )
        positions[d].append(pos)
        if d + 1 < depth:
            child = size // b
            for i in range(1, a + 1):
                visit(child, path + (i,), d + 1)

    # Depth is small (log_b n) but fan-out is large; recursion depth is
    # bounded by the tree depth so Python's default limit is fine.
    if depth:
        visit(n, (), 0)
    # 2. Assemble bottom-up: the profiles of one depth's nodes are the
    # rows of a matrix; a parent's row is its a children's rows joined,
    # with its own box inserted after copy pos.
    rows = np.full((a**depth, 1), base_size, dtype=np.int64)
    for d in range(depth - 1, -1, -1):
        width = rows.shape[1]
        children = rows.reshape(a**d, a * width)
        after = np.asarray(positions[d], dtype=np.int64) * width
        big = np.arange(a * width + 1) == after[:, None]
        rows = np.empty(big.shape, dtype=np.int64)
        rows[big] = base_size * b ** (depth - d)
        rows[~big] = children.ravel()
    return SquareProfile(rows.ravel())


def matched_worst_case_profile(spec: RegularSpec, n: int) -> SquareProfile:
    """Worst-case profile matched to a spec's *scan placement*.

    The canonical ``M_{a,b}(n)`` assumes trailing scans (the paper's
    w.l.o.g. normal form); an algorithm whose scans run elsewhere simply
    de-synchronizes from it (see the ``ablation`` and ``randomized``
    experiments).  This builder generalizes the construction: each node
    contributes one box per non-empty scan piece, of exactly that piece's
    length, positioned around the recursive copies the way the spec's
    placement positions the pieces.  For END placement it reduces to the
    canonical profile.

    Each box is still exactly consumed by its scan piece, so the profile
    completes the algorithm with minimum per-box progress and total
    potential ``Θ(n^e log n)`` — the gap survives every static placement
    once the adversary is allowed to know it.
    """
    depth = spec.validate_problem_size(n)
    boxes: list[int] = []

    def rec(size: int) -> None:
        if size <= spec.base_size:
            boxes.append(spec.base_size)
            return
        pieces = spec.scan_pieces(size)
        child = size // spec.b
        for i in range(spec.a):
            if pieces[i]:
                boxes.append(pieces[i])
            rec(child)
        if pieces[spec.a]:
            boxes.append(pieces[spec.a])

    rec(n)
    return SquareProfile(np.asarray(boxes, dtype=np.int64))
