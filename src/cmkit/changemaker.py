"""Changemaker vectors and their combinatorics.

A changemaker is a nondecreasing vector of non-negative integers whose
first entry is 0 or 1 and whose every later entry exceeds the sum of the
earlier ones by at most 1.  For nondecreasing input this is equivalent to
the coin property: every amount from 0 up to the coordinate sum is a
subset sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import CapacityError

#: Default rank ceiling for exhaustive enumeration.
ENUMERATION_MAX_RANK = 10


def is_changemaker(sigma) -> bool:
    """Check the defining inequalities; malformed input returns False."""
    try:
        seq = [int(x) for x in sigma]
    except (TypeError, ValueError):
        return False
    if not seq or seq[0] not in (0, 1):
        return False
    total = seq[0]
    for prev, cur in zip(seq, seq[1:]):
        if cur < prev or cur > total + 1:
            return False
        total += cur
    return True


def coordinate_free_check(sigma) -> bool:
    """Subset-sum form of the changemaker condition.

    True iff the pairings against all +-1 vectors cover every integer of
    the right parity in [-|sigma|_1, |sigma|_1], i.e. iff every amount in
    [0, |sigma|_1] is a subset sum.  Order-insensitive by construction.
    """
    try:
        seq = [int(x) for x in sigma]
    except (TypeError, ValueError):
        return False
    if not seq or any(x < 0 for x in seq):
        return False
    total = sum(seq)
    reach = 1
    for x in seq:
        reach |= reach << x
    full = (1 << (total + 1)) - 1
    return reach & full == full


@dataclass(frozen=True)
class ChangemakerVector:
    """A validated changemaker together with its derived quantities.

    p = |<sigma, sigma>|, the sum of squared entries, and one_norm, the sum
    of the entries, are set when sigma is validated; they take no part in
    equality, hash or repr, which read sigma alone.
    """

    sigma: tuple[int, ...]
    p: int = field(init=False, repr=False, compare=False)
    one_norm: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sig = tuple(int(x) for x in self.sigma)
        if not is_changemaker(sig):
            raise ValueError(f"not a changemaker: {list(sig)}")
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "p", sum(x * x for x in sig))
        object.__setattr__(self, "one_norm", sum(sig))

    @property
    def rank(self) -> int:
        """n, for sigma living in -Z^(n+1)."""
        return len(self.sigma) - 1

    def __iter__(self):
        return iter(self.sigma)

    def __len__(self):
        return len(self.sigma)

    def __getitem__(self, i):
        return self.sigma[i]


def as_changemaker(sigma) -> ChangemakerVector:
    if isinstance(sigma, ChangemakerVector):
        return sigma
    return ChangemakerVector(tuple(sigma))


@dataclass(frozen=True)
class CharacteristicVector:
    """All-odd coordinate vector; its level k, set when the coordinates
    are validated and outside equality, hash and repr, satisfies
    sum of squares = (n+1) + 8k."""

    coords: tuple[int, ...]
    level: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coords = tuple(int(x) for x in self.coords)
        if not coords:
            raise ValueError("characteristic vector must be non-empty")
        if any(x % 2 == 0 for x in coords):
            raise ValueError("all coordinates must be odd")
        object.__setattr__(self, "coords", coords)
        # odd squares are 1 mod 8, so the division is exact
        object.__setattr__(self, "level", (sum(x * x for x in coords) - len(coords)) // 8)


def subset_representation(sigma, target: int) -> tuple[int, ...]:
    """Indices A (ascending) with sum(sigma[k] for k in A) == target.

    The greedy choice of _greedy_change, which pays every such target on
    a changemaker (the argument is in its docstring) and makes the output
    deterministic.
    """
    cm = as_changemaker(sigma)
    if not 0 <= target <= cm.one_norm:
        raise ValueError(f"target {target} outside [0, {cm.one_norm}]")
    return _greedy_change(cm.sigma, target)


def _greedy_change(sig: tuple[int, ...], target: int) -> tuple[int, ...]:
    """The indices (ascending) greedy change-making picks to pay target
    from sig, a trusted tuple: from the largest index down, take every
    nonzero entry no larger than what is left.

    On a changemaker, greedy pays every target in [0, |sigma|_1] in full.
    Invariant: before index k is considered, what is left is at most
    S_k = sigma_0 + ... + sigma_k.  It holds at k = n, as the target is at
    most |sigma|_1 = S_n.  If greedy takes sigma_k, what is left drops to
    at most S_{k-1}.  If it skips a zero sigma_k, S_{k-1} = S_k.  If it
    skips any other, what is left is below sigma_k <= S_{k-1} + 1 (the
    changemaker inequality), so again at most S_{k-1}.  After index 0 it
    is at most the empty sum, 0.
    """
    rem = target
    picked = []
    for k in range(len(sig) - 1, -1, -1):
        if 0 < sig[k] <= rem:
            picked.append(k)
            rem -= sig[k]
    return tuple(reversed(picked))


def iter_changemakers(rank: int) -> Iterator[tuple[int, ...]]:
    """Changemakers with sigma_0 = 1 in -Z^(rank+1), lexicographic order."""
    return (sig for sig, _, _ in iter_changemakers_with_sums(rank))


def extend_signed_sums(low: int, level1: int, v: int) -> tuple[int, int]:
    """The signed-sum bitsets of sigma + (v,) from those of sigma.

    low holds the sums sum(c_j sigma_j) over c in {+-1}^len(sigma), and
    level1 those over the c with every c_j = +-1 but at most one
    c_j = +-3: the characteristic vectors of level <= 1, since
    sum(c_j^2) = len(sigma) + 8k.  A sum x is stored at bit (x + 3T)/2,
    T = |sigma|_1: |x| <= T + 2 max(sigma) <= 3T, and x = T mod 2 as
    every c_j is odd, so the bit is an integer in [0, 3T].

    Appending v raises the offset 3T by 3v and adds cv to each sum, so a
    sum at bit b moves to bit b + (3v + cv)/2.  For c = +-1 that is b + v
    or b + 2v, from low into low and from level1 into level1.  For
    c = +-3 it is b or b + 3v, from low into level1 only, as the new
    coordinate is then the one +-3.  The empty vector has the one sum 0,
    at bit 0, so folding this step from (1, 1) over sigma gives its pair.
    """
    return low << v | low << 2 * v, level1 << v | level1 << 2 * v | low | low << 3 * v


def iter_changemakers_with_sums(
    rank: int,
    *,
    prefix: tuple[int, ...] = (1,),
    stop_at: int | None = None,
    signed_sums: bool = False,
) -> Iterator[tuple]:
    """(sigma, sum, sum of squares) for the changemakers with sigma_0 = 1
    in -Z^(rank+1), in lexicographic order: the one enumeration walk.

    The running sums come for free from the enumeration tree; the prefix
    walks of the verification sweeps read the prefix total off them for
    count_completions.  With signed_sums, each item also carries the two
    bitsets (low, level1) of extend_signed_sums, one step per tree node,
    for the sweeps' deep checks.

    prefix restricts the walk to the completions of a sigma_0 = 1
    changemaker of length at most rank + 1.  With stop_at, a vector is cut
    short at its first entry >= stop_at after the prefix: the walk yields
    that shorter prefix, with its sums, in place of the block of all its
    completions, which it does not visit.  Order stays lexicographic.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank > ENUMERATION_MAX_RANK:
        raise CapacityError(f"enumeration capped at rank {ENUMERATION_MAX_RANK}, got {rank}")
    prefix = tuple(prefix)
    if len(prefix) > rank + 1 or prefix[:1] != (1,) or not is_changemaker(prefix):
        raise ValueError(f"not a sigma_0 = 1 changemaker prefix of rank {rank}: {prefix}")
    last = rank + 1
    sig = list(prefix) + [1] * (last - len(prefix))

    # sums is () without signed_sums, so `sums and ...` carries no bitsets
    def extend(i: int, total: int, sumsq: int, sums: tuple):
        if i == last:
            yield (tuple(sig), total, sumsq, *sums)
            return
        lo = sig[i - 1]
        hi = total + 1
        top = hi if stop_at is None else min(hi, stop_at - 1)
        for v in range(lo, hi + 1):
            child = sums and extend_signed_sums(*sums, v)
            if v <= top:
                sig[i] = v
                yield from extend(i + 1, total + v, sumsq + v * v, child)
            else:
                yield ((*sig[:i], v), total + v, sumsq + v * v, *child)

    sums: tuple = ()
    if signed_sums:
        sums = (1, 1)
        for v in prefix:
            sums = extend_signed_sums(*sums, v)
    yield from extend(len(prefix), sum(prefix), sum(v * v for v in prefix), sums)


def count_completions(left: int, last: int, total: int, memo: dict) -> int:
    """The number of ways to append left entries to a changemaker whose
    last entry is last and whose entries sum to total, i.e. the size of the
    block that iter_changemakers_with_sums(..., stop_at=...) stands a
    prefix in for.

    Each appended entry v runs over last..total + 1, exactly the range the
    enumeration walks, so the count is the number of leaves it would visit.
    memo keeps the sub-counts; give each sweep a fresh dict, so that it
    starts cold and the memo is freed when the sweep ends.
    """
    if not left:
        return 1
    key = (left, last, total)
    n = memo.get(key)
    if n is None:
        n = memo[key] = sum(
            count_completions(left - 1, v, total + v, memo) for v in range(last, total + 2)
        )
    return n
