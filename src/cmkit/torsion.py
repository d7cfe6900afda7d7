"""Torsion coefficient staircases, computed from two independent sides.

Knot side: a symmetric polynomial in lens-space normal form is encoded by
its strictly decreasing positive exponent sequence n_1 > ... > n_r, with
coefficient (-1)^(j-1) at degree n_j and (-1)^r at degree 0.  The torsion
coefficients are the weighted tail sums t_i = sum_{j>=1} j * a_{i+j}.

Lattice side: for a changemaker sigma with |<sigma, sigma>| = p, t_i is
the least level k such that some all-odd vector c with sum(c_j^2) =
(n+1) + 8k satisfies sum(c_j sigma_j) = p - 2i (mod 2p).  The staircase
comes from a min-cost dynamic program whose coordinate bound is grown
until it provably covers every optimal solution, and torsion_at_most
decides t_i <= 1 on one signed-sum bitset.  The dynamic program runs on
the integer sums themselves while they fit in a window shorter than the
modulus 2p (changemaker prefixes are small), folds that window once onto
the residues, and finishes the remaining coordinates there; the fold
commutes with every later update, so the result is the residue-only
table.  It is symmetric under r -> -r, so it runs only the positive
shifts of each coordinate and closes it with one mirror step.  Costs are
int32 with the sentinel 2^30; a staircase whose cost cap n+1 + 8p, or
the square of the largest coordinate bound it could need, does not fit
below the sentinel, or whose p or first-pass work is past its measured
capacity, is refused with CapacityError before any table is built.  Both
are exact; the test suite plays them against an ascending scan over
odd-square multisets, its reference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .changemaker import (
    ChangemakerVector,
    CharacteristicVector,
    as_changemaker,
    subset_representation,
)
from .errors import CapacityError

_INF = 1 << 30
#: Largest p a staircase is built for.  Measured on a 2-CPU machine:
#: (1, 2, 4, ..., 512, 908, 908), p = 1,998,453, takes about 20 s and
#: 110 MB; (1, 2, 4, ..., 2048), p = 5,592,405, took about 90 s and 250 MB.
#: This cap bounds the memory; _STAIRCASE_MAX_WORK bounds the time.
#: Below it the int32 limit checked next to it is out of reach (n+1 <= p,
#: so the cost cap n+1 + 8p is at most 9p < 2^30).
STAIRCASE_MAX_P = 2_000_000
#: Largest first-pass DP work (cell updates, see _staircase_cached) a
#: staircase is built for.  Same machine, start-up included, 0.9-1.5 ns a
#: cell: (1, 2, 4, ..., 1024) 7.5e9 cells, 7.8 s; (1, 2, 4, ..., 512, 908,
#: 908) 1.6e10, 20 s; (1, 1, 2, 4, ..., 256, 300^12) 2.4e10, 27 s; and
#: (1, 1, 2, 4, ..., 256, 300^21) 8.6e10, 129 s, which this cap refuses.
_STAIRCASE_MAX_WORK = 30_000_000_000


@dataclass(frozen=True)
class AlexanderExponents:
    """Strictly decreasing positive exponents; empty means the unknot.

    With lens_space=True the second exponent must sit one below the
    first (the constraint satisfied by knots with lens space surgeries);
    without the flag the type carries arbitrary test polynomials.
    """

    exponents: tuple[int, ...]
    lens_space: bool = False

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(x) for x in self.exponents))
        exps = self.exponents
        if any(x <= 0 for x in exps):
            raise ValueError("exponents must be positive")
        if any(a <= b for a, b in zip(exps, exps[1:])):
            raise ValueError("exponents must be strictly decreasing")
        if self.lens_space and len(exps) >= 2 and exps[1] != exps[0] - 1:
            raise ValueError("second exponent must be genus - 1")

    @property
    def genus(self) -> int:
        return self.exponents[0] if self.exponents else 0

    @property
    def r(self) -> int:
        return len(self.exponents)


def _as_exponents(ae) -> AlexanderExponents:
    if isinstance(ae, AlexanderExponents):
        return ae
    return AlexanderExponents(tuple(ae))


def coefficients(ae) -> dict[int, int]:
    """Symmetric coefficient map: (-1)^(j-1) at +-n_j and (-1)^r at 0."""
    ae = _as_exponents(ae)
    coeff = {0: (-1) ** ae.r}
    for j, n in enumerate(ae.exponents):
        coeff[n] = coeff[-n] = (-1) ** j
    return coeff


def torus_knot_exponents(g: int) -> AlexanderExponents:
    """(g, g-1, ..., 1), the exponent ladder of the (2, 2g+1) torus knot."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    return AlexanderExponents(tuple(range(g, 0, -1)), lens_space=True)


def torsion_from_alexander(ae, i: int) -> int:
    """t_i = sum_{j>=1} j * a_{i+j}; zero once i reaches the genus."""
    ae = _as_exponents(ae)
    if i < 0:
        raise ValueError("index must be non-negative")
    coeff = coefficients(ae)
    return sum(j * coeff.get(i + j, 0) for j in range(1, ae.genus - i + 1))


class TorsionSequence:
    """Canonical staircase t_0 >= t_1 >= ... >= t_g = 0 with unit steps.

    Trailing zeros beyond the first are trimmed, so values[-1] == 0 and,
    for g >= 1, values[-2] >= 1.  Entries past the end are implicitly 0.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        vals = [int(v) for v in values]
        if not vals:
            raise ValueError("torsion sequence must be non-empty")
        if vals[-1] != 0:
            raise ValueError("sequence must terminate at 0")
        if any(v < 0 for v in vals):
            raise ValueError("torsion coefficients are non-negative")
        if any(a - b not in (0, 1) for a, b in zip(vals, vals[1:])):
            raise ValueError("consecutive differences must be 0 or 1")
        while len(vals) >= 2 and vals[-2] == 0:
            vals.pop()
        self.values = tuple(vals)

    @property
    def genus(self) -> int:
        return len(self.values) - 1

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __eq__(self, other):
        if isinstance(other, TorsionSequence):
            return self.values == other.values
        return NotImplemented

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"TorsionSequence({list(self.values)})"


def exponents_from_torsion(ts) -> AlexanderExponents:
    """Invert the staircase.

    Each unit step t_i - t_{i+1} = sum_{d>i} a_d is the parity of the
    number of exponents above i.  That count moves by at most one per
    index and is 0 at the genus, so exponent i + 1 exists exactly where
    the step changes: the exponents are every i + 1 with
    steps[i] != steps[i + 1], taking steps[g] = 0, which includes g
    itself, as steps[g - 1] = t_{g-1} = 1.
    """
    seq = ts if isinstance(ts, TorsionSequence) else TorsionSequence(ts)
    g = seq.genus
    if g == 0:
        return AlexanderExponents(())
    vals = seq.values
    steps = [vals[i] - vals[i + 1] for i in range(g)] + [0]
    result = AlexanderExponents(
        tuple(i + 1 for i in range(g - 1, -1, -1) if steps[i] != steps[i + 1])
    )
    # Round trip in one pass: t_i - t_{i+1} = sum_{d>i} a_d, so the
    # staircase is rebuilt from t_g = 0 with a running suffix sum.  For a
    # valid TorsionSequence this holds by algebra: the exponents exceeding i
    # are odd in number exactly when steps[i] = 1, and sum_{d>i} a_d is 1
    # or 0 with that parity.  The check stays as a cheap guard against
    # edits to the inversion; the independent evidence is the tests
    # against torsion_from_alexander.
    coeff = coefficients(result)
    rebuilt = [0] * (g + 1)
    tail = 0
    for i in range(g - 1, -1, -1):
        tail += coeff.get(i + 1, 0)
        rebuilt[i] = rebuilt[i + 1] + tail
    if tuple(rebuilt) != vals:
        raise AssertionError("staircase inversion failed to round-trip")
    return result


def genus_from_changemaker(sigma) -> int:
    """g = (p - |sigma|_1) / 2, a non-negative integer for changemakers."""
    cm = as_changemaker(sigma)
    if cm.sigma[0] != 1:
        raise ValueError("genus formula needs sigma_0 = 1")
    diff = cm.p - cm.one_norm
    if diff % 2:
        raise ArithmeticError("p - |sigma|_1 must be even; invariant violated")
    return diff // 2


def _validate_index(cm, i: int) -> None:
    if cm.sigma[0] != 1:
        raise ValueError("torsion formula needs sigma_0 = 1")
    if not 0 <= i <= cm.p // 2:
        raise ValueError(f"index {i} outside [0, {cm.p // 2}]")


# ---------------------------------------------------------------------------
# Fast exact paths: one signed-sum bitset for levels 0 and 1, and a certified
# min-cost dynamic program for whole staircases.


def torsion_at_most(sigma, i: int, level: int) -> bool:
    """Exact check that the minimum characteristic level at index i is
    <= level, for level 0 or 1; other levels raise ValueError.

    One bitset B holds the +-1 sums over sigma (bit k: a subset of
    sigma sums to k, the signed sum |sigma|_1 - 2k).  A level-1 vector has
    one coordinate 3e (e = +-1) and the rest +-1, since sum(c^2) =
    (n+1) + 8 forces exactly one c^2 = 9; its sum is b + 2e*sigma_j with
    b in B the sum that has sign +e at j.  Conversely, for any b in B and
    any j, e, b + 2e*sigma_j is a level-1 sum when b has sign +e at j, and
    a level-0 sum (sign -e flipped to +e) when b has sign -e at j.  So the
    level <= 1 sums are exactly B + {0, +-2 sigma_j}, and level 0 is B:
    the target p - 2i is probed as target - d in B (mod 2p) for each
    offset d.
    """
    cm = as_changemaker(sigma)
    _validate_index(cm, i)
    if level not in (0, 1):
        raise ValueError(f"torsion_at_most decides levels 0 and 1, got {level}")
    sig, total, modulus = cm.sigma, cm.one_norm, 2 * cm.p
    bits = 1
    for v in sig:
        bits |= bits << v
    target = cm.p - 2 * i
    offsets = [0]
    if level == 1:
        for v in sorted(set(sig), reverse=True):  # the largest offsets reach furthest
            offsets += (2 * v, -2 * v)
    for d in offsets:
        r = (target - d) % modulus
        # |sigma|_1 <= p, so r and r - 2p are the only representatives in
        # [-total, total]; total - w is even, as w = p - 2i - d (mod 2p),
        # d is even and p - |sigma|_1 = 2g.
        for w in (r, r - modulus):
            if -total <= w <= total and bits >> (total - w) // 2 & 1:
                return True
    return False


def _min_costs(sig: tuple[int, ...], modulus: int, bound: int) -> np.ndarray:
    """dp[r] = min sum of squares over odd vectors with |entries| <= bound
    and sum(c_j sigma_j) = r (mod modulus); unreachable entries hold _INF.

    Window phase: while it is shorter than the modulus, the DP runs on the
    integer sums x themselves.  After coordinates 0..j every reachable
    sum has |x| <= w = top * (sigma_0 + ... + sigma_j), top the largest
    odd entry allowed, so dp lives on the window [-w, w] and a shift is a
    plain slice with no wrap-around.  Fold: before the first coordinate
    that would grow the window past the modulus (or after the last), the
    window is placed onto the residues x mod modulus.  Taking the minimum
    over a residue class commutes with the shift-by-a*s-plus-a^2 update,
    so folding at any point gives exactly the residue-only DP; as the
    window is at most the modulus long, each residue receives at most one
    sum and the fold is a copy.  Cyclic phase: the remaining coordinates
    run on the residues with wrap-around shifts.

    Symmetry halves the shifts in both phases: dp starts symmetric under
    x -> -x (only dp[0] = 0 is finite), and each coordinate offers the
    shifts +a*s and -a*s at the same cost a^2, so by induction every dp is
    symmetric, on the window as on the residues.  The -a*s candidate at x
    is then dp[x + a*s] = dp[-x - a*s], the +a*s candidate at -x; so the
    coordinate's result is the minimum of the +a*s candidates and their
    mirror image.

    Costs are int32.  Every stored value is <= _INF (each coordinate
    starts from _INF and only takes minima), and every added cost is
    <= bound^2, so no sum exceeds _INF + bound^2, which fits while
    bound^2 < _INF; _staircase_cached checks that before calling.  A true
    minimum >= _INF reads as unreachable, so callers must treat costs at
    or above _INF as beyond their cap, which _staircase_cached does by
    requiring its cost cap to stay below _INF.
    """
    top = bound if bound % 2 else bound - 1
    window = np.zeros(1, dtype=np.int32)  # window[w + x] for |x| <= w
    w = split = 0
    while split < len(sig) and 2 * (w + top * sig[split]) < modulus:
        s = sig[split]
        grown = w + top * s
        best = np.full(2 * grown + 1, _INF, dtype=np.int32)
        buf = np.empty_like(window)
        for a in range(1, bound + 1, 2):
            lo = grown - w + a * s  # where x = -w lands after the shift
            np.add(window, a * a, out=buf)
            np.minimum(best[lo : lo + buf.size], buf, out=best[lo : lo + buf.size])
        np.minimum(best, best[::-1], out=best)
        window, w, split = best, grown, split + 1

    dp = np.full(modulus, _INF, dtype=np.int32)
    dp[: w + 1] = window[w:]
    dp[modulus - w :] = window[:w]
    del window
    best = np.empty_like(dp)
    buf = np.empty_like(dp)
    for s in sig[split:]:
        best.fill(_INF)
        for a in range(1, bound + 1, 2):
            cost = a * a
            k = a * s % modulus
            # buf = dp rotated right by k, plus cost
            np.add(dp[: modulus - k], cost, out=buf[k:])
            np.add(dp[modulus - k :], cost, out=buf[:k])
            np.minimum(best, buf, out=best)
        buf[1:] = best[:0:-1]  # buf[r] = best[-r mod modulus] for r >= 1
        np.minimum(best[1:], buf[1:], out=best[1:])
        dp, best = best, dp
    return dp


def _start_bound(g: int, n1: int) -> int:
    """First coordinate bound of the certified loop: isqrt(4g + n+1), made
    odd and at least 3.  The loop grows the bound as far as the costs it
    finds require, so any start gives the same staircase; the start only
    decides how often the loop recomputes."""
    return max(3, math.isqrt(4 * g + n1)) | 1


@lru_cache(maxsize=512)
def _staircase_cached(cm: ChangemakerVector) -> tuple[int, ...]:
    sig, p, g = cm.sigma, cm.p, genus_from_changemaker(cm)
    n1 = len(sig)
    modulus = 2 * p
    cost_cap = n1 + 8 * p  # level safety cap: k <= p
    # Every cost <= cost_cap comes from entries <= isqrt(cost_cap - n1 + 1),
    # so no bound past this one is ever needed; the loop never exceeds it.
    largest_bound = (math.isqrt(cost_cap) + 2) | 1
    if cost_cap >= _INF or largest_bound * largest_bound >= _INF:
        raise CapacityError(
            f"p = {p} is past the int32 staircase limit: the cost cap {cost_cap} "
            f"and the squared bound {largest_bound ** 2} must stay below {_INF}"
        )
    if p > STAIRCASE_MAX_P:
        raise CapacityError(f"p = {p} is past the staircase capacity p <= {STAIRCASE_MAX_P}")
    bound = _start_bound(g, n1)
    # The cells the first _min_costs pass updates, once per odd a <= bound:
    # after coordinate j its table holds 2 * bound * (sigma_0 + ... +
    # sigma_j) + 1 integer sums, until that would pass the modulus and it
    # holds the modulus residues.
    work = (bound + 1) // 2 * sum(min(2 * bound * s + 1, modulus) for s in accumulate(sig))
    if work > _STAIRCASE_MAX_WORK:
        raise CapacityError(
            f"the staircase of p = {p} at rank {n1 - 1} needs about {work} DP cell "
            f"updates, past the staircase work capacity {_STAIRCASE_MAX_WORK}"
        )
    needed = (p - 2 * np.arange(g + 1)) % modulus
    while True:
        costs = _min_costs(sig, modulus, bound)
        picked = costs[needed]
        if (picked < _INF).all():
            worst = int(picked.max())
            # In any optimal vector every other coordinate contributes at
            # least 1, so entries are bounded by sqrt(cost - (n+1) + 1);
            # once `bound` covers that, the dp values are provably minimal.
            # At largest_bound they are minimal up to cost_cap, and a worst
            # cost past it is a level past p, refused below.
            required = min(math.isqrt(worst - n1 + 1), largest_bound)
            if bound >= required:
                if ((picked - n1) % 8).any():
                    raise AssertionError("characteristic cost parity broken")
                levels = (picked - n1) // 8
                if (worst - n1) // 8 > p:
                    raise CapacityError("torsion level exceeded the safety cap p")
                return tuple(levels.tolist())
            bound = required | 1
        else:
            if bound * bound > cost_cap:
                raise CapacityError(
                    "no characteristic vector within the level cap"
                )
            bound = (min(2 * bound + 1, math.isqrt(cost_cap) + 2)) | 1


def torsion_staircase(sigma) -> tuple[int, ...]:
    """(t_0, ..., t_g) computed on the lattice side in one certified pass."""
    cm = as_changemaker(sigma)
    if cm.sigma[0] != 1:
        raise ValueError("staircase needs sigma_0 = 1")
    return _staircase_cached(cm)


def torsion_from_changemaker(sigma, i: int) -> int:
    """Minimum characteristic level meeting the congruence at index i."""
    cm = as_changemaker(sigma)
    _validate_index(cm, i)
    g = genus_from_changemaker(cm)
    if i > g:
        # beyond the genus the subset-sum property supplies a level-0 vector
        return 0
    return _staircase_cached(cm)[i]


def lemma4_witness(sigma) -> CharacteristicVector:
    """Level-1 vector whose pairing against sigma lands exactly at 2g - 6.

    Writes -1 on the greedy subset paying sigma_t - 3, +3 at t (the first
    entry >= 3), and +1 elsewhere; raises ValueError when sigma has no
    entry >= 3.  The greedy subset avoids t: greedy never takes an entry
    larger than what is left to pay, and sigma_j >= sigma_t > sigma_t - 3
    for every j >= t.  Expanding the pairing gives the identity
    p + <c, sigma> = p - |sigma|_1 - 6 = 2g - 6.  The level and the
    identity are not re-checked here; the lemma4 sweep's instance record
    decides both.
    """
    cm = as_changemaker(sigma)
    sig = cm.sigma
    t = next((idx for idx, v in enumerate(sig) if v >= 3), None)
    if t is None:
        raise ValueError("witness inapplicable: no entry >= 3")
    chosen = set(subset_representation(cm, sig[t] - 3))
    coords = [-1 if j in chosen else 1 for j in range(len(sig))]
    coords[t] = 3
    return CharacteristicVector(tuple(coords))
