"""Torsion coefficient staircases, computed from two independent sides.

Knot side: a symmetric polynomial in lens-space normal form is encoded by
its strictly decreasing positive exponent sequence n_1 > ... > n_r, with
coefficient (-1)^(j-1) at degree n_j and (-1)^r at degree 0.  The torsion
coefficients are the weighted tail sums t_i = sum_{j>=1} j * a_{i+j}.
exponents_from_torsion inverts a staircase in one pass, reading the
exponents off where its unit steps change; that the inverse rebuilds the
staircase is a fact of algebra, pinned by the tests, not re-checked here.

Lattice side: for a changemaker sigma with |<sigma, sigma>| = p, t_i is
the least level k such that some all-odd vector c with sum(c_j^2) =
(n+1) + 8k satisfies sum(c_j sigma_j) = p - 2i (mod 2p).  With sigma_0 = 1
and genus g that level is a covering knapsack, t_i = min sum_j
m_j(m_j+1)/2 over m_j >= 0 with sum_j m_j sigma_j >= g - i (the argument
is at _min_costs), so a whole staircase is one int64 table over
v = g - i in [0, g].  torsion_at_most decides t_i <= 1 on one signed-sum
bitset, without the knapsack.  A staircase whose p or knapsack work is
past its measured capacity is refused with CapacityError before any table
is built.  The test suite plays both against two oracles built on the
characteristic-vector definition itself: an ascending scan over
odd-square multisets and a DP over the residues mod 2p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise

import numpy as np

from .changemaker import (
    ChangemakerVector,
    CharacteristicVector,
    as_changemaker,
    _greedy_change,
)
from .errors import CapacityError

#: Largest p a staircase is built for; it bounds the memory and the output,
#: and _STAIRCASE_MAX_WORK bounds the time.  Measured end to end with the
#: `cmkit torsion` command on a 2-CPU Intel Xeon machine:
#: (1, 2, 4, ..., 512, 908, 908), p = 1,998,453, 4.6 s and 87 MB; and
#: (1, 2, 4, ..., 2048), p = 5,592,405, 21 s, 192 MB and 18 MB of JSON.
STAIRCASE_MAX_P = 6_000_000
#: Largest knapsack work (the cell bound in _staircase_cached) a staircase
#: is built for.  Same machine, the table alone, 0.2-1.2 ns per bound cell:
#: (1, 2, 4, ..., 1024) 2.1e9, 2.4 s; (1, 2, 4, ..., 512, 908, 908) 5.1e9,
#: 4.3 s; (1, 1, 2, 4, ..., 256, 300^21), rank 30, 2.8e10, 13 s;
#: (1, 1, 2, 4, ..., 128, 200^49), rank 57, 6.2e10, 22 s;
#: (1, 1, 2, 4, ..., 512, 512^15), rank 25, p = 4,281,686, 7.0e10, 28 s;
#: and (1, 1, 2, 4, ..., 64, 100^199), rank 206, 2.6e11, 61 s, which this
#: cap refuses.
_STAIRCASE_MAX_WORK = 70_000_000_000


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
        # strictly decreasing down to a positive last exponent: all positive
        if exps and exps[-1] <= 0:
            raise ValueError("exponents must be positive")
        if any(a <= b for a, b in pairwise(exps)):
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
        # steps of 0 or 1 up from t_g = 0 also make every entry >= 0
        if not {a - b for a, b in pairwise(vals)} <= {0, 1}:
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
    index and is 0 at the genus, so exponent j exists exactly where the
    step changes: the exponents are every j in g..1 with
    steps[j - 1] != steps[j], taking steps[g] = 0, which includes g
    itself, as steps[g - 1] = t_{g-1} = 1.  Rebuilding the staircase
    from them gives it back by the same algebra; the tests check that
    against torsion_from_alexander.
    """
    seq = ts if isinstance(ts, TorsionSequence) else TorsionSequence(ts)
    steps = [a - b for a, b in pairwise(seq.values)] + [0]
    g = seq.genus
    return AlexanderExponents(tuple(j for j in range(g, 0, -1) if steps[j - 1] != steps[j]))


def genus_from_changemaker(sigma) -> int:
    """g = (p - |sigma|_1) / 2, a non-negative integer for changemakers."""
    cm = as_changemaker(sigma)
    if cm.sigma[0] != 1:
        raise ValueError("genus formula needs sigma_0 = 1")
    # p - |sigma|_1 = sum v(v - 1), a sum of even terms
    return (cm.p - cm.one_norm) // 2


def _validate_index(cm, i: int) -> int:
    """The genus of cm (genus_from_changemaker decides sigma_0 = 1), after
    checking 0 <= i <= p // 2."""
    g = genus_from_changemaker(cm)
    if not 0 <= i <= cm.p // 2:
        raise ValueError(f"index {i} outside [0, {cm.p // 2}]")
    return g


# ---------------------------------------------------------------------------
# Fast exact paths: one signed-sum bitset for levels 0 and 1, and a covering
# knapsack for whole staircases.


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


def _min_costs(sig: tuple[int, ...], g: int) -> np.ndarray:
    """table[v] = min sum_j T(m_j) over integers m_j >= 0 with
    sum_j m_j sig_j >= v, for 0 <= v <= g, where T(m) = m(m+1)/2.  For a
    changemaker with sigma_0 = 1 and genus g, table[g - i] = t_i.

    Why.  An all-odd c has c_j = e_j(2m_j + 1) with e_j = +-1, and
    sum c_j^2 = (n+1) + 8 sum_j T(m_j), so its level is sum_j T(m_j).  Put
    M = sum_j m_j sigma_j and s = |sigma|_1, so p = s + 2g.  Lower bound:
    every representative of p - 2i mod 2p has absolute value at least
    p - 2i, as 0 <= p - 2i <= p, and |sum c_j sigma_j| <= s + 2M; so
    M >= g - i.  Upper bound: take a cheapest m with M >= v = g - i and
    let e = M - v.  Then e < sigma_j wherever m_j >= 1, or lowering m_j by
    one would be cheaper and still cover v.  Let a be the first index of
    the least value on the support.  The entries before a are smaller, so
    off the support, and as a changemaker prefix their subset sums fill
    [0, sigma_0 + ... + sigma_{a-1}], which contains [0, sigma_a - 1] and
    so e.  Sign -1 on such a subset and +1 elsewhere gives the sum
    s + 2M - 2e = p - 2i.  (An empty support has v = e = 0.)

    The table.  The largest entry w_0 alone gives table[v] = T(ceil(v/w_0)).
    Each further entry w, the k-th, takes table'[v] = min over m >= 0 of
    T(m) + table[max(0, v - m*w)]; two facts bound the loop over m.
    First, the clamp never wins: for v <= m*w the candidate is T(m), and
    table[v] is already at most the seed's T(ceil(v/w_0)) <= T(m), as
    w <= w_0.  So step m updates only v >= m*w and runs only while
    m*w <= g.  Second, an exchange: moving one unit from w to an entry
    w' >= w still covers v and changes the cost by m' + 1 - m, so every
    cheapest cover has m <= m' + 1 for each of the k entries before w and
    costs at least c(m) = T(m) + k*T(m - 1), which grows with m.  Every
    candidate is nondecreasing in v, so table' is, and its largest entry
    is its last; once c(m) exceeds that entry as updated so far (at least
    its final value), every cheapest cover has fewer copies of w, and the
    loop stops.  All entries stay at most T(ceil(g/w_0)), so int64 cannot
    overflow for any p that fits in memory.
    """
    first, *rest = sorted(sig, reverse=True)
    copies = -(-np.arange(g + 1, dtype=np.int64) // first)
    table = copies * (copies + 1) // 2
    buf = np.empty_like(table)
    for k, w in enumerate(rest, 1):
        prev = table.copy()
        m = 1
        while m * w <= g and m * (m + 1) // 2 + k * (m * (m - 1) // 2) <= table[-1]:
            n = g + 1 - m * w
            np.add(prev[:n], m * (m + 1) // 2, out=buf[:n])
            np.minimum(table[m * w :], buf[:n], out=table[m * w :])
            m += 1
    return table


@lru_cache(maxsize=512)
def _staircase_cached(cm: ChangemakerVector, g: int) -> tuple[int, ...]:
    """The staircase of cm, whose genus g its caller has decided."""
    sig, p = cm.sigma, cm.p
    if p > STAIRCASE_MAX_P:
        raise CapacityError(f"p = {p} is past the staircase capacity p <= {STAIRCASE_MAX_P}")
    # _min_costs' own loop bound: the k-th entry after the largest runs
    # steps m with (k+1) T(m-1) <= c(m) <= T(top), top = ceil(g / sigma_n),
    # that is at most 1 + isqrt(top (top+1) / (k+1)) steps of <= g cells.
    top = -(-g // sig[-1])
    work = g * sum(1 + math.isqrt(top * (top + 1) // (k + 1)) for k in range(1, len(sig)))
    if work > _STAIRCASE_MAX_WORK:
        raise CapacityError(
            f"the staircase of p = {p} at rank {len(sig) - 1} needs up to {work} knapsack "
            f"cell updates, past the staircase work capacity {_STAIRCASE_MAX_WORK}"
        )
    return tuple(_min_costs(sig, g)[::-1].tolist())


def torsion_staircase(sigma) -> tuple[int, ...]:
    """(t_0, ..., t_g) computed on the lattice side in one certified pass;
    sigma_0 = 1 is decided once, by genus_from_changemaker."""
    cm = as_changemaker(sigma)
    return _staircase_cached(cm, genus_from_changemaker(cm))


def torsion_from_changemaker(sigma, i: int) -> int:
    """Minimum characteristic level meeting the congruence at index i."""
    cm = as_changemaker(sigma)
    g = _validate_index(cm, i)
    if i > g:
        # beyond the genus the subset-sum property supplies a level-0 vector
        return 0
    return _staircase_cached(cm, g)[i]


def lemma4_witness(sigma) -> CharacteristicVector:
    """Level-1 vector whose pairing against sigma lands exactly at 2g - 6.

    Writes -1 on the greedy subset paying sigma_t - 3, +3 at t (the first
    entry >= 3), and +1 elsewhere; raises ValueError when sigma has no
    entry >= 3.  Why it pays is at _witness_coords.  The level and the
    identity are not re-checked here; the lemma4 sweep's instance record
    decides both.
    """
    return CharacteristicVector(_witness_coords(as_changemaker(sigma).sigma))


def _witness_coords(sig: tuple[int, ...]) -> tuple[int, ...]:
    """The coordinates of lemma4_witness for sig, a trusted tuple.

    The greedy subset avoids t: greedy never takes an entry larger than
    what is left to pay, and sigma_j >= sigma_t > sigma_t - 3 for every
    j >= t.  So it is greedy on the changemaker prefix before t, whose sum
    is at least sigma_t - 1, and it pays sigma_t - 3 in full (the argument
    is at changemaker._greedy_change).  Expanding the pairing gives the
    identity p + <c, sigma> = p - |sigma|_1 - 6 = 2g - 6.
    """
    for t, v in enumerate(sig):
        if v >= 3:
            break
    else:
        raise ValueError("witness inapplicable: no entry >= 3")
    coords = [1] * len(sig)
    for j in _greedy_change(sig, v - 3):
        coords[j] = -1
    coords[t] = 3
    return tuple(coords)
