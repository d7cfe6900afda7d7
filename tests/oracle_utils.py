"""Independent oracles shared by the test suite.

These deliberately avoid the library's own code paths: exact polynomial
arithmetic for torus-knot Alexander coefficients, itertools-based signed
sums (and the level <= 1 sum that lemma4's prefix probe looks for), a
naive recursive determinant and the leading principal minors built
on it, the staircase rebuilt from an exponent ladder by a running suffix
sum over the coefficient map (the round trip of the library's inversion;
the map itself is checked against the polynomial arithmetic), a
brute-force covering knapsack, a residue-only odd-vector cost DP, an
ascending characteristic-level scan over odd-square multisets and a
short-vector descent over Fractions.  The lemma4 and theorem1 sweeps'
object-level route (validated ChangemakerVector, lemma4_witness,
inner_product and torsion_at_most) is kept here as the reference for the
sweeps' records, which read the enumeration walk's carried bitsets.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from cmkit import (
    ChangemakerVector,
    coefficients,
    genus_from_changemaker,
    inner_product,
    lemma4_witness,
    torsion_at_most,
)
from cmkit.changemaker import extend_signed_sums


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def poly_divexact(num, den):
    """Exact division of integer coefficient lists; asserts no remainder."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        lead = num[k + len(den) - 1]
        assert lead % den[-1] == 0
        c = lead // den[-1]
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    assert all(v == 0 for v in num), "non-exact polynomial division"
    return out


def _t_power_minus_one(k):
    return [-1] + [0] * (k - 1) + [1]


def torus_alexander_coefficients(g):
    """Symmetric coefficients of the (2, 2g+1) torus knot polynomial,
    from (T^(2s) - 1)(T - 1) / ((T^2 - 1)(T^s - 1)) with s = 2g + 1."""
    s = 2 * g + 1
    num = poly_mul(_t_power_minus_one(2 * s), _t_power_minus_one(1))
    den = poly_mul(_t_power_minus_one(2), _t_power_minus_one(s))
    quot = poly_divexact(num, den)
    assert len(quot) - 1 == 2 * g
    return {deg - g: c for deg, c in enumerate(quot) if c}


def staircase_from_exponents(exponents):
    """(t_0, ..., t_g) rebuilt from a strictly decreasing exponent tuple:
    t_i - t_{i+1} = sum_{d>i} a_d, so a running suffix sum of the
    coefficients from t_g = 0 down gives the staircase."""
    coeff = coefficients(exponents)
    g = exponents[0] if exponents else 0
    stair = [0] * (g + 1)
    tail = 0
    for i in range(g - 1, -1, -1):
        tail += coeff.get(i + 1, 0)
        stair[i] = stair[i + 1] + tail
    return tuple(stair)


def signed_sums(seq):
    """All values of sum(+-x) over the sequence, by brute force."""
    return {sum(s * x for s, x in zip(signs, seq)) for signs in product((1, -1), repeat=len(seq))}


def reaches_lemma4_target(seq):
    """Some c with every c_j = +-1, except at most one c_j = +-3, has
    sum(c_j x_j) = sum(seq) + 6: brute force over the position of the one
    +-3 (or none) and every sign pattern."""
    target = sum(seq) + 6
    for three in range(-1, len(seq)):
        for signs in product((1, -1), repeat=len(seq)):
            c = [s * 3 if j == three else s for j, s in enumerate(signs)]
            if sum(cj * x for cj, x in zip(c, seq)) == target:
                return True
    return False


def subset_sums(seq):
    total = set()
    for mask in range(1 << len(seq)):
        total.add(sum(x for i, x in enumerate(seq) if mask >> i & 1))
    return total


def naive_determinant(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    det = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        det += (-1) ** j * m[0][j] * naive_determinant(minor)
    return det


def naive_leading_minors(m):
    """Determinants of the leading principal k x k blocks, k = 1..n."""
    return [naive_determinant([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]


def nondecreasing_sequences(max_sum, max_len):
    """Every nondecreasing non-negative integer sequence with the given
    sum and length caps (longer sequences would only prepend zeros, which
    change neither changemaker criterion)."""
    out = []

    def extend(prefix, total):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_len:
            return
        lo = prefix[-1] if prefix else 0
        for v in range(lo, max_sum - total + 1):
            prefix.append(v)
            extend(prefix, total + v)
            prefix.pop()

    extend([], 0)
    return out


def min_covering_costs(sig, top):
    """Least sum_j m_j(m_j+1)/2 over integers m_j >= 0 with
    sum_j m_j sig_j >= v, for each 0 <= v <= top, by trying every m with
    m_j <= ceil(top / sig_j): one more than that covers top on its own, at
    a higher cost."""
    best = {}  # least cost per covered amount, capped at top
    for m in product(*(range(-(-top // s) + 1) for s in sig)):
        cover = min(sum(a * s for a, s in zip(m, sig)), top)
        cost = sum(a * (a + 1) // 2 for a in m)
        best[cover] = min(cost, best.get(cover, cost))
    return [min(c for amount, c in best.items() if amount >= v) for v in range(top + 1)]


CYCLIC_INF = 1 << 62


def min_costs_cyclic(sig, modulus, bound):
    """dp[r] = least sum(c_j^2) over odd vectors c with |c_j| <= bound and
    sum(c_j sigma_j) = r (mod modulus), as an int64 array, by a DP over
    the residues mod modulus alone: every coordinate shifts the whole
    residue array, wrapping around.  Unreached residues hold CYCLIC_INF or
    more.

    dp stays symmetric under r -> -r (it starts at dp[0] = 0, and each
    coordinate offers +a*s and -a*s at the same cost), so only the +a*s
    shifts run and a mirror step closes each coordinate.
    """
    dp = np.full(modulus, CYCLIC_INF, dtype=np.int64)
    dp[0] = 0
    best = np.empty_like(dp)
    buf = np.empty_like(dp)
    for s in sig:
        best.fill(CYCLIC_INF)
        for a in range(1, bound + 1, 2):
            k = a * s % modulus
            # buf = dp rotated right by k, plus a^2
            np.add(dp[: modulus - k], a * a, out=buf[k:])
            np.add(dp[modulus - k :], a * a, out=buf[:k])
            np.minimum(best, buf, out=best)
        buf[1:] = best[:0:-1]  # buf[r] = best[-r mod modulus] for r >= 1
        np.minimum(best[1:], buf[1:], out=best[1:])
        dp, best = best, dp
    return dp


def _odd_square_multisets(total, count, largest=None):
    """Nonincreasing tuples of `count` odd positives whose squares sum to
    total."""
    if count == 0:
        if total == 0:
            yield ()
        return
    if total < count:
        return
    top = math.isqrt(total - (count - 1))
    if largest is not None:
        top = min(top, largest)
    if top % 2 == 0:
        top -= 1
    for v in range(top, 0, -2):
        for rest in _odd_square_multisets(total - v * v, count - 1, v):
            yield (v,) + rest


def characteristic_residues(sigma, level):
    """All values of sum(c_j sigma_j) mod 2p over all-odd vectors c of the
    given level, p = sum(sigma_j^2).

    Enumerates the odd-square multisets, then assigns values to
    coordinates with a remaining-multiset dynamic program, tracking the
    reachable residues.
    """
    sig = tuple(int(x) for x in sigma)
    modulus = 2 * sum(x * x for x in sig)
    assert modulus > 0 and level >= 0
    n1 = len(sig)
    out = set()
    for multiset in _odd_square_multisets(n1 + 8 * level, n1):
        states = {multiset: {0}}
        for s in sig:
            nxt = {}
            for ms, residues in states.items():
                seen = set()
                for idx, v in enumerate(ms):
                    if v in seen:
                        continue
                    seen.add(v)
                    rest = ms[:idx] + ms[idx + 1 :]
                    bucket = nxt.setdefault(rest, set())
                    for r in residues:
                        bucket.add((r + v * s) % modulus)
                        bucket.add((r - v * s) % modulus)
            states = nxt
        for residues in states.values():  # only the empty multiset remains
            out |= residues
    return frozenset(out)


def min_level_by_scan(sigma, i):
    """Ascending search for the minimum characteristic level at index i:
    the least k whose residues hold p - 2i (mod 2p)."""
    p = sum(int(x) ** 2 for x in sigma)
    assert int(sigma[0]) == 1 and 0 <= i <= p // 2
    target = (p - 2 * i) % (2 * p)
    for k in range(p + 1):
        if target in characteristic_residues(sigma, k):
            return k
    raise AssertionError(f"no characteristic vector found up to level {p}")


def _ldl_fraction(a):
    """A = L D L^T for positive definite A; unit lower L over Fractions."""
    n = len(a)
    L = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for j in range(n):
        s = Fraction(a[j][j])
        for k in range(j):
            s -= L[j][k] * L[j][k] * d[k]
        assert s > 0, "matrix is not positive definite"
        d[j] = s
        L[j][j] = Fraction(1)
        for i in range(j + 1, n):
            t = Fraction(a[i][j])
            for k in range(j):
                t -= L[i][k] * L[j][k] * d[k]
            L[i][j] = t / d[j]
    return L, d


def short_vectors_fraction(gram, norm):
    """Every integer x with x^T gram x = -norm for a negative definite
    gram, by a Fincke-Pohst descent over Fractions: the interval of x_j
    is widened by a rational square-root bound, then each value is tested
    exactly.  x_{n-1} varies slowest and every coordinate ascends."""
    n = len(gram)
    L, d = _ldl_fraction([[-gram[i][j] for j in range(n)] for i in range(n)])
    out = []
    x = [0] * n

    def descend(j, rem):
        if j < 0:
            if rem == 0:
                out.append(tuple(x))
            return
        c = sum((L[i][j] * x[i] for i in range(j + 1, n)), Fraction(0))
        t = rem / d[j]
        bound = Fraction(math.isqrt(t.numerator * t.denominator) + 1, t.denominator)
        for v in range(math.ceil(-c - bound), math.floor(-c + bound) + 1):
            used = d[j] * (v + c) ** 2
            if used <= rem:
                x[j] = v
                descend(j - 1, rem - used)
        x[j] = 0

    descend(n - 1, Fraction(norm))
    return out


def walk_state(sig):
    """(total, p, low, level1) of sigma, the state the enumeration walk
    carries, folded from the empty vector by the walk's own step."""
    sums = (1, 1)
    for v in sig:
        sums = extend_signed_sums(*sums, v)
    return (sum(sig), sum(v * v for v in sig), *sums)


def lemma4_record_by_objects(sig):
    """The lemma4 instance record through validated objects: the witness
    from lemma4_witness, its pairing through inner_product and
    t_{g-3} <= 1 from torsion_at_most's own bitset."""
    cm = ChangemakerVector(sig)
    g = genus_from_changemaker(cm)
    witness = lemma4_witness(cm)
    identity_ok = cm.p + inner_product(witness.coords, sig) == 2 * g - 6
    torsion_ok = torsion_at_most(cm, g - 3, 1)
    return {
        "kind": "instance",
        "claim": "lemma4",
        "sigma": list(sig),
        "p": cm.p,
        "g": g,
        "witness": list(witness.coords),
        "level": witness.level,
        "identity_ok": identity_ok,
        "torsion_le_1": torsion_ok,
        "ok": witness.level == 1 and identity_ok and torsion_ok,
    }


def theorem1_hypothesis_by_objects(sig):
    """g >= 3, t_{g-2} = 1 and t_{g-3} >= 2, decided by torsion_at_most."""
    cm = ChangemakerVector(sig)
    g = genus_from_changemaker(cm)
    return g >= 3 and not torsion_at_most(cm, g - 3, 1) and torsion_at_most(cm, g - 2, 1)
