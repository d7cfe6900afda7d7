"""Exact arithmetic in the negative definite standard lattice.

Vectors are tuples of integers giving coordinates over an orthonormal
basis e_0, ..., e_n with <e_i, e_j> = -1 if i == j and 0 otherwise.
Everything is exact, never floats: a Gram matrix is factored over
Fractions once, and the short-vector descent on that factor runs on
integers alone.  The isometry search places, at every step, the column
with the fewest candidates left (Plesken-Souvignier; Fincke-Pohst bounds).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction

from .errors import CapacityError

Vector = tuple[int, ...]
Gram = tuple[tuple[int, ...], ...]

#: Default rank ceiling for the exhaustive isometry search.
ISOMETRY_MAX_RANK = 5
#: Partial bases (search nodes) one is_isometric call may visit before it
#: raises CapacityError; read at call time.  A node costs about 86 us on
#: a 2-CPU Intel Xeon (Python 3.11), so the budget is about 26 s there;
#: the most nodes seen on a chain pair of rank <= 8 is 8,010.
_ISOMETRY_NODE_BUDGET = 300_000


def _as_vector(v) -> Vector:
    vec = tuple(int(x) for x in v)
    if not vec:
        raise ValueError("vector must have at least one coordinate")
    return vec


def as_gram(matrix) -> Gram:
    """Coerce to a square symmetric integer matrix (tuple of tuples)."""
    g = tuple(tuple(int(x) for x in row) for row in matrix)
    n = len(g)
    if n == 0 or any(len(row) != n for row in g):
        raise ValueError("Gram matrix must be square and non-empty")
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
        raise ValueError("Gram matrix must be symmetric")
    return g


def inner_product(u, v) -> int:
    """The pairing <u, v> = -sum(u_i * v_i)."""
    uu, vv = _as_vector(u), _as_vector(v)
    if len(uu) != len(vv):
        raise ValueError(f"ambient rank mismatch: {len(uu)} != {len(vv)}")
    return -sum(a * b for a, b in zip(uu, vv))


def gram_matrix(basis) -> Gram:
    """Pairing matrix [<v_i, v_j>] of a non-empty list of equal-rank vectors."""
    vecs = [_as_vector(v) for v in basis]
    if not vecs:
        raise ValueError("basis must be non-empty")
    if len({len(v) for v in vecs}) != 1:
        raise ValueError("basis vectors must share an ambient rank")
    return tuple(tuple(inner_product(u, v) for v in vecs) for u in vecs)


def determinant(matrix) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise ValueError("matrix must be square and non-empty")
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def leading_minors(matrix) -> list[int]:
    """Determinants of the leading principal k x k blocks, k = 1..n."""
    m = [[int(x) for x in row] for row in matrix]
    return [determinant([row[: k + 1] for row in m[: k + 1]]) for k in range(len(m))]


def is_negative_definite(matrix) -> bool:
    """Sylvester test: the k-th leading minor must have sign (-1)^k."""
    try:
        minors = leading_minors(matrix)
    except ValueError:
        return False
    return bool(minors) and all(
        (-1) ** (k + 1) * d > 0 for k, d in enumerate(minors)
    )


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def complement_basis(sigma) -> list[Vector]:
    """Integral basis of the orthogonal complement of sigma.

    Runs a gcd sweep across the coordinates (unimodular column operations
    on the identity), so the returned vectors span the full kernel of the
    functional x -> <x, sigma>, not merely a finite-index sublattice.  For
    sigma with coprime entries the complement Gram matrix therefore has
    |det| = |<sigma, sigma>|.
    """
    sig = _as_vector(sigma)
    if not any(sig):
        raise ValueError("sigma must be nonzero")
    n1 = len(sig)

    def unit(j: int) -> list[int]:
        col = [0] * n1
        col[j] = 1
        return col

    g, gcol = sig[0], unit(0)
    kernel: list[Vector] = []
    for j in range(1, n1):
        v, col = sig[j], unit(j)
        if g == 0 and v == 0:
            kernel.append(tuple(col))
            continue
        g2, x, y = _xgcd(g, v)
        new_gcol = [x * gc + y * cc for gc, cc in zip(gcol, col)]
        kernel.append(
            tuple((v // g2) * gc - (g // g2) * cc for gc, cc in zip(gcol, col))
        )
        g, gcol = g2, new_gcol
    return kernel


def _ldl(a: list[list[int]]):
    """A = L D L^T for positive definite A; unit lower L over Fractions."""
    n = len(a)
    L = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for j in range(n):
        s = Fraction(a[j][j])
        for k in range(j):
            s -= L[j][k] * L[j][k] * d[k]
        if s <= 0:
            raise ValueError("matrix is not positive definite")
        d[j] = s
        L[j][j] = Fraction(1)
        for i in range(j + 1, n):
            t = Fraction(a[i][j])
            for k in range(j):
                t -= L[i][k] * L[j][k] * d[k]
            L[i][j] = t / d[j]
    return L, d


class _Factor:
    """The integer descent data of one negative definite Gram matrix g.

    With -g = L D L^T (L unit lower triangular, over Fractions) the form
    Q(x) = x^T (-g) x equals sum_j d_j (x_j + sum_{i>j} L[i][j] x_i)^2.
    Column j is scaled by M_j, the lcm of the denominators of its entries
    below the diagonal, so that t_j = M_j x_j + N_j with
    N_j = sum_{i>j} (M_j L[i][j]) x_i is an integer; one K then makes
    every weight w_j = K d_j / M_j^2 an integer, and K Q(x) = sum_j w_j t_j^2.
    The Fractions are used here, once per Gram matrix; the descent below
    runs on integers alone.
    """

    __slots__ = ("scales", "weights", "columns", "multiplier")

    def __init__(self, g: Gram):
        n = len(g)
        L, d = _ldl([[-x for x in row] for row in g])
        scales = [
            math.lcm(*(L[i][j].denominator for i in range(j + 1, n))) for j in range(n)
        ]
        # K * num / (den * M^2) is an integer iff den * M^2 / gcd(num, M^2)
        # divides K (num and den are coprime); K is the lcm of those.
        multiplier = math.lcm(
            *(dj.denominator * m * m // math.gcd(dj.numerator, m * m) for dj, m in zip(d, scales))
        )
        self.scales = scales
        self.weights = [
            multiplier * dj.numerator // (dj.denominator * m * m) for dj, m in zip(d, scales)
        ]
        self.columns = [
            [(i, int(L[i][j] * scales[j])) for i in range(j + 1, n) if L[i][j]]
            for j in range(n)
        ]
        self.multiplier = multiplier

    def walk(self, norm: int, out: list[Vector] | None) -> int:
        """Count the x with Q(x) = norm, appending each to out unless out
        is None; x_{n-1} varies slowest and every coordinate ascends.

        Exactness: at coordinate j the budget rem = K norm - sum_{i>j} w_i t_i^2
        is an integer, and x_j = v is admissible iff w_j t^2 <= rem for
        t = M_j v + N_j.  For integers w > 0 and t, w t^2 <= rem holds iff
        t^2 <= rem // w, i.e. iff |t| <= isqrt(rem // w) = b.  So the range
        ceil((-b - N_j) / M_j) <= v <= floor((b - N_j) / M_j) holds exactly
        the admissible v, in ascending order, and at coordinate 0 the budget
        must be spent exactly: w_0 t^2 = rem.
        """
        if norm <= 0:
            raise ValueError("norm must be a positive integer")
        scales, weights, columns = self.scales, self.weights, self.columns
        x = [0] * len(scales)
        found = 0

        def descend(j: int, rem: int) -> None:
            nonlocal found
            shift = 0
            for i, c in columns[j]:
                shift += c * x[i]
            m, w = scales[j], weights[j]
            if j == 0:
                sq, r = divmod(rem, w)
                b = math.isqrt(sq)
                if r or b * b != sq:
                    return
                for t in (-b, b) if b else (0,):
                    v, r = divmod(t - shift, m)
                    if not r:
                        x[0] = v
                        found += 1
                        if out is not None:
                            out.append(tuple(x))
                return
            b = math.isqrt(rem // w)
            for v in range(-((b + shift) // m), (b - shift) // m + 1):
                t = m * v + shift
                x[j] = v
                descend(j - 1, rem - w * t * t)

        descend(len(scales) - 1, self.multiplier * norm)
        return found


def short_vectors(gram, norm: int) -> list[Vector]:
    """All integer coordinate vectors x with x^T gram x = -norm.

    gram must be negative definite; is_isometric passes a _Factor in its
    place, so that each Gram matrix is factored once per call.  The search
    intervals come from the L D L^T splitting of -gram (see _Factor.walk),
    so the enumeration is complete: no solution can fall outside them.
    Both members of every +-x pair are returned, in a deterministic order.
    """
    factor = gram if isinstance(gram, _Factor) else _Factor(as_gram(gram))
    out: list[Vector] = []
    factor.walk(norm, out)
    return out


def _matvec(m: Gram, v: Vector) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def is_isometric(a, b, max_rank: int = ISOMETRY_MAX_RANK) -> bool:
    """Decide whether two negative definite Gram matrices present isometric
    lattices, by complete search for an integer U with U^T a U = b.

    Candidate columns are drawn from the full finite sets of vectors of the
    required norms, so both answers are certificates: True comes with an
    explicit change of basis, False from exhausting the search space.
    Raises CapacityError for ranks above max_rank, and when the search
    visits more than _ISOMETRY_NODE_BUDGET partial bases.
    """
    ga, gb = as_gram(a), as_gram(b)
    if not is_negative_definite(ga) or not is_negative_definite(gb):
        raise ValueError("both matrices must be negative definite")
    if len(ga) != len(gb):
        return False
    n = len(ga)
    if n > max_rank:
        raise CapacityError(f"isometry search capped at rank {max_rank}, got {n}")
    if determinant(ga) != determinant(gb):
        return False

    fa, fb = _Factor(ga), _Factor(gb)
    cand: dict[int, list[Vector]] = {}
    # Vector counts per norm are isometry invariants; mismatches are cheap
    # rejections that spare the backtracking search below.
    for m in sorted({-ga[i][i] for i in range(n)} | {-gb[j][j] for j in range(n)}):
        cand[m] = short_vectors(fa, m)
        if len(cand[m]) != fb.walk(m, None):
            return False

    # Each unplaced column j keeps its domain: the candidates of norm
    # -gb[j][j], with their images under ga, that pair with every placed
    # vector as gb requires.  Placing a vector narrows every domain, and an
    # empty one ends the branch at once.  The column placed next is the one
    # with the smallest domain; ties go to the norm rarest on gb's diagonal
    # (a shape like (1,1,1,2^6) has 36 vectors of norm 2 and of norm 3, and
    # its single norm-3 column pins the chain), then to the lower index.
    # The search is exhaustive in any order, so the order changes its cost,
    # never its answer.
    diag = [-gb[j][j] for j in range(n)]
    rarity = Counter(diag)
    budget = _ISOMETRY_NODE_BUDGET
    nodes = 0

    def extend(domains: dict[int, list[tuple[Vector, Vector]]]) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise CapacityError(f"isometry search exceeded its budget of {budget} nodes")
        if not domains:
            return True
        j = min(domains, key=lambda c: (len(domains[c]), rarity[diag[c]], c))
        rest = [(c, gb[j][c], dom) for c, dom in domains.items() if c != j]
        for u, au in domains[j]:
            narrowed = {}
            for c, want, dom in rest:
                kept = [(v, av) for v, av in dom if sum(map(operator.mul, au, v)) == want]
                if not kept:
                    break
                narrowed[c] = kept
            else:
                if extend(narrowed):
                    return True
        return False

    # extend builds new kept lists and never mutates a domain, so the
    # columns of one norm can share one list of images.
    images = {m: [(u, _matvec(ga, u)) for u in cand[m]] for m in rarity}
    return extend({j: images[diag[j]] for j in range(n)})
