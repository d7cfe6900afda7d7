"""Exact arithmetic in the negative definite standard lattice.

Vectors are tuples of integers giving coordinates over an orthonormal
basis e_0, ..., e_n with <e_i, e_j> = -1 if i == j and 0 otherwise.
Everything is exact and integer, never floats: one fraction-free (Bareiss)
elimination of a Gram matrix gives its determinant, decides its
definiteness and yields the factor that the short-vector descent runs on.
The isometry search places, at every step, the column with the fewest
candidates left (Plesken-Souvignier; Fincke-Pohst bounds).
"""

from __future__ import annotations

import math
import operator
from collections import Counter

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


def _bareiss(a: list[list[int]]) -> tuple[list[list[int]], int]:
    """Bareiss's fraction-free elimination of a square integer matrix, in
    place; returns its rows and the number of row swaps made.

    A row is swapped in only where a pivot is zero.  With no swap, row k
    holds at column j >= k the minor of rows 0..k and columns 0..k-1, j, so
    pivot k is the leading principal minor D_{k+1}, and every division is
    exact.  When no row can supply a pivot the matrix is singular, and the
    elimination stops with that zero on the diagonal.
    """
    n = len(a)
    swaps, prev = 0, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            r = next((r for r in range(k + 1, n) if a[r][k]), None)
            if r is None:
                break
            a[k], a[r] = a[r], a[k]
            swaps += 1
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return a, swaps


def determinant(matrix) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise ValueError("matrix must be square and non-empty")
    rows, swaps = _bareiss(a)
    if any(rows[k][k] == 0 for k in range(n)):
        return 0
    return (-1) ** swaps * rows[-1][-1]


def _definite_rows(g: Gram) -> list[list[int]] | None:
    """The Bareiss rows of -g when g is negative definite, else None.

    Sylvester: -g is positive definite iff every leading principal minor
    is positive, i.e. iff it eliminates with no swap and positive pivots.
    """
    rows, swaps = _bareiss([[-x for x in row] for row in g])
    if swaps or any(rows[k][k] <= 0 for k in range(len(rows))):
        return None
    return rows


def is_negative_definite(matrix) -> bool:
    """Whether matrix is a square symmetric integer matrix whose form is
    negative definite (Sylvester's test on one Bareiss pass)."""
    try:
        g = as_gram(matrix)
    except ValueError:
        return False
    return _definite_rows(g) is not None


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


class _Factor:
    """One negative definite Gram matrix g, validated, with its determinant
    and the integer descent data of its form Q(x) = x^T (-g) x.

    Row j of the Bareiss elimination of -g is u_j, with u_j[j] = D_{j+1}
    (D_0 = 1), and Q(x) = sum_j s_j^2 / (D_j D_{j+1}) with s_j = u_j . x:
    this is the L D L^T splitting, whose unit upper rows are u_j / D_{j+1}
    and whose pivots are D_{j+1} / D_j.  Dividing u_j by its gcd c_j gives
    s_j = c_j t_j with t_j = M_j x_j + N_j, the scale M_j = D_{j+1} / c_j
    and the integer N_j = sum_{i>j} (u_j[i] / c_j) x_i; one K, the lcm of
    the reduced denominators of c_j^2 / (D_j D_{j+1}), makes every weight
    w_j = K c_j^2 / (D_j D_{j+1}) an integer, and K Q(x) = sum_j w_j t_j^2.
    """

    __slots__ = ("gram", "determinant", "scales", "weights", "columns", "multiplier")

    def __init__(self, gram):
        g = as_gram(gram)
        rows = _definite_rows(g)
        if rows is None:
            raise ValueError("Gram matrix must be negative definite")
        n = len(g)
        minors = [1] + [row[j] for j, row in enumerate(rows)]
        contents = [math.gcd(*row) for row in rows]
        dens = [minors[j] * minors[j + 1] for j in range(n)]
        # c^2 / den in lowest terms has denominator den / gcd(c^2, den)
        multiplier = math.lcm(*(d // math.gcd(c * c, d) for c, d in zip(contents, dens)))
        self.gram = g
        self.determinant = (-1) ** n * minors[n]
        self.scales = [minors[j + 1] // c for j, c in enumerate(contents)]
        self.weights = [multiplier * c * c // d for c, d in zip(contents, dens)]
        self.columns = [
            [(i, row[i] // c) for i in range(j + 1, n) if row[i]]
            for j, (row, c) in enumerate(zip(rows, contents))
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

    gram must be negative definite, or a _Factor of one: is_isometric
    passes its factor of a, which recognize_linear makes once per call, so
    no Gram matrix is eliminated twice.  The search intervals come from the
    L D L^T splitting of -gram (see _Factor and _Factor.walk), so the
    enumeration is complete: no solution can fall outside them.
    Both members of every +-x pair are returned, in a deterministic order.
    """
    factor = gram if isinstance(gram, _Factor) else _Factor(gram)
    out: list[Vector] = []
    factor.walk(norm, out)
    return out


def _matvec(m: Gram, v: Vector) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def is_isometric(a, b, max_rank: int = ISOMETRY_MAX_RANK) -> bool:
    """Decide whether two negative definite Gram matrices present isometric
    lattices, by complete search for an integer U with U^T a U = b.

    a may also be a _Factor of one, as recognize_linear passes.  Candidate
    columns are drawn from the full finite sets of vectors of the required
    norms, so both answers are certificates: True comes with an explicit
    change of basis, False from exhausting the search space.  Raises
    ValueError unless both are negative definite, and CapacityError for
    ranks above max_rank and when the search visits more than
    _ISOMETRY_NODE_BUDGET partial bases.
    """
    fa = a if isinstance(a, _Factor) else _Factor(a)
    fb = _Factor(b)
    ga, gb = fa.gram, fb.gram
    if len(ga) != len(gb):
        return False
    n = len(ga)
    if n > max_rank:
        raise CapacityError(f"isometry search capped at rank {max_rank}, got {n}")
    if fa.determinant != fb.determinant:
        return False

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
