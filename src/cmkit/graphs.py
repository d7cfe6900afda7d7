"""Standard bases for changemakers ending in 2, and intersection graphs."""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations

from .changemaker import as_changemaker, is_changemaker
from .lattice import Vector, complement_basis, inner_product


def leading_ones(sigma) -> int:
    """Number of leading 1 entries (the index k of the two chain families)."""
    cm = as_changemaker(sigma)
    k = 0
    for v in cm.sigma:
        if v != 1:
            break
        k += 1
    return k


def standard_basis(sigma) -> list[Vector]:
    """Distinguished complement basis for sigma = (1^k, 2^m) with m >= 1.

    Difference vectors e_{i-1} - e_i, with one three-term vector bridging
    the jump from 1s to 2s: 2 e_0 - e_1 when k = 1, otherwise
    e_{k-2} + e_{k-1} - e_k sitting at position k.  For k = 3 the first
    two vectors are emitted in the order that lines the Gram matrix up as
    an explicit tridiagonal chain.
    """
    cm = as_changemaker(sigma)
    sig = cm.sigma
    n = len(sig) - 1
    if sig[-1] != 2 or any(v not in (1, 2) for v in sig):
        raise ValueError(f"need the shape (1^k, 2^m) with m >= 1, got {list(sig)}")
    k = leading_ones(cm)
    size = n + 1

    def diff(i: int) -> Vector:
        v = [0] * size
        v[i - 1], v[i] = 1, -1
        return tuple(v)

    if k == 1:
        first = [0] * size
        first[0], first[1] = 2, -1
        return [tuple(first)] + [diff(i) for i in range(2, n + 1)]

    special = [0] * size
    special[k - 2] = special[k - 1] = 1
    special[k] = -1
    vectors = [diff(i) for i in range(1, n + 1)]
    vectors[k - 1] = tuple(special)
    if k == 3:
        vectors[0], vectors[1] = vectors[1], vectors[0]
    return vectors


def orthogonal_basis(sigma) -> list[Vector]:
    """Basis of the orthogonal complement of a nonzero sigma: standard_basis
    for a changemaker of shape (1^k, 2^m) with m >= 1, complement_basis
    for any other vector.  Each test is needed: (2, 2) and (1, 2, 1, 2)
    fail only the changemaker test, (0, 1, 2) only the shape test, and
    standard_basis rejects all three."""
    sig = tuple(sigma)
    if is_changemaker(sig) and sig[-1] == 2 and all(v in (1, 2) for v in sig):
        return standard_basis(sig)
    return complement_basis(sig)


class IntersectionGraph:
    """Vertices are basis vectors; (i, j) is an edge iff |<v_i, v_j>| = 1."""

    def __init__(self, vertices, edges):
        self.vertices: tuple[Vector, ...] = tuple(tuple(v) for v in vertices)
        self.edges: frozenset[tuple[int, int]] = frozenset(
            (min(i, j), max(i, j)) for i, j in edges
        )
        if any(i == j for i, j in self.edges):
            raise ValueError("no self-loops")
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.vertices))}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        self.adjacency = adj

    def __len__(self):
        return len(self.vertices)

    def has_induced_claw(self) -> bool:
        """Some four vertices induce a star K_{1,3}; brute force over
        4-subsets (ranks here stay small)."""
        for quad in combinations(range(len(self.vertices)), 4):
            inside = [
                (a, b) for a, b in combinations(quad, 2) if (a, b) in self.edges
            ]
            if len(inside) != 3:
                continue
            degrees = Counter(v for e in inside for v in e)
            if sorted(degrees.values()) == [1, 1, 1, 3]:
                return True
        return False

    def is_connected(self) -> bool:
        n = len(self.vertices)
        if n <= 1:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in self.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == n


def intersection_graph(basis) -> IntersectionGraph:
    """Graph on a list of pairwise-distinct vectors with the unit-pairing
    edge rule."""
    vecs = [tuple(int(x) for x in v) for v in basis]
    if len(set(vecs)) != len(vecs):
        raise ValueError("basis vectors must be pairwise distinct")
    edges = {
        (i, j)
        for i, j in combinations(range(len(vecs)), 2)
        if abs(inner_product(vecs[i], vecs[j])) == 1
    }
    return IntersectionGraph(vecs, edges)
