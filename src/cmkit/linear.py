"""Negative continued-fraction expansions and linear (chain) lattices."""

from __future__ import annotations

import math

from .errors import CapacityError
from .lattice import ISOMETRY_MAX_RANK, Gram, _Factor, is_isometric


def _validate_pair(p: int, q: int) -> tuple[int, int]:
    p, q = int(p), int(q)
    if not p > q > 0:
        raise ValueError(f"need p > q > 0, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise ValueError(f"need gcd(p, q) = 1, got ({p}, {q})")
    return p, q


def cf_expand(p: int, q: int) -> list[int]:
    """The unique expansion p/q = x_1 - 1/(x_2 - 1/(... - 1/x_n)) with
    every x_i >= 2.

    >>> cf_expand(9, 2)
    [5, 2]
    >>> cf_expand(7, 5)
    [2, 2, 3]
    """
    p, q = _validate_pair(p, q)
    terms = []
    while q:
        x = -(-p // q)
        terms.append(x)
        p, q = q, x * q - p
    return terms


def cf_evaluate(terms) -> tuple[int, int]:
    """Collapse an all->=2 expansion back to the reduced fraction (p, q).

    >>> cf_evaluate([2, 2, 2])
    (4, 3)
    """
    xs = [int(x) for x in terms]
    if not xs:
        raise ValueError("expansion must be non-empty")
    if any(x < 2 for x in xs):
        raise ValueError("every term must be >= 2 (uniqueness fails otherwise)")
    p, q = xs[-1], 1
    for x in reversed(xs[:-1]):
        p, q = x * p - q, p
    return p, q


def linear_gram(p: int, q: int) -> Gram:
    """Tridiagonal Gram matrix of the chain: diagonal -x_i, off-diagonal 1."""
    xs = cf_expand(p, q)
    n = len(xs)
    return tuple(
        tuple(-xs[i] if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )


def gerstein_isomorphic(p: int, q: int, p2: int, q2: int) -> bool:
    """Chain-lattice isomorphism criterion: equal p, and q2 equal to q or
    to its inverse mod p."""
    p, q = _validate_pair(p, q)
    p2, q2 = _validate_pair(p2, q2)
    return p == p2 and (q == q2 or (q * q2) % p == 1)


def recognize_linear(gram, max_rank: int = ISOMETRY_MAX_RANK) -> tuple[int, int] | None:
    """Parameters (p, q) of the chain lattice presented by gram, if any.

    p is forced to |det gram|; every coprime q whose expansion has the
    right length is tried against the exhaustive isometry search.  The
    match with the smallest q is returned.  Since q and its inverse mod p
    present the same lattice (reverse the chain), callers should compare
    results with gerstein_isomorphic, never by raw equality.  Returns
    None when no candidate matches.  gram is validated and eliminated once,
    and that one factor serves every candidate's isometry search.
    """
    source = _Factor(gram)
    n = len(source.gram)
    if n > max_rank:
        raise CapacityError(
            f"linear-lattice recognition capped at rank {max_rank}, got {n}"
        )
    p = abs(source.determinant)
    if p < 2:
        return None
    for q in range(1, p):
        if math.gcd(p, q) != 1:
            continue
        if len(cf_expand(p, q)) != n:
            continue
        if is_isometric(source, linear_gram(p, q), max_rank=max_rank):
            return (p, q)
    return None
