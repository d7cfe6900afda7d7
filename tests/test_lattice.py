import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmkit import (
    CapacityError,
    complement_basis,
    determinant,
    gram_matrix,
    inner_product,
    is_isometric,
    is_negative_definite,
    short_vectors,
)
from cmkit.graphs import orthogonal_basis
from cmkit.linear import cf_expand, linear_gram

from oracle_utils import naive_determinant, naive_leading_minors, short_vectors_fraction


def test_inner_product_orthonormal():
    assert inner_product((1, 0, 0), (1, 0, 0)) == -1
    assert inner_product((1, 0), (0, 1)) == 0


def test_inner_product_self_pairing():
    assert inner_product((1, 2, 2), (1, 2, 2)) == -9


def test_inner_product_cross_term():
    assert inner_product((2, -1, 0), (0, 1, -1)) == 1


def test_inner_product_rank_mismatch():
    with pytest.raises(ValueError):
        inner_product((1, 0), (1, 0, 0))


def test_inner_product_nonpositive_self_pairing():
    for v in [(0, 0), (3, -2, 1), (-1,), (5, 5, 5, 5)]:
        assert inner_product(v, v) <= 0
        assert (inner_product(v, v) == 0) == all(x == 0 for x in v)


def test_gram_matrix_chain_example():
    assert gram_matrix([(2, -1, 0), (0, 1, -1)]) == ((-5, 1), (1, -2))


def test_gram_matrix_single():
    assert gram_matrix([(1, -1)]) == ((-2,),)


def test_gram_matrix_depends_on_basis_order():
    u, v, w = (1, -1, 0, 0), (0, 1, -1, 0), (0, 1, 1, -1)
    assert gram_matrix([u, v, w]) == ((-2, 1, 1), (1, -2, 0), (1, 0, -3))
    # reordering the first two vectors lines the chain up tridiagonally
    assert gram_matrix([v, u, w]) == ((-2, 1, 0), (1, -2, 1), (0, 1, -3))
    assert is_isometric(gram_matrix([u, v, w]), gram_matrix([v, u, w]))


def test_gram_matrix_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        gram_matrix([])
    with pytest.raises(ValueError):
        gram_matrix([(1, 0), (1, 0, 0)])


def test_gram_matrix_symmetric_negative_definite():
    bases = [
        [(1, -1, 0), (0, 1, -1)],
        [(2, -1, 0, 0), (0, 1, -1, 0), (1, 1, 1, -1)],
        [(1, 2, 3), (0, 1, 1)],
    ]
    for basis in bases:
        g = gram_matrix(basis)
        assert g == tuple(zip(*g))
        assert is_negative_definite(g)


def test_determinant_matches_naive_expansion():
    mats = [
        [[-5, 1], [1, -2]],
        [[-2, 1, 0], [1, -2, 1], [0, 1, -3]],
        [[0, 1, 2], [1, 0, 3], [2, 3, 0]],
        [[1, 2, 3, 4], [0, 1, 2, 3], [1, 1, 1, 1], [4, 3, 2, 1]],
    ]
    for m in mats:
        assert determinant(m) == naive_determinant(m)


def test_leading_minors_alternate_for_negative_definite():
    g = linear_gram(15, 11)
    minors = naive_leading_minors(g)
    assert [(-1) ** (k + 1) * d > 0 for k, d in enumerate(minors)] == [True] * len(minors)
    assert abs(minors[-1]) == 15


def test_is_negative_definite_rejects():
    assert not is_negative_definite([[2]])
    assert not is_negative_definite([[-2, 2], [2, -2]])  # determinant 0
    assert not is_negative_definite([[-1, 3], [3, -1]])
    # leading minors -1 and 1, but x = (1, 1) gives +8: not a Gram matrix
    assert not is_negative_definite([[-1, 10], [0, -1]])
    assert not is_negative_definite([[-1, 0]])
    assert is_negative_definite([[-1, 0], [0, -1]])


@st.composite
def _symmetric_matrices(draw):
    """Symmetric integer matrices of size <= 5: either entries in [-2, 2],
    where zero leading minors are common, or the Gram matrix of a few
    random vectors, which is negative definite unless they are dependent."""
    n = draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                m[i][j] = m[j][i] = draw(st.integers(min_value=-2, max_value=2))
        return m
    vecs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n))
    return [[-sum(a * b for a, b in zip(u, v)) for v in vecs] for u in vecs]


@settings(max_examples=300, deadline=None)
@given(_symmetric_matrices())
@example([[0, 1], [1, 0]])
@example([[-1, 1, 0], [1, -1, 0], [0, 0, -1]])
def test_elimination_matches_naive_determinant_and_sylvester(m):
    assert determinant(m) == naive_determinant(m)
    sylvester = all((-1) ** k * d > 0 for k, d in enumerate(naive_leading_minors(m), start=1))
    assert is_negative_definite(m) == sylvester


def test_complement_basis_rank_one():
    basis = complement_basis((1, 1))
    assert gram_matrix(basis) == ((-2,),)


def test_complement_basis_122():
    basis = complement_basis((1, 2, 2))
    assert all(inner_product(v, (1, 2, 2)) == 0 for v in basis)
    assert is_isometric(gram_matrix(basis), [[-5, 1], [1, -2]])


def test_complement_basis_1112():
    basis = complement_basis((1, 1, 1, 2))
    assert all(inner_product(v, (1, 1, 1, 2)) == 0 for v in basis)
    assert is_isometric(gram_matrix(basis), [[-2, 1, 0], [1, -2, 1], [0, 1, -3]])


def test_complement_basis_determinant_property():
    # for primitive sigma the complement discriminant equals |<sigma, sigma>|
    samples = [
        (1, 1),
        (1, 2, 2),
        (1, 1, 3),
        (2, 3),
        (0, 1, 2),
        (3, -2, 1),
        (1, 0, 0, 5),
        (2, 2, 3),
    ]
    for sig in samples:
        basis = complement_basis(sig)
        assert len(basis) == len(sig) - 1
        assert all(inner_product(v, sig) == 0 for v in basis)
        assert abs(determinant(gram_matrix(basis))) == sum(x * x for x in sig)


def test_complement_basis_zeros_inside():
    basis = complement_basis((0, 0, 3))
    assert all(inner_product(v, (0, 0, 3)) == 0 for v in basis)
    # sigma has content 3; the complement matches that of the primitive (0, 0, 1)
    assert abs(determinant(gram_matrix(basis))) == 1


def test_complement_basis_rejects_zero():
    with pytest.raises(ValueError):
        complement_basis((0, 0, 0))


def test_short_vectors_rank_one():
    assert set(short_vectors([[-2]], 2)) == {(1,), (-1,)}
    assert short_vectors([[-2]], 3) == []


def test_short_vectors_a2_root_count():
    hits = short_vectors([[-2, 1], [1, -2]], 2)
    assert len(hits) == 6
    assert all(2 * x * x - 2 * x * y + 2 * y * y == 2 for x, y in hits)


def test_short_vectors_complete_against_box_scan():
    g = [[-5, 1], [1, -2]]
    for norm in (1, 2, 3, 5, 9):
        brute = {
            (x, y)
            for x in range(-6, 7)
            for y in range(-6, 7)
            if 5 * x * x - 2 * x * y + 2 * y * y == norm
        }
        assert set(short_vectors(g, norm)) == brute


@st.composite
def _complement_grams(draw):
    """Complement Gram of a changemaker (1, ...) of rank <= 7; entries stay
    <= 3, which keeps the norms, and so the Fraction oracle, small."""
    sig = [1]
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        sig.append(draw(st.integers(min_value=sig[-1], max_value=min(sum(sig) + 1, 3))))
    return gram_matrix(orthogonal_basis(sig))


_CHAIN_PAIRS = [
    (p, q)
    for p in range(2, 60)
    for q in range(1, p)
    if math.gcd(p, q) == 1 and len(cf_expand(p, q)) <= 6
]


@settings(max_examples=50, deadline=None)
@given(
    st.one_of(
        _complement_grams(),
        st.sampled_from(_CHAIN_PAIRS).map(lambda pq: linear_gram(*pq)),
    )
)
@example(gram_matrix(orthogonal_basis((1,) + (2,) * 8)))
@example(gram_matrix(orthogonal_basis((1,) * 3 + (2,) * 6)))
@example(gram_matrix(orthogonal_basis((1,) + (2,) * 10)))
@example(gram_matrix(orthogonal_basis((1,) * 3 + (2,) * 8)))
def test_short_vectors_match_fraction_descent(gram):
    # the integer descent returns the Fraction descent's list, order included
    diagonal = {-gram[i][i] for i in range(len(gram))}
    for norm in sorted(diagonal | {m + 1 for m in diagonal}):
        assert short_vectors(gram, norm) == short_vectors_fraction(gram, norm), norm


def test_is_isometric_reflexive():
    for g in [[[-2]], linear_gram(9, 2), linear_gram(15, 11)]:
        assert is_isometric(g, g)


def test_is_isometric_accepts_reversed_chain():
    assert is_isometric(linear_gram(7, 5), linear_gram(7, 3))


def test_is_isometric_rejects():
    # different ranks
    assert not is_isometric(linear_gram(9, 2), linear_gram(9, 4))
    # same rank, same determinant, different classes
    assert not is_isometric(linear_gram(11, 3), linear_gram(11, 2))


def test_is_isometric_rejects_by_search():
    # equal determinant (-272) and six vectors of norm 7 each: only the
    # pairings between candidate columns tell these two apart
    a = ((-7, -3, -1), (-3, -7, -1), (-1, -1, -7))
    b = ((-7, -2, -2), (-2, -7, 1), (-2, 1, -7))
    assert not is_isometric(a, b)
    assert not is_isometric(b, a)


def test_is_isometric_symmetric_relation():
    pairs = [
        (linear_gram(7, 5), linear_gram(7, 3)),
        (linear_gram(11, 3), linear_gram(11, 2)),
        (linear_gram(9, 2), linear_gram(9, 2)),
    ]
    for a, b in pairs:
        assert is_isometric(a, b) == is_isometric(b, a)


def test_is_isometric_permutation_invariant():
    g = linear_gram(15, 11)
    n = len(g)
    for perm in [(4, 3, 2, 1, 0), (1, 0, 2, 4, 3), (2, 0, 4, 1, 3)]:
        permuted = tuple(tuple(g[perm[i]][perm[j]] for j in range(n)) for i in range(n))
        assert is_isometric(g, permuted)
        assert is_isometric(permuted, g)


def test_is_isometric_capacity():
    g = tuple(
        tuple(-2 if i == j else 0 for j in range(6)) for i in range(6)
    )
    with pytest.raises(CapacityError):
        is_isometric(g, g)
    assert is_isometric(g, g, max_rank=6)


def test_is_isometric_requires_negative_definite():
    with pytest.raises(ValueError):
        is_isometric([[2]], [[2]])
