import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmkit.lattice
import cmkit.linear
from cmkit import (
    CapacityError,
    cf_evaluate,
    cf_expand,
    determinant,
    gerstein_isomorphic,
    is_isometric,
    linear_gram,
    recognize_linear,
)
from cmkit.graphs import orthogonal_basis
from cmkit.lattice import gram_matrix


def test_cf_expand_examples():
    assert cf_expand(9, 2) == [5, 2]
    assert cf_expand(7, 5) == [2, 2, 3]
    assert cf_expand(5, 1) == [5]
    assert cf_expand(2, 1) == [2]


def test_cf_expand_rejects_bad_pairs():
    for p, q in [(4, 2), (2, 3), (5, 0), (5, 5), (0, 1)]:
        with pytest.raises(ValueError):
            cf_expand(p, q)


def test_cf_evaluate_examples():
    assert cf_evaluate([5, 2]) == (9, 2)
    assert cf_evaluate([2, 2, 2]) == (4, 3)
    assert cf_evaluate([7]) == (7, 1)


def test_cf_evaluate_rejects():
    with pytest.raises(ValueError):
        cf_evaluate([])
    with pytest.raises(ValueError):
        cf_evaluate([2, 1, 2])


def test_cf_terms_always_at_least_two():
    for p in range(2, 60):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                assert all(x >= 2 for x in cf_expand(p, q))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=399))
def test_cf_round_trip_random(p, q):
    if q < p and math.gcd(p, q) == 1:
        assert cf_evaluate(cf_expand(p, q)) == (p, q)


def test_linear_gram_examples():
    assert linear_gram(9, 2) == ((-5, 1), (1, -2))
    assert linear_gram(7, 5) == ((-2, 1, 0), (1, -2, 1), (0, 1, -3))
    assert linear_gram(2, 1) == ((-2,),)


def test_linear_gram_determinant_is_p():
    for p, q in [(9, 2), (7, 5), (15, 11), (17, 4), (40, 17), (23, 7)]:
        assert abs(determinant(linear_gram(p, q))) == p


def test_gerstein_examples():
    assert gerstein_isomorphic(7, 5, 7, 3)
    assert gerstein_isomorphic(9, 2, 9, 2)
    assert not gerstein_isomorphic(9, 2, 9, 4)
    assert not gerstein_isomorphic(9, 2, 11, 2)


def test_gerstein_rejects_inadmissible():
    with pytest.raises(ValueError):
        gerstein_isomorphic(4, 2, 4, 2)
    with pytest.raises(ValueError):
        gerstein_isomorphic(3, 2, 5, 0)


def test_reversed_expansion_gives_inverse_parameter():
    for p, q in [(7, 5), (9, 2), (15, 11), (13, 3), (11, 4)]:
        rev_p, rev_q = cf_evaluate(list(reversed(cf_expand(p, q))))
        assert rev_p == p
        assert (q * rev_q) % p == 1 or q == rev_q


def test_recognize_linear_examples():
    assert recognize_linear([[-5, 1], [1, -2]]) == (9, 2)
    assert recognize_linear([[-2, 0], [0, -2]]) is None
    assert recognize_linear([[-2]]) == (2, 1)


def test_recognize_linear_round_trip_gerstein_equivalent():
    for p in range(2, 19):
        for q in range(1, p):
            if math.gcd(p, q) != 1 or len(cf_expand(p, q)) > 4:
                continue
            found = recognize_linear(linear_gram(p, q))
            assert found is not None
            assert gerstein_isomorphic(found[0], found[1], p, q)


#: recognize_linear on the complement Gram of (1^k, 2^m), by rank k + m - 1
#: and then k = 1..rank.  Lemma 5: a chain exactly when k is 1 or 3.
TAIL_OF_2S_CHAINS = {
    1: [(5, 1)],
    2: [(9, 2), None],
    3: [(13, 3), None, (7, 3)],
    4: [(17, 4), None, (11, 7), None],
    5: [(21, 5), None, (15, 11), None, None],
    6: [(25, 6), None, (19, 14), None, None, None],
    7: [(29, 7), None, (23, 17), None, None, None, None],
    8: [(33, 8), None, (27, 20), None, None, None, None, None],
    9: [(37, 9), None, (31, 23), None, None, None, None, None, None],
    10: [(41, 10), None, (35, 26), None, None, None, None, None, None, None],
}


def _tail_of_2s_gram(k, m):
    return gram_matrix(orthogonal_basis((1,) * k + (2,) * m))


def test_recognize_linear_tail_of_2s_pinned():
    for rank, expected in TAIL_OF_2S_CHAINS.items():
        for k, want in enumerate(expected, start=1):
            got = recognize_linear(_tail_of_2s_gram(k, rank + 1 - k), max_rank=rank)
            assert got == want, (k, rank)


def test_recognize_linear_reaches_the_traced_layers(monkeypatch):
    # the benchmark's tracer wraps these two module globals; recognition
    # must still reach both through them
    calls = {"is_isometric": 0, "short_vectors": 0}
    for module, name in ((cmkit.linear, "is_isometric"), (cmkit.lattice, "short_vectors")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert recognize_linear(_tail_of_2s_gram(3, 3)) == (15, 11)
    assert calls["is_isometric"] > 0 and calls["short_vectors"] > 0


def test_recognize_linear_eliminates_its_source_gram_once(monkeypatch):
    # one factor of the source Gram serves every candidate q; the source is
    # the chain [2, 2, 6, 2] with its first two vectors swapped, so that it
    # equals no candidate's Gram and three candidates are tried
    chain = linear_gram(29, 20)
    source = tuple(tuple(chain[i][j] for j in (1, 0, 2, 3)) for i in (1, 0, 2, 3))
    negated = tuple(tuple(-x for x in row) for row in source)
    eliminated = []
    original = cmkit.lattice._bareiss

    def counted(a):
        eliminated.append(tuple(map(tuple, a)))
        return original(a)

    monkeypatch.setattr(cmkit.lattice, "_bareiss", counted)
    assert recognize_linear(source) == (29, 16)
    assert eliminated.count(negated) == 1
    assert len(eliminated) == 4


def test_recognize_linear_isometry_budget(monkeypatch):
    monkeypatch.setattr(cmkit.lattice, "_ISOMETRY_NODE_BUDGET", 1)
    with pytest.raises(CapacityError, match="budget"):
        recognize_linear(_tail_of_2s_gram(3, 3))


def test_recognize_linear_capacity():
    g = tuple(tuple(-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(6)) for i in range(6))
    with pytest.raises(CapacityError):
        recognize_linear(g)


def test_recognize_linear_rejects_indefinite():
    with pytest.raises(ValueError):
        recognize_linear([[1]])


def test_gerstein_agrees_with_search_spot_checks():
    # the exhaustive comparison over p <= 40 lives in the acceptance suite
    for p, q1, q2 in [(7, 5, 3), (11, 3, 4), (11, 3, 2), (13, 3, 9), (10, 3, 7)]:
        expected = gerstein_isomorphic(p, q1, p, q2)
        got = is_isometric(linear_gram(p, q1), linear_gram(p, q2), max_rank=8)
        assert got == expected


@st.composite
def _chain_pairs(draw):
    """p <= 300 and q1, q2 whose expansions have one length <= 8; q2 is
    q1's inverse mod p a quarter of the time, so that both answers occur."""
    p = draw(st.integers(min_value=3, max_value=300))
    by_length = {}
    for q in range(1, p):
        if math.gcd(p, q) == 1 and len(cf_expand(p, q)) <= 8:
            by_length.setdefault(len(cf_expand(p, q)), []).append(q)
    qs = by_length[draw(st.sampled_from(sorted(by_length)))]
    q1 = draw(st.sampled_from(qs))
    q2 = pow(q1, -1, p) if draw(st.integers(0, 3)) == 0 else draw(st.sampled_from(qs))
    return p, q1, q2


@settings(max_examples=100, deadline=None)
@given(_chain_pairs())
def test_gerstein_agrees_with_search_random(pair):
    p, q1, q2 = pair
    expected = gerstein_isomorphic(p, q1, p, q2)
    assert is_isometric(linear_gram(p, q1), linear_gram(p, q2), max_rank=8) == expected
