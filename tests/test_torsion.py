import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmkit import (
    AlexanderExponents,
    TorsionSequence,
    characteristic_residues,
    coefficients,
    exponents_from_torsion,
    genus_from_changemaker,
    inner_product,
    iter_changemakers,
    lemma4_witness,
    min_level_by_scan,
    torsion_at_most,
    torsion_difference,
    torsion_from_alexander,
    torsion_from_changemaker,
    torsion_staircase,
    torus_knot_exponents,
)
from cmkit import torsion
from cmkit.torsion import _INF, _min_costs

from oracle_utils import (
    CYCLIC_INF,
    min_costs_cyclic,
    min_odd_costs,
    torus_alexander_coefficients,
)


def test_coefficients_examples():
    assert coefficients((2, 1)) == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
    assert coefficients((1,)) == {1: 1, 0: -1, -1: 1}
    got = coefficients((3, 2, 1))
    assert got[3] == 1 and got[2] == -1 and got[1] == 1 and got[0] == -1


def test_coefficients_unknot():
    assert coefficients(()) == {0: 1}


def test_torus_knot_exponents_against_polynomial_oracle():
    for g in range(1, 9):
        ae = torus_knot_exponents(g)
        assert ae.exponents == tuple(range(g, 0, -1))
        assert coefficients(ae) == torus_alexander_coefficients(g)


def test_torus_knot_exponents_domain():
    with pytest.raises(ValueError):
        torus_knot_exponents(0)


def test_torsion_from_alexander_examples():
    assert torsion_from_alexander((2, 1), 0) == 1
    assert torsion_from_alexander((3, 2, 1), 0) == 2
    for ae in [(2, 1), (3, 2, 1), (5, 4, 2, 1)]:
        g = ae[0]
        assert torsion_from_alexander(ae, g) == 0
        assert torsion_from_alexander(ae, g + 3) == 0


def test_torsion_difference_examples():
    assert torsion_difference((2, 1), 1) == 1
    assert torsion_difference((2, 1), 2) == 0
    assert torsion_difference((3, 2, 1), 0) == 1


def test_torsion_difference_consistency():
    rng = random.Random(31)
    for _ in range(60):
        g = rng.randint(1, 9)
        rest = sorted(rng.sample(range(1, g), rng.randint(0, g - 1)), reverse=True)
        ae = AlexanderExponents((g, *rest))
        for i in range(g + 2):
            assert torsion_difference(ae, i) == torsion_from_alexander(
                ae, i
            ) - torsion_from_alexander(ae, i + 1)


def test_lens_space_flag_gates_second_exponent():
    with pytest.raises(ValueError):
        AlexanderExponents((3, 1), lens_space=True)
    assert AlexanderExponents((3, 1)).genus == 3
    assert AlexanderExponents((3, 2), lens_space=True).r == 2


def test_torsion_sequence_validation():
    assert TorsionSequence((1, 1, 0, 0)).values == (1, 1, 0)
    assert TorsionSequence((0,)).genus == 0
    with pytest.raises(ValueError):
        TorsionSequence((2, 0))
    with pytest.raises(ValueError):
        TorsionSequence((1, 2, 0))
    with pytest.raises(ValueError):
        TorsionSequence((1, 1))
    with pytest.raises(ValueError):
        TorsionSequence((-1, 0))
    with pytest.raises(ValueError):
        TorsionSequence(())


def test_exponents_from_torsion_examples():
    assert exponents_from_torsion((1, 1, 0)).exponents == (2, 1)
    assert exponents_from_torsion((2, 1, 1, 0)).exponents == (3, 2, 1)
    assert exponents_from_torsion((0,)).exponents == ()


def test_exponents_from_torsion_inverts_all_small_sequences():
    for g in range(1, 9):
        for r_tail in range(g):
            for rest in itertools.combinations(range(1, g), r_tail):
                ae = AlexanderExponents((g, *sorted(rest, reverse=True)))
                stair = [torsion_from_alexander(ae, i) for i in range(g + 1)]
                assert exponents_from_torsion(stair).exponents == ae.exponents


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=200).flatmap(
        lambda g: st.tuples(st.just(g), st.lists(st.booleans(), min_size=g - 1, max_size=g - 1))
    )
)
def test_exponents_from_torsion_inverts_reference_staircases(case):
    g, keep = case
    ae = AlexanderExponents((g, *(n for n in range(g - 1, 0, -1) if keep[n - 1])))
    stair = [torsion_from_alexander(ae, i) for i in range(g + 1)]
    assert exponents_from_torsion(stair).exponents == ae.exponents


def test_genus_from_changemaker():
    assert genus_from_changemaker((1, 2, 2)) == 2
    assert genus_from_changemaker((1, 1, 1, 1)) == 0
    assert genus_from_changemaker((1, 1, 3)) == 3
    with pytest.raises(ValueError):
        genus_from_changemaker((0, 1, 1))


def test_torsion_from_changemaker_worked_example():
    assert torsion_from_changemaker((1, 2, 2), 2) == 0
    assert torsion_from_changemaker((1, 2, 2), 0) == 1
    assert torsion_from_changemaker((1, 2, 2), 1) == 1


def test_torsion_from_changemaker_index_domain():
    with pytest.raises(ValueError):
        torsion_from_changemaker((1, 2, 2), -1)
    with pytest.raises(ValueError):
        torsion_from_changemaker((1, 2, 2), 5)
    assert torsion_from_changemaker((1, 2, 2), 4) == 0  # between g and p/2


def test_torsion_staircases():
    assert torsion_staircase((1, 1)) == (0,)
    assert torsion_staircase((1,)) == (0,)
    assert torsion_staircase((1, 1, 3)) == (1, 1, 1, 0)
    assert torsion_staircase((1, 2, 2)) == (1, 1, 0)


def test_characteristic_residues_level_zero():
    # sums over +-1 vectors against (1, 2, 2), mod 18
    got = characteristic_residues((1, 2, 2), 0)
    assert got == frozenset({1, 3, 5, 13, 15, 17})


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=5),
)
def test_min_costs_against_brute_force(sig, modulus, bound):
    dp = _min_costs(tuple(sig), modulus, bound)
    expected = min_odd_costs(sig, modulus, bound)
    for r in range(modulus):
        if r in expected:
            assert dp[r] == expected[r], r
        else:
            assert dp[r] >= _INF, r
        assert dp[r] == dp[-r % modulus], r


@st.composite
def _dp_cases(draw, max_rank=7):
    """A changemaker of rank <= max_rank with sigma_0 = 1, a coordinate
    bound up to about twice the certified loop's first one, and either the
    staircase modulus 2p or an odd modulus up to 2p + 1; small moduli fold
    the integer-sum window before the first coordinate, large ones late
    or never."""
    sig = [1]
    for _ in range(draw(st.integers(min_value=0, max_value=max_rank))):
        sig.append(draw(st.integers(min_value=sig[-1], max_value=1 + sum(sig))))
    p = sum(x * x for x in sig)
    g = (p - sum(sig)) // 2
    bound = draw(st.integers(min_value=1, max_value=2 * math.isqrt(4 * g + len(sig) + 1)))
    odd = st.integers(min_value=0, max_value=p).map(lambda k: 2 * k + 1)
    modulus = draw(st.one_of(st.just(2 * p), odd))
    return tuple(sig), modulus, bound


@settings(max_examples=150, deadline=None)
@given(_dp_cases())
@example(((1, 1, 3), 5, 3))  # the window folds before coordinate 0
@example(((1, 2, 4, 8), 170, 9))  # it folds before coordinate 3
@example(((1, 2, 4, 8), 170, 1))  # it folds after the last coordinate
def test_min_costs_against_cyclic_oracle(case):
    sig, modulus, bound = case
    got = _min_costs(sig, modulus, bound)
    want = min_costs_cyclic(sig, modulus, bound)
    reached = want < CYCLIC_INF
    assert got.shape == want.shape
    assert ((got < _INF) == reached).all()
    assert (got[reached] == want[reached]).all()
    assert (got[~reached] >= _INF).all()
    assert (got == got[-np.arange(modulus) % modulus]).all()


def test_bound_regrowth_from_bound_one(monkeypatch):
    """Started from bound 1, the certified loop must run both growth
    branches (needed residues unreachable: double; reachable but the bound
    too small to certify them: grow to `required`) and still return the
    exact staircases."""
    small = [sig for rank in (1, 2, 3) for sig in iter_changemakers(rank)]
    rank5 = random.Random(5).sample(list(iter_changemakers(5)), 40)
    torsion._staircase_cached.cache_clear()
    default = {sig: torsion_staircase(sig) for sig in rank5}
    real = torsion._min_costs
    reached = {}  # sig -> per _min_costs call: were all needed residues reached?

    def recording(sig, modulus, bound):
        costs = real(sig, modulus, bound)
        p = modulus // 2
        g = (p - sum(sig)) // 2
        needed = [(p - 2 * i) % modulus for i in range(g + 1)]
        reached.setdefault(sig, []).append(all(costs[r] < _INF for r in needed))
        return costs

    monkeypatch.setattr(torsion, "_start_bound", lambda g, n1: 1)
    monkeypatch.setattr(torsion, "_min_costs", recording)
    torsion._staircase_cached.cache_clear()
    try:
        for sig in small:
            stair = torsion_staircase(sig)
            for i in range(genus_from_changemaker(sig) + 1):
                assert stair[i] == min_level_by_scan(sig, i), (sig, i)
        for sig in rank5:
            assert torsion_staircase(sig) == default[sig], sig
    finally:
        torsion._staircase_cached.cache_clear()
    regrown = [flags[:-1] for flags in reached.values()]
    assert any(False in flags for flags in regrown)  # unreachable -> double
    assert any(True in flags for flags in regrown)  # uncertified -> required
    assert all(flags[-1] for flags in reached.values())


class _ReachedDP(Exception):
    pass


@pytest.mark.parametrize(
    "sigma",
    [
        (*(2**k for k in range(10)), 908, 908),  # p = 1,998,453: about 20 s
        (1, 1, *(2**k for k in range(1, 9)), *(300,) * 12),  # rank 21: about 27 s
    ],
)
def test_measured_staircases_pass_the_capacity_checks(monkeypatch, sigma):
    def reached(*args):
        raise _ReachedDP

    monkeypatch.setattr(torsion, "_min_costs", reached)
    with pytest.raises(_ReachedDP):
        torsion_staircase(sigma)


def test_scan_agrees_with_dp_on_small_changemakers():
    small = [sig for rank in (1, 2, 3) for sig in iter_changemakers(rank)]
    rank4 = random.Random(4).sample(list(iter_changemakers(4)), 48)
    for sig in small + rank4:
        g = genus_from_changemaker(sig)
        stair = torsion_staircase(sig)
        for i in range(g + 1):
            assert stair[i] == min_level_by_scan(sig, i)


def test_torsion_at_most_matches_exact_values():
    for rank in (1, 2, 3):
        for sig in iter_changemakers(rank):
            g = genus_from_changemaker(sig)
            for i in range(g + 1):
                t = torsion_from_changemaker(sig, i)
                for level in range(4):
                    assert torsion_at_most(sig, i, level) == (t <= level)


def test_witness_examples():
    assert lemma4_witness((1, 1, 3)).coords == (1, 1, 3)
    assert lemma4_witness((1, 1, 1, 3)).coords == (1, 1, 1, 3)
    w = lemma4_witness((1, 2, 4))
    assert w.coords == (-1, 1, 3)
    assert w.level == 1
    # p = 21, |sigma|_1 = 7, g = 7: the pairing lands at 2g - 6 = 8
    assert genus_from_changemaker((1, 2, 4)) == 7
    assert 21 + inner_product(w.coords, (1, 2, 4)) == 8


def test_witness_inapplicable():
    with pytest.raises(ValueError):
        lemma4_witness((1, 2, 2))


def test_witness_contract_over_small_census():
    for rank in (2, 3, 4, 5):
        for sig in iter_changemakers(rank):
            if sig[-1] < 3:
                continue
            w = lemma4_witness(sig)
            g = genus_from_changemaker(sig)
            p = sum(x * x for x in sig)
            assert w.level == 1
            assert p + inner_product(w.coords, sig) == 2 * g - 6
            assert p + inner_product(w.coords, sig) == p - sum(sig) - 6
            # and the witness certifies the torsion bound three below genus
            assert torsion_at_most(sig, g - 3, 1)
            assert torsion_from_changemaker(sig, g - 3) == 1
