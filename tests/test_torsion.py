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
    build_record,
    coefficients,
    exponents_from_torsion,
    genus_from_changemaker,
    inner_product,
    iter_changemakers,
    lemma4_witness,
    torsion_at_most,
    torsion_from_alexander,
    torsion_from_changemaker,
    torsion_staircase,
    torus_knot_exponents,
)
from cmkit import torsion

from oracle_utils import (
    characteristic_residues,
    exponents_by_python_steps,
    min_costs_cyclic,
    min_covering_costs,
    min_level_by_scan,
    staircase_from_exponents,
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


def test_lens_space_flag_gates_second_exponent():
    with pytest.raises(ValueError):
        AlexanderExponents((3, 1), lens_space=True)
    assert AlexanderExponents((3, 1)).genus == 3
    assert AlexanderExponents((3, 2), lens_space=True).r == 2


def test_torsion_sequence_validation():
    assert TorsionSequence((1, 1, 0, 0)).values == (1, 1, 0)
    assert TorsionSequence((0,)).genus == 0
    with pytest.raises(ValueError, match="consecutive differences must be 0 or 1"):
        TorsionSequence((2, 0))
    with pytest.raises(ValueError, match="consecutive differences must be 0 or 1"):
        TorsionSequence((1, 2, 0))
    with pytest.raises(ValueError, match="sequence must terminate at 0"):
        TorsionSequence((1, 1))
    with pytest.raises(ValueError, match="consecutive differences must be 0 or 1"):
        TorsionSequence((-1, 0))
    with pytest.raises(ValueError, match="torsion sequence must be non-empty"):
        TorsionSequence(())


_INPUT_FORMS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda vals: (v for v in vals),
    "TorsionSequence": TorsionSequence,
    "int64 array": np.array,
    "uint8 array": lambda vals: np.array(vals, dtype=np.uint8),
    "numpy ints": lambda vals: tuple(map(np.int64, vals)),
}


@pytest.mark.parametrize("form", _INPUT_FORMS)
def test_every_input_form_gives_python_ints(form):
    stair = (3, 2, 1, 1, 0, 0, 0)
    seq = TorsionSequence(_INPUT_FORMS[form](stair))
    assert seq.values == (3, 2, 1, 1, 0)
    exps = exponents_from_torsion(_INPUT_FORMS[form](stair)).exponents
    assert exps == (4, 3, 2) == exponents_by_python_steps(stair)
    assert staircase_from_exponents(exps) == seq.values
    assert all(type(v) is int for v in (*seq.values, *exps))


@pytest.mark.parametrize("values", [(2**63, 0), (2**64, 2**64 - 1, 0), (-(2**63) - 1, 0)])
def test_values_past_int64_are_value_errors(values):
    with pytest.raises(ValueError, match="consecutive differences must be 0 or 1"):
        TorsionSequence(values)
    with pytest.raises(ValueError, match="consecutive differences must be 0 or 1"):
        exponents_from_torsion(values)


def test_exponents_past_int64_stay_python_ints():
    ae = AlexanderExponents((2**70, 2**70 - 1), lens_space=True)
    assert ae.genus == 2**70 and ae.r == 2
    assert coefficients(ae) == {0: 1, 2**70: 1, -(2**70): 1, 2**70 - 1: -1, 1 - 2**70: -1}


def _accepts(cls, values) -> bool:
    try:
        cls(values)
    except ValueError:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(min_value=-2, max_value=3), max_size=6))
@example([-1, 0])
@example([0, -1, 0])
@example([2, 0])
@example([3, 0])
@example([0, 1])
def test_validators_accept_what_the_dropped_checks_accepted(values):
    """The validators keep only the checks that can fail: the predicates
    below, which they once ran in full, still decide the same inputs."""
    pairs = list(zip(values, values[1:]))
    torsion_ok = (
        bool(values)
        and values[-1] == 0
        and all(v >= 0 for v in values)
        and all(a - b in (0, 1) for a, b in pairs)
    )
    exponents_ok = all(x > 0 for x in values) and all(a > b for a, b in pairs)
    assert _accepts(TorsionSequence, values) == torsion_ok
    assert _accepts(AlexanderExponents, values) == exponents_ok


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
                assert staircase_from_exponents(ae.exponents) == tuple(stair)


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
    assert exponents_by_python_steps(stair) == ae.exponents


@st.composite
def _changemakers_of_bounded_p(draw, min_rank, max_rank, max_p):
    """A changemaker with sigma_0 = 1, rank in [min_rank, max_rank] and
    p <= max_p: each entry leaves room for the rest, which are no smaller."""
    rank = draw(st.integers(min_value=min_rank, max_value=max_rank))
    sig, p = [1], 1
    for k in range(rank):
        top = min(1 + sum(sig), math.isqrt((max_p - p) // (rank - k)))
        sig.append(draw(st.integers(min_value=sig[-1], max_value=top)))
        p += sig[-1] ** 2
    return tuple(sig)


@settings(max_examples=100, deadline=None)
@given(_changemakers_of_bounded_p(6, 10, 20_000))
@example((1, 1, 1, 1, 1, 1, 1))
@example((1, 2, 4, 8, 16, 32, 64))
def test_inversion_matches_python_steps_on_changemaker_staircases(sig):
    stair = torsion_staircase(sig)
    exps = exponents_from_torsion(stair).exponents
    assert exps == exponents_by_python_steps(stair)
    assert staircase_from_exponents(exps) == stair


def test_genus_from_changemaker():
    assert genus_from_changemaker((1, 2, 2)) == 2
    assert genus_from_changemaker((1, 1, 1, 1)) == 0
    assert genus_from_changemaker((1, 1, 3)) == 3
    with pytest.raises(ValueError):
        genus_from_changemaker((0, 1, 1))


def test_sigma_0_of_zero_is_refused_on_every_route():
    # (0, 1, 1) is a changemaker with no genus formula; each route decides
    # sigma_0 = 1 once, by genus_from_changemaker
    sig = (0, 1, 1)
    routes = (
        lambda: torsion_from_changemaker(sig, 0),
        lambda: torsion_at_most(sig, 0, 1),
        lambda: torsion_staircase(sig),
        lambda: build_record(sig),
    )
    for route in routes:
        with pytest.raises(ValueError, match="sigma_0 = 1"):
            route()


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


@st.composite
def _knapsack_cases(draw):
    """Positive entries in any order and a table length up to 60 for
    which the brute force tries at most 20,000 vectors m."""
    sig = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4))
    top = 60
    while math.prod(-(-top // s) + 1 for s in sig) > 20_000:
        top -= 1
    return tuple(sig), draw(st.integers(min_value=0, max_value=top))


@settings(max_examples=200, deadline=None)
@given(_knapsack_cases())
@example(((1,), 0))
@example(((2, 5, 3), 13))
def test_min_costs_against_brute_force_knapsack(case):
    sig, top = case
    assert torsion._min_costs(sig, top).tolist() == min_covering_costs(sig, top)


@st.composite
def _changemakers(draw, max_rank):
    """A changemaker of rank <= max_rank with sigma_0 = 1."""
    sig = [1]
    for _ in range(draw(st.integers(min_value=0, max_value=max_rank))):
        sig.append(draw(st.integers(min_value=sig[-1], max_value=1 + sum(sig))))
    return tuple(sig)


@settings(max_examples=100, deadline=None)
@given(_changemakers(max_rank=7))
@example((1, 1, 3))
@example((1, 2, 4, 8, 16, 32, 64, 128))
def test_staircase_against_characteristic_dp(sig):
    """Every t_i is the least level of an odd vector meeting p - 2i mod
    2p, from the residue DP at a bound that covers every optimum up to
    level max(t): a level-k vector has sum(c_j^2) = (n+1) + 8k with every
    c_j^2 >= 1, so each |c_j| <= sqrt(8k + 1)."""
    stair = torsion_staircase(sig)
    p, g = sum(x * x for x in sig), genus_from_changemaker(sig)
    bound = math.isqrt(8 * max(stair) + 1) | 1
    costs = min_costs_cyclic(sig, 2 * p, bound)[(p - 2 * np.arange(g + 1)) % (2 * p)]
    assert ((costs - len(sig)) // 8).tolist() == list(stair)
    assert ((costs - len(sig)) % 8 == 0).all()


class _ReachedKnapsack(Exception):
    pass


@pytest.mark.parametrize(
    "sigma",
    [
        (*(2**k for k in range(10)), 908, 908),  # p = 1,998,453: about 4.3 s
        (1, 1, *(2**k for k in range(1, 9)), *(300,) * 12),  # rank 21: about 4.2 s
        (1, 1, *(2**k for k in range(1, 9)), *(300,) * 21),  # rank 30: about 13 s
        (1, 1, *(2**k for k in range(1, 8)), *(200,) * 49),  # rank 57: about 22 s
        tuple(2**k for k in range(12)),  # p = 5,592,405: about 20 s
        (1, 1, *(2**k for k in range(1, 10)), *(512,) * 15),  # work 7.0e10: about 28 s
    ],
)
def test_measured_staircases_pass_the_capacity_checks(monkeypatch, sigma):
    def reached(*args):
        raise _ReachedKnapsack

    monkeypatch.setattr(torsion, "_min_costs", reached)
    with pytest.raises(_ReachedKnapsack):
        torsion_staircase(sigma)


def test_scan_agrees_with_staircase_on_small_changemakers():
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
                for level in (0, 1):
                    assert torsion_at_most(sig, i, level) == (t <= level)
    with pytest.raises(ValueError):
        torsion_at_most((1, 1, 3), 0, 2)


@st.composite
def _index_cases(draw, max_rank=6):
    """A changemaker of rank <= max_rank with sigma_0 = 1 and an index in
    [0, p // 2], past the genus included."""
    sig = draw(_changemakers(max_rank))
    return sig, draw(st.integers(min_value=0, max_value=sum(x * x for x in sig) // 2))


@settings(max_examples=150, deadline=None)
@given(_index_cases())
@example(((1, 1, 3), 1))  # level 1 reached only through a -2 sigma_j offset
@example(((1, 1, 3), 5))  # i = p // 2, past the genus
def test_torsion_at_most_against_scan_and_staircase(case):
    sig, i = case
    p = sum(x * x for x in sig)
    target = (p - 2 * i) % (2 * p)
    stair = torsion_staircase(sig)
    t = stair[i] if i < len(stair) else 0
    level0 = target in characteristic_residues(sig, 0)
    level1 = level0 or target in characteristic_residues(sig, 1)
    assert torsion_at_most(sig, i, 0) == level0 == (t <= 0)
    assert torsion_at_most(sig, i, 1) == level1 == (t <= 1)


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
            # the knapsack's closed form, read off the staircase: t_i = 0
            # exactly when i >= g, and t_i <= 1 exactly when g - i <= sigma_n
            stair = torsion_staircase(sig)
            g = genus_from_changemaker(sig)
            assert [t == 0 for t in stair] == [i >= g for i in range(g + 1)]
            assert [t <= 1 for t in stair] == [g - i <= sig[-1] for i in range(g + 1)]
            if sig[-1] < 3:
                continue
            w = lemma4_witness(sig)
            p = sum(x * x for x in sig)
            assert w.level == 1
            assert p + inner_product(w.coords, sig) == 2 * g - 6
            assert p + inner_product(w.coords, sig) == p - sum(sig) - 6
            # and the witness certifies the torsion bound three below genus
            assert torsion_at_most(sig, g - 3, 1)
            assert torsion_from_changemaker(sig, g - 3) == 1
