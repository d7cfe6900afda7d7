import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmkit import (
    CapacityError,
    ChangemakerVector,
    CharacteristicVector,
    coordinate_free_check,
    is_changemaker,
    iter_changemakers,
    subset_representation,
)
from cmkit.changemaker import count_completions, iter_changemakers_with_sums
from cmkit.torsion import genus_from_changemaker

from oracle_utils import signed_sums


def test_is_changemaker_examples():
    assert is_changemaker((1, 1, 2))
    assert not is_changemaker((1, 3))
    assert is_changemaker((1, 1, 3))
    assert is_changemaker((0,))
    assert is_changemaker((1,))
    assert is_changemaker((1, 2, 4))
    assert not is_changemaker((2,))
    assert not is_changemaker((1, 2, 1))  # not nondecreasing
    assert not is_changemaker(())
    assert not is_changemaker((0, 2))
    assert not is_changemaker((-1, 1))


def test_coordinate_free_examples():
    assert coordinate_free_check((1, 2, 2))
    assert not coordinate_free_check((1, 3))
    assert coordinate_free_check((0,))


def test_coordinate_free_matches_signed_sum_definition():
    # the pairing values against +-1 vectors are exactly -(signed sums)
    for sig in [(1, 1, 2), (1, 2, 4), (1, 3), (2, 2), (1, 1, 1, 4), (0, 1, 1)]:
        one = sum(sig)
        values = signed_sums(sig)
        required = {j for j in range(-one, one + 1) if (j - one) % 2 == 0}
        assert coordinate_free_check(sig) == required.issubset(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6))
def test_equivalence_on_sorted_inputs(entries):
    sig = tuple(sorted(entries))
    assert is_changemaker(sig) == coordinate_free_check(sig)


def test_enumerate_rank_one():
    assert [s for s in iter_changemakers(1)] == [(1, 1), (1, 2)]


def test_enumerate_rank_two_tail_filter():
    got = [s for s in iter_changemakers(2) if s[-1] == 2]
    assert got == [(1, 1, 2), (1, 2, 2)]


def test_enumerate_rank_one_tail_three_empty():
    assert [s for s in iter_changemakers(1) if s[-1] == 3] == []


def test_enumerate_is_sorted_unique_and_valid():
    for rank in (1, 2, 3, 4):
        sigs = [s for s in iter_changemakers(rank)]
        assert sigs == sorted(sigs)
        assert len(sigs) == len(set(sigs))
        assert all(is_changemaker(s) for s in sigs)
        assert all(s[0] == 1 for s in sigs)


def test_enumerate_complete_against_box_scan():
    # brute force over the box [1, 2^i] catches anything the dfs would miss
    for rank in (1, 2, 3):
        boxes = [range(1, 2 ** (i + 1)) for i in range(rank + 1)]
        brute = {
            sig for sig in itertools.product(*boxes) if is_changemaker(sig)
        }
        assert set(iter_changemakers(rank)) == brute


def test_walk_against_sorted_box_scan():
    # sorted box scan: an independent oracle for the one walk, order included
    for rank in (1, 2, 3, 4):
        boxes = [range(1, 2 ** (i + 1)) for i in range(rank + 1)]
        brute = sorted(sig for sig in itertools.product(*boxes) if is_changemaker(sig))
        assert list(iter_changemakers(rank)) == brute


def test_enumerate_capacity_and_domain():
    with pytest.raises(CapacityError):
        list(iter_changemakers(11))
    with pytest.raises(ValueError):
        list(iter_changemakers(0))


def test_iter_with_sums_consistent():
    for rank in (1, 2, 3, 4):
        plain = list(iter_changemakers(rank))
        withsums = list(iter_changemakers_with_sums(rank))
        assert [s for s, _, _ in withsums] == plain
        assert all(t == sum(s) and q == sum(x * x for x in s) for s, t, q in withsums)


def test_iter_with_sums_prefix_and_stop_at():
    for rank in (1, 2, 3, 4, 5):
        full = list(iter_changemakers_with_sums(rank))
        prefixes = {sig[:n] for sig, _, _ in full for n in range(1, rank + 2)}
        for prefix in sorted(prefixes):
            block = [item for item in full if item[0][: len(prefix)] == prefix]
            assert list(iter_changemakers_with_sums(rank, prefix=prefix)) == block
        for stop_at in (2, 3, 4):
            rebuilt = []
            for sig, total, sumsq in iter_changemakers_with_sums(rank, stop_at=stop_at):
                assert total == sum(sig) and sumsq == sum(x * x for x in sig)
                if sig[-1] < stop_at:
                    assert len(sig) == rank + 1
                    rebuilt.append((sig, total, sumsq))
                else:
                    assert all(x < stop_at for x in sig[1:-1])
                    rebuilt += iter_changemakers_with_sums(rank, prefix=sig)
            assert rebuilt == full
    for bad in ((), (2,), (1, 3), (1, 1, 1, 1)):
        with pytest.raises(ValueError):
            list(iter_changemakers_with_sums(2, prefix=bad))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_count_completions_counts_enumerated_completions(data):
    prefix = [1]
    for _ in range(data.draw(st.integers(0, 3))):
        prefix.append(data.draw(st.integers(prefix[-1], sum(prefix) + 1)))
    left = data.draw(st.integers(0, 3))
    rank = len(prefix) - 1 + left
    assume(rank >= 1)
    walked = list(iter_changemakers_with_sums(rank, prefix=tuple(prefix)))
    assert all(sig[: len(prefix)] == tuple(prefix) for sig, _, _ in walked)
    assert count_completions(left, prefix[-1], sum(prefix), {}) == len(walked)


def test_changemaker_vector_properties():
    cm = ChangemakerVector((1, 2, 2))
    assert cm.p == 9
    assert cm.one_norm == 5
    assert cm.rank == 2
    with pytest.raises(ValueError):
        ChangemakerVector((1, 3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cached_facts_match_fresh_and_running_sums(data):
    sig = [1]
    for _ in range(data.draw(st.integers(1, 8))):
        sig.append(data.draw(st.integers(sig[-1], sum(sig) + 1)))
    sig = tuple(sig)
    cm = ChangemakerVector(sig)
    facts = (cm.p, cm.one_norm, genus_from_changemaker(cm))
    total, sumsq = sum(sig), sum(v * v for v in sig)
    assert facts == (sumsq, total, (sumsq - total) // 2)
    ((walked, run_total, run_sumsq),) = iter_changemakers_with_sums(len(sig) - 1, prefix=sig)
    assert (walked, run_total, run_sumsq) == (sig, total, sumsq)
    assert (cm.p, cm.one_norm) == (sumsq, total)  # read again, set at validation
    fresh = ChangemakerVector(sig)
    assert cm == fresh and hash(cm) == hash(fresh) and repr(cm) == repr(fresh)

    coords = data.draw(st.lists(st.integers(-9, 9).map(lambda x: 2 * x + 1), min_size=1))
    cv = CharacteristicVector(coords)
    squares = sum(c * c for c in coords)
    assert (squares - len(coords)) % 8 == 0
    assert cv.level == cv.level == (squares - len(coords)) // 8
    fresh = CharacteristicVector(coords)
    assert cv == fresh and hash(cv) == hash(fresh) and repr(cv) == repr(fresh)


def test_characteristic_vector_level():
    assert CharacteristicVector((1, 1, 1)).level == 0
    assert CharacteristicVector((1, 1, 3)).level == 1
    assert CharacteristicVector((-1, 1, 3)).level == 1
    with pytest.raises(ValueError):
        CharacteristicVector((1, 2, 1))


def test_subset_representation_examples():
    assert subset_representation((1, 1, 3), 0) == ()
    assert subset_representation((1, 2, 2), 3) == (0, 2)
    assert subset_representation((1, 1, 2), 4) == (0, 1, 2)


def test_subset_representation_out_of_range():
    with pytest.raises(ValueError):
        subset_representation((1, 1, 2), 5)
    with pytest.raises(ValueError):
        subset_representation((1, 1, 2), -1)


def test_subset_representation_always_succeeds():
    for rank in (1, 2, 3, 4):
        for sig in iter_changemakers(rank):
            one = sum(sig)
            for m in range(one + 1):
                picked = subset_representation(sig, m)
                assert sum(sig[k] for k in picked) == m
                assert len(set(picked)) == len(picked)


@st.composite
def _changemakers_of_rank_5_to_10(draw):
    """A changemaker of rank 5..10; sigma_0 = 0 is allowed, so greedy
    also meets zero entries."""
    sig = [draw(st.integers(min_value=0, max_value=1))]
    for _ in range(draw(st.integers(min_value=5, max_value=10))):
        sig.append(draw(st.integers(min_value=sig[-1], max_value=1 + sum(sig))))
    return tuple(sig)


@settings(max_examples=100, deadline=None)
@given(_changemakers_of_rank_5_to_10())
def test_subset_representation_always_succeeds_at_rank_5_to_10(sig):
    # subset_representation does not check that greedy paid; the argument
    # at changemaker._greedy_change says it always does, and this tests it
    cm = ChangemakerVector(sig)
    for m in range(cm.one_norm + 1):
        picked = subset_representation(cm, m)
        assert sum(sig[k] for k in picked) == m
        assert list(picked) == sorted(set(picked))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=11))
def test_subset_representation_greedy_deterministic(m):
    sig = (1, 1, 2, 3, 5)
    if m <= sum(sig):
        a = subset_representation(sig, m)
        b = subset_representation(sig, m)
        assert a == b
