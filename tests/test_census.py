import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cmkit.census as census
import cmkit.changemaker
import cmkit.torsion
from cmkit import (
    CapacityError,
    ChangemakerVector,
    SummaryAccumulator,
    build_record,
    run_census,
    torsion_at_most,
    verify_claim,
)
from cmkit.census import (
    BIG_TAIL,
    CLAW,
    DECOMPOSABLE,
    FAMILY_ONE,
    FAMILY_THREE,
    OTHER,
    _lemma4_instance,
    _lemma4_ok,
)
from cmkit.changemaker import iter_changemakers, iter_changemakers_with_sums
from cmkit.cli import main

from oracle_utils import (
    lemma4_record_by_objects,
    reaches_lemma4_target,
    staircase_from_exponents,
    theorem1_hypothesis_by_objects,
    walk_state,
)


def test_build_record_family_one():
    rec = build_record((1, 2, 2))
    assert rec.classification == FAMILY_ONE
    assert rec.k == 1
    assert rec.linear == (9, 2)
    assert rec.torsion == (1, 1, 0)
    assert rec.exponents == (2, 1)
    assert rec.g == 2
    assert not rec.theorem1_applicable
    assert rec.theorem1_verified is None


def test_build_record_family_one_genus_three():
    rec = build_record((1, 2, 2, 2))
    assert rec.linear == (13, 3)
    assert rec.torsion == (2, 1, 1, 0)
    assert rec.theorem1_applicable
    assert rec.theorem1_verified is True


def test_build_record_family_three():
    rec = build_record((1, 1, 1, 2, 2, 2))
    assert rec.classification == FAMILY_THREE
    assert rec.k == 3
    assert rec.g == 3
    assert rec.p == 15
    assert rec.linear is not None and rec.linear[0] == 15
    assert rec.theorem1_applicable
    assert rec.theorem1_verified is True


def test_build_record_decomposable_and_claw():
    rec = build_record((1, 1, 2))
    assert rec.classification == DECOMPOSABLE
    assert rec.linear is None

    rec = build_record((1, 1, 1, 1, 2))
    assert rec.classification == CLAW
    assert rec.linear is None


def test_build_record_big_tail_and_all_ones():
    rec = build_record((1, 1, 3))
    assert rec.classification == BIG_TAIL
    assert rec.linear is None
    assert rec.torsion == (1, 1, 1, 0)

    rec = build_record((1, 1, 1))
    assert rec.classification == OTHER
    assert rec.g == 0
    assert rec.torsion == (0,)
    assert rec.exponents == ()


def test_run_census_order_and_summary():
    records = list(run_census(2))
    assert [r.sigma for r in records] == [
        (1, 1),
        (1, 2),
        (1, 1, 1),
        (1, 1, 2),
        (1, 1, 3),
        (1, 2, 2),
        (1, 2, 3),
        (1, 2, 4),
    ]
    acc = SummaryAccumulator()
    for rec in records:
        acc.add(rec)
    summary = acc.as_dict()
    assert summary["records"] == 8
    assert summary["lemma5_holds"] is True
    assert summary["theorem1_holds"] is True
    assert summary["counts"][FAMILY_ONE] == 2
    assert summary["counts"][DECOMPOSABLE] == 1
    assert summary["counts"][BIG_TAIL] == 3
    assert summary["counts"][OTHER] == 2


def test_run_census_sigma_n_filter():
    records = list(run_census(3, sigma_n=2))
    assert [r.sigma for r in records] == [
        (1, 2),
        (1, 1, 2),
        (1, 2, 2),
        (1, 1, 1, 2),
        (1, 1, 2, 2),
        (1, 2, 2, 2),
    ]
    assert all(r.sigma[-1] == 2 for r in records)


def test_run_census_capacity_and_domain():
    with pytest.raises(CapacityError):
        list(run_census(11))
    with pytest.raises(ValueError):
        list(run_census(-1))
    assert list(run_census(0)) == []


def test_rank_caps_are_read_at_call_time(monkeypatch, capsys):
    monkeypatch.setattr(census, "VERIFY_MAX_RANK", 3)
    monkeypatch.setattr(census, "CENSUS_MAX_RANK", 2)
    monkeypatch.setattr(cmkit.changemaker, "ENUMERATION_MAX_RANK", 2)
    with pytest.raises(CapacityError):
        verify_claim("lemma5", 4)
    assert main(["verify", "lemma5", "--max-rank", "4"]) == 3
    assert capsys.readouterr().out == ""
    with pytest.raises(CapacityError):
        run_census(3)
    with pytest.raises(CapacityError):
        list(iter_changemakers(3))
    assert verify_claim("lemma5", 3).holds


def test_verify_small_ranks_hold():
    for claim in ("lemma4", "lemma5", "theorem1"):
        result = verify_claim(claim, 4)
        assert result.holds
        assert result.counterexamples == []


def test_verify_lemma4_rank_one_vacuous():
    result = verify_claim("lemma4", 1)
    assert result.holds
    assert result.instances == 0


def test_verify_lemma5_instances_are_tail_two():
    seen = []
    result = verify_claim("lemma5", 4, emit=seen.append)
    assert result.holds
    assert len(seen) == result.instances
    assert all(info["sigma"][-1] == 2 for info in seen)
    families = {tuple(info["sigma"]): info["family"] for info in seen}
    assert families[(1, 2, 2)] == FAMILY_ONE
    assert families[(1, 1, 1, 2)] == FAMILY_THREE
    assert families[(1, 1, 2)] is None


def test_lemma5_walk_writes_every_tail_of_2s_vector():
    for rank in range(1, 7):
        walked = [sig for sig, _ in census._lemma5_walk(rank, None)]
        assert walked == [sig for sig in iter_changemakers(rank) if sig[-1] == 2]


def test_verify_theorem1_instances():
    seen = []
    result = verify_claim("theorem1", 5, emit=seen.append)
    assert result.holds
    by_sigma = {tuple(info["sigma"]): info for info in seen}
    # chain families of genus >= 3 are hypothesis instances with conclusions
    assert by_sigma[(1, 2, 2, 2)]["linear"] == [13, 3]
    assert by_sigma[(1, 1, 1, 2, 2, 2)]["linear"] == [15, 11]
    # a decomposable vector may pass the staircase filter; it is vacuous
    assert by_sigma[(1, 1, 2, 2, 2)]["linear"] is None
    assert by_sigma[(1, 1, 2, 2, 2)]["vacuous"] is True
    for info in seen:
        assert info["ok"]
        if info.get("linear") is not None:
            assert info["torus_match"] and info["p_ok"] and info["gerstein_ok"]


def test_theorem1_instances_at_rank_eight_are_the_closed_form():
    # t_{g-3} >= 2 and t_{g-2} = 1 hold exactly for (1^k, 2^m) with
    # k >= 1 and m >= 3: n - 2 vectors at rank n, k falling within a rank
    seen = []
    result = verify_claim("theorem1", 8, emit=seen.append)
    expected = [
        [1] * k + [2] * (rank + 1 - k) for rank in range(3, 9) for k in range(rank - 2, 0, -1)
    ]
    assert [info["sigma"] for info in seen] == expected
    assert result.instances == len(expected) == 21 and result.holds


def test_verify_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_claim("lemma6", 3)
    with pytest.raises(CapacityError):
        verify_claim("lemma4", 9)


def test_lemma4_fast_path_agrees_with_instance_path():
    for rank in (2, 3, 4, 5):
        for sig, *state in iter_changemakers_with_sums(rank, signed_sums=True):
            if sig[-1] < 3:
                continue
            lean = _lemma4_ok(sig, state[0], state[3])
            full = _lemma4_instance(sig, tuple(state))
            assert lean == full["ok"] == True  # noqa: E712


def test_verify_emit_and_quiet_agree():
    for claim in ("lemma4", "lemma5", "theorem1"):
        quiet = verify_claim(claim, 4)
        seen = []
        loud = verify_claim(claim, 4, emit=seen.append)
        assert quiet.instances == loud.instances == len(seen)
        assert quiet.holds == loud.holds


def _per_vector_sweeps(rank):
    """Per-vector oracle for one rank of the quiet lemma4 sweep and the
    theorem1 sweep above the deep rank: every vector of the full
    enumeration, one bitset probe each.  Every vector the probe does not
    settle gets its lemma4 record, a counterexample when its "ok" is
    false, and is sent to _check_theorem1, genus < 3 included.  Looks
    _lemma4_ok, _lemma4_instance and _check_theorem1 up at call time so
    that monkeypatches apply."""
    lemma4_instances, lemma4_bad, theorem1_calls = 0, [], []
    for sig, total, _sumsq, _low, level1 in iter_changemakers_with_sums(rank, signed_sums=True):
        ok = sig[-1] >= 3 and census._lemma4_ok(sig, total, level1)
        if sig[-1] >= 3:
            lemma4_instances += 1
            if not ok:
                info = census._lemma4_instance(sig, walk_state(sig))
                if not info["ok"]:
                    lemma4_bad.append(info)
        if not ok:
            theorem1_calls.append(sig)
    return lemma4_instances, lemma4_bad, theorem1_calls


def _theorem1_instances(sigmas):
    infos = (census._check_theorem1(sig, walk_state(sig)) for sig in sigmas)
    return [info for info in infos if info is not None]


def test_prefix_sweeps_match_per_vector_enumeration(monkeypatch):
    monkeypatch.setattr(census, "DEEP_CHECK_MAX_RANK", 0)
    instances, bad, theorem1 = 0, [], []
    for rank in range(1, 8):
        rank_instances, rank_bad, calls = _per_vector_sweeps(rank)
        instances += rank_instances
        bad += rank_bad
        theorem1 += _theorem1_instances(calls)
        lemma4 = verify_claim("lemma4", rank)
        assert (lemma4.instances, lemma4.counterexamples) == (instances, bad)
        seen = []
        result = verify_claim("theorem1", rank, emit=seen.append)
        assert seen == theorem1
        assert result.instances == len(theorem1)
        assert result.counterexamples == [info for info in theorem1 if not info["ok"]]
    assert instances == 1_785_372 and len(theorem1) == 15


def test_prefix_theorem1_sweep_matches_the_deep_path(monkeypatch):
    # the deep path sends every vector of genus >= 3 to the staircase
    # filter, with no prefix probe at all
    deep = []
    verify_claim("theorem1", 6, emit=deep.append)
    monkeypatch.setattr(census, "DEEP_CHECK_MAX_RANK", 0)
    factored = []
    verify_claim("theorem1", 6, emit=factored.append)
    assert factored == deep


REJECTED_PREFIX = (1, 1, 3)


def test_failed_prefix_is_walked_vector_by_vector(monkeypatch):
    # every completion of a rejected prefix reaches the record checks, in
    # lexicographic order and with its own state; the counterexamples are
    # the records among them whose "ok" is false (here, by a spy, those
    # ending in an even entry), not the whole block
    ok = census._lemma4_ok
    monkeypatch.setattr(
        census, "_lemma4_ok", lambda sig, *sums: sig[:3] != REJECTED_PREFIX and ok(sig, *sums)
    )
    monkeypatch.setattr(census, "DEEP_CHECK_MAX_RANK", 0)
    max_rank = 5
    oracle = [_per_vector_sweeps(rank) for rank in range(1, max_rank + 1)]
    expected_calls = [sig for _, _, rank_calls in oracle for sig in rank_calls]
    completions = [
        sig
        for rank in range(1, max_rank + 1)
        for sig in iter_changemakers(rank)
        if sig[:3] == REJECTED_PREFIX
    ]
    assert len(completions) > 50

    lemma4_checked, records, theorem1_checked = [], [], []
    lemma4_instance, check_theorem1 = census._lemma4_instance, census._check_theorem1

    def lemma4_spy(sig, state):
        lemma4_checked.append((sig, state))
        info = lemma4_instance(sig, state)
        info["ok"] = info["ok"] and sig[-1] % 2 == 1
        records.append(info)
        return info

    def theorem1_spy(sig, state):
        theorem1_checked.append((sig, state))
        return check_theorem1(sig, state)

    monkeypatch.setattr(census, "_lemma4_instance", lemma4_spy)
    monkeypatch.setattr(census, "_check_theorem1", theorem1_spy)

    lemma4 = verify_claim("lemma4", max_rank)
    assert [sig for sig, _ in lemma4_checked] == completions
    assert all(state == walk_state(sig) for sig, state in lemma4_checked)
    assert lemma4.counterexamples == [info for info in records if not info["ok"]]
    assert 0 < len(lemma4.counterexamples) < len(completions)
    assert lemma4.instances == sum(n for n, _, _ in oracle)

    theorem1 = verify_claim("theorem1", max_rank)
    calls = [sig for sig, _ in theorem1_checked]
    assert calls == expected_calls
    assert all(state == walk_state(sig) for sig, state in theorem1_checked)
    assert [sig for sig in calls if sig[:3] == REJECTED_PREFIX] == completions
    assert all(max(sig) <= 2 for sig in calls if sig[:3] != REJECTED_PREFIX)
    low_genus = [sig for sig in calls if (sum(v * v for v in sig) - sum(sig)) // 2 < 3]
    assert low_genus and all(check_theorem1(sig, walk_state(sig)) is None for sig in low_genus)
    assert theorem1.instances == len(_theorem1_instances(expected_calls))


def test_prefix_probe_settles_blocks_without_the_witness(monkeypatch, tmp_path):
    # a witness broken for the completions of (1, 1, 3) fails their deep
    # path records, ranks 2-6, each through its own record; at rank 7 the
    # probe settles the (1, 1, 3) block on the carried bitset, which does
    # not read the witness, so no rank-7 completion becomes a record
    coords = census._witness_coords

    def broken(sig):
        c = coords(sig)
        return (-c[0], *c[1:]) if sig[:3] == REJECTED_PREFIX else c

    monkeypatch.setattr(census, "_witness_coords", broken)
    target = tmp_path / "verdict.jsonl"
    assert main(["verify", "lemma4", "--max-rank", "7", "--quiet", "--out", str(target)]) == 1
    _header, verdict = target.read_text().splitlines()
    verdict = json.loads(verdict)
    assert verdict["instances"] == 1_785_372 and verdict["holds"] is False
    bad = verdict["counterexamples"]
    completions = [
        list(sig)
        for rank in range(2, 7)
        for sig, _, _ in iter_changemakers_with_sums(rank, prefix=REJECTED_PREFIX)
    ]
    assert [info["sigma"] for info in bad] == completions
    assert len(bad) == 6_543
    assert all(info["level"] == 1 and info["torsion_le_1"] for info in bad)
    assert not any(info["identity_ok"] or info["ok"] for info in bad)


def test_failed_witness_sub_check_is_a_counterexample_record(monkeypatch, capsys):
    # a wrong greedy set for (1, 2, 4): index 1 pays 2, not sigma_2 - 3 = 1,
    # so the witness (1, -1, 3) still has level 1 but misses the identity
    representation = cmkit.torsion._greedy_change

    def wrong_for_124(sigma, target):
        return (1,) if tuple(sigma) == (1, 2, 4) else representation(sigma, target)

    monkeypatch.setattr(cmkit.torsion, "_greedy_change", wrong_for_124)
    result = verify_claim("lemma4", 2)
    assert not result.holds
    (bad,) = result.counterexamples
    assert bad["sigma"] == [1, 2, 4] and bad["witness"] == [1, -1, 3]
    assert bad["level"] == 1 and bad["identity_ok"] is False and bad["ok"] is False

    assert main(["verify", "lemma4", "--max-rank", "2", "--quiet"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    verdict = json.loads(lines[-1])
    assert verdict["kind"] == "verdict" and verdict["holds"] is False
    assert verdict["counterexamples"] == [bad]


def test_census_and_sweeps_agree_on_their_instances():
    # the census decides theorem1's hypothesis on the DP staircase, the
    # sweep on subset-sum bitsets; lemma5's walk writes its vectors down
    max_rank = 5
    records = list(run_census(max_rank))
    theorem1, lemma5 = [], []
    verify_claim("theorem1", max_rank, emit=theorem1.append)
    verify_claim("lemma5", max_rank, emit=lemma5.append)
    assert [rec.sigma for rec in records if rec.theorem1_applicable] == [
        tuple(info["sigma"]) for info in theorem1
    ]
    assert [rec.sigma for rec in records if rec.sigma[-1] == 2] == [
        tuple(info["sigma"]) for info in lemma5
    ]
    assert len(theorem1) == 6 and len(lemma5) == 15


def test_every_small_census_staircase_inverts_and_round_trips():
    # exponents_from_torsion does not rebuild the staircase it inverts;
    # here every census staircase of rank <= 5 inverts and its ladder
    # rebuilds it
    records = list(run_census(5))
    assert len(records) == 2_507
    for rec in records:
        assert rec.exponents is not None
        assert staircase_from_exponents(rec.exponents) == rec.torsion


def test_lemma4_ok_holds_on_every_prefix():
    # every stopped prefix of ranks 3-10 passes the probe, so the prefix
    # walks settle every block; the greedy witness of the prefix is one
    # level-1 vector with the sum the probe looks for
    prefixes = [
        (prefix, total, level1)
        for rank in range(3, 11)
        for prefix, total, _sumsq, _low, level1 in iter_changemakers_with_sums(
            rank, stop_at=3, signed_sums=True
        )
        if prefix[-1] >= 3
    ]
    assert len(prefixes) == 1_482 and len(set(prefixes)) == 495
    assert all(_lemma4_ok(*item) for item in prefixes)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=7).map(
        lambda entries: tuple(sorted(entries))
    )
)
@example((1,))
@example((2,))
@example((1, 1))
@example((2, 2))
@example((3,))
@example((1, 1, 3))
def test_lemma4_probe_matches_brute_force(sig):
    # any nondecreasing positive tuple, changemaker or not: the probe is
    # true exactly when some level <= 1 vector sums to |sigma|_1 + 6
    total, _p, _low, level1 = walk_state(sig)
    assert _lemma4_ok(sig, total, level1) == reaches_lemma4_target(sig)


def _carried_answers(state, i):
    """(t_i <= 0, t_i <= 1) read off the carried bitsets: low probed by
    the same layout as level1."""
    total, p, low, _level1 = state
    return census._torsion_le_1((total, p, low, low), i), census._torsion_le_1(state, i)


def test_carried_bitsets_match_torsion_at_most_exhaustively():
    cases = 0
    for rank in range(1, 6):
        for sig, *state in iter_changemakers_with_sums(rank, signed_sums=True):
            assert tuple(state) == walk_state(sig)
            cm = ChangemakerVector(sig)  # validated once, not once per call
            for i in range(cm.p // 2 + 1):
                expected = torsion_at_most(cm, i, 0), torsion_at_most(cm, i, 1)
                assert _carried_answers(tuple(state), i) == expected, (sig, i)
                cases += 1
    assert cases == 399_341


@st.composite
def _high_rank_cases(draw):
    sig = [1]
    for _ in range(draw(st.integers(min_value=6, max_value=10))):
        sig.append(draw(st.integers(min_value=sig[-1], max_value=1 + sum(sig))))
    p = sum(v * v for v in sig)
    indices = st.lists(st.integers(min_value=0, max_value=p // 2), min_size=1, max_size=8)
    return tuple(sig), draw(indices)


@settings(max_examples=150, deadline=None)
@given(_high_rank_cases())
def test_carried_bitsets_match_torsion_at_most_at_high_rank(case):
    sig, indices = case
    state = walk_state(sig)
    g = (state[1] - state[0]) // 2
    for i in {*indices, max(g - 3, 0), max(g - 2, 0)}:
        expected = torsion_at_most(sig, i, 0), torsion_at_most(sig, i, 1)
        assert _carried_answers(state, i) == expected, (sig, i)


def test_sweep_records_match_the_object_route():
    max_rank = 5
    lemma4, theorem1 = [], []
    verify_claim("lemma4", max_rank, emit=lemma4.append)
    verify_claim("theorem1", max_rank, emit=theorem1.append)
    vectors = [sig for rank in range(1, max_rank + 1) for sig in iter_changemakers(rank)]
    assert lemma4 == [lemma4_record_by_objects(sig) for sig in vectors if sig[-1] >= 3]
    assert len(lemma4) == 2_487
    assert [tuple(info["sigma"]) for info in theorem1] == [
        sig for sig in vectors if theorem1_hypothesis_by_objects(sig)
    ]


def test_every_checked_vector_gets_its_own_state(monkeypatch):
    # the state reaches the deep path, the non-quiet lemma4 path, the
    # prefix= blocks of a failed prefix and the all-<= 2 vectors above the
    # deep rank
    checked = []
    for name in ("_lemma4_instance", "_check_theorem1"):
        check = getattr(census, name)

        def spy(sig, state, check=check):
            checked.append((sig, state))
            return check(sig, state)

        monkeypatch.setattr(census, name, spy)
    ok = census._lemma4_ok
    monkeypatch.setattr(
        census, "_lemma4_ok", lambda sig, *sums: sig[:3] != REJECTED_PREFIX and ok(sig, *sums)
    )
    for deep in (census.DEEP_CHECK_MAX_RANK, 0):
        monkeypatch.setattr(census, "DEEP_CHECK_MAX_RANK", deep)
        for claim in ("lemma4", "theorem1"):
            verify_claim(claim, 5)
        verify_claim("lemma4", 4, emit=lambda info: None)
    blocks = {sig for sig, _ in checked if sig[:3] == REJECTED_PREFIX}
    assert len(checked) > 5_000 and len(blocks) > 50
    assert all(state == walk_state(sig) for sig, state in checked)


def test_failed_torsion_sub_check_is_a_counterexample_record(monkeypatch, capsys):
    # (1, 2, 4) is the one vector of rank <= 2 with |sigma|_1 = 7 and p = 21
    probe = census._torsion_le_1
    monkeypatch.setattr(
        census, "_torsion_le_1", lambda state, i: state[:2] != (7, 21) and probe(state, i)
    )
    result = verify_claim("lemma4", 2)
    (bad,) = result.counterexamples
    assert bad["sigma"] == [1, 2, 4] and bad["witness"] == [-1, 1, 3]
    assert bad["level"] == 1 and bad["identity_ok"] is True
    assert bad["torsion_le_1"] is False and bad["ok"] is False

    assert main(["verify", "lemma4", "--max-rank", "2", "--quiet"]) == 1
    verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert verdict["holds"] is False and verdict["counterexamples"] == [bad]
