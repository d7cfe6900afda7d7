import pytest

import cmkit.census as census
import cmkit.changemaker
from cmkit import (
    CapacityError,
    build_record,
    run_census,
    summarize,
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
    summary = summarize(records)
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
        walked = list(census._lemma5_walk(rank, None))
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


def test_verify_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_claim("lemma6", 3)
    with pytest.raises(CapacityError):
        verify_claim("lemma4", 9)


def test_lemma4_fast_path_agrees_with_instance_path():
    for rank in (2, 3, 4, 5):
        for sig, total, sumsq in iter_changemakers_with_sums(rank):
            if sig[-1] < 3:
                continue
            lean = _lemma4_ok(sig, total, sumsq)
            full = _lemma4_instance(sig)
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
    enumeration, one witness check each, and every vector the witness does
    not settle, genus < 3 included, sent to _check_theorem1.  Looks
    _lemma4_ok and _check_theorem1 up at call time so that monkeypatches
    apply."""
    lemma4_instances, lemma4_bad, theorem1_calls = 0, [], []
    for sig, total, sumsq in iter_changemakers_with_sums(rank):
        ok = sig[-1] >= 3 and census._lemma4_ok(sig, total, sumsq)
        if sig[-1] >= 3:
            lemma4_instances += 1
            if not ok:
                lemma4_bad.append(_lemma4_instance(sig))
        if not ok:
            theorem1_calls.append(sig)
    return lemma4_instances, lemma4_bad, theorem1_calls


def _theorem1_instances(sigmas):
    return [info for info in map(census._check_theorem1, sigmas) if info is not None]


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
    # filter, with no witness shortcut at all
    deep = []
    verify_claim("theorem1", 6, emit=deep.append)
    monkeypatch.setattr(census, "DEEP_CHECK_MAX_RANK", 0)
    factored = []
    verify_claim("theorem1", 6, emit=factored.append)
    assert factored == deep


REJECTED_PREFIX = (1, 1, 3)


def test_failed_prefix_is_walked_vector_by_vector(monkeypatch):
    ok = census._lemma4_ok

    def reject_prefix(sig, total, sumsq):
        return sig[:3] != REJECTED_PREFIX and ok(sig, total, sumsq)

    calls = []
    check = census._check_theorem1

    def spy(sig):
        calls.append(sig)
        return check(sig)

    monkeypatch.setattr(census, "DEEP_CHECK_MAX_RANK", 0)
    monkeypatch.setattr(census, "_lemma4_ok", reject_prefix)
    monkeypatch.setattr(census, "_check_theorem1", spy)
    max_rank = 5
    oracle = [_per_vector_sweeps(rank) for rank in range(1, max_rank + 1)]
    expected_calls = [sig for _, _, rank_calls in oracle for sig in rank_calls]
    calls.clear()

    lemma4 = verify_claim("lemma4", max_rank)
    completions = [
        sig
        for rank in range(1, max_rank + 1)
        for sig, _, _ in iter_changemakers_with_sums(rank)
        if sig[:3] == REJECTED_PREFIX
    ]
    assert len(completions) > 50
    assert lemma4.counterexamples == [_lemma4_instance(sig) for sig in completions]
    assert lemma4.instances == sum(n for n, _, _ in oracle)

    theorem1 = verify_claim("theorem1", max_rank)
    assert calls == expected_calls
    low_genus = [sig for sig in calls if (sum(v * v for v in sig) - sum(sig)) // 2 < 3]
    assert low_genus and all(check(sig) is None for sig in low_genus)
    assert [sig for sig in calls if sig[:3] == REJECTED_PREFIX] == completions
    assert theorem1.instances == len(_theorem1_instances(expected_calls))
