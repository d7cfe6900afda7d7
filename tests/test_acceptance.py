"""Acceptance gate: every numbered criterion runs at its stated tolerance
(exact equality throughout) and prints one PASS line with its runtime.

Run with `pytest tests/test_acceptance.py -v -s`.  The three verification
sweeps at rank 8 cover the full census of 117,653,165 vectors: lemma4 and
theorem1 probe one carried bitset per prefix (up to the first entry >= 3)
and count or skip the completions of each, so each sweep takes under a
second.
"""

import itertools
import math
import time

from cmkit import (
    cf_evaluate,
    cf_expand,
    coordinate_free_check,
    genus_from_changemaker,
    gerstein_isomorphic,
    gram_matrix,
    is_changemaker,
    is_isometric,
    linear_gram,
    exponents_from_torsion,
    standard_basis,
    torsion_from_alexander,
    torsion_from_changemaker,
    torus_knot_exponents,
)
from cmkit.cli import main as cli_main

from oracle_utils import min_level_by_scan, nondecreasing_sequences


def _finish(num, label, started, limit=None):
    elapsed = time.perf_counter() - started
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.2f}s) {label}")


def test_acceptance_01_continued_fraction_identities():
    started = time.perf_counter()
    for g in range(1, 51):
        assert cf_expand(4 * g + 1, g) == [5] + [2] * (g - 1)
        assert cf_expand(4 * g + 3, 3 * g + 2) == [2, 2, 3] + [2] * (g - 1)
    _finish(1, "torus surgery continued-fraction identities, g = 1..50", started, 1.0)


def test_acceptance_02_round_trip():
    started = time.perf_counter()
    checked = 0
    for p in range(2, 501):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                assert cf_evaluate(cf_expand(p, q)) == (p, q)
                checked += 1
    assert checked > 75000
    _finish(2, f"cf_evaluate inverts cf_expand on {checked} pairs, p <= 500", started, 5.0)


def test_acceptance_03_changemaker_equivalence():
    started = time.perf_counter()
    checked = 0
    # sum <= 12 allows at most 12 nonzero entries; extra length only
    # prepends zeros, which affect neither criterion
    for sig in nondecreasing_sequences(12, 13):
        assert is_changemaker(sig) == coordinate_free_check(sig), sig
        checked += 1
    assert checked == 2596  # partitions of s <= 12 into <= 13 parts, zero-padded
    _finish(3, f"inequality form == subset-sum form on {checked} sequences", started, 30.0)


def test_acceptance_04_gram_golden_files():
    started = time.perf_counter()
    assert gram_matrix(standard_basis((1, 2, 2, 2, 2))) == (
        (-5, 1, 0, 0),
        (1, -2, 1, 0),
        (0, 1, -2, 1),
        (0, 0, 1, -2),
    )
    assert gram_matrix(standard_basis((1, 1, 1, 2, 2, 2))) == (
        (-2, 1, 0, 0, 0),
        (1, -2, 1, 0, 0),
        (0, 1, -3, 1, 0),
        (0, 0, 1, -2, 1),
        (0, 0, 0, 1, -2),
    )
    # same chains one rank up, for good measure
    assert gram_matrix(standard_basis((1, 2, 2, 2, 2, 2))) == linear_gram(21, 5)
    _finish(4, "standard-basis Gram matrices match the displayed chains", started)


def test_acceptance_05_torsion_oracle_agreement():
    started = time.perf_counter()
    families = [tuple([1] + [2] * n) for n in range(1, 7)]
    families += [tuple([1, 1, 1] + [2] * (n - 2)) for n in range(2, 7)]
    for sig in families:
        g = genus_from_changemaker(sig)
        if g == 0:
            expected = [0]
        else:
            ladder = torus_knot_exponents(g)
            expected = [torsion_from_alexander(ladder, i) for i in range(g + 1)]
        for i in range(g + 1):
            assert torsion_from_changemaker(sig, i) == expected[i], (sig, i)
            # ascending characteristic-level scan, independently of the dp
            assert min_level_by_scan(sig, i) == expected[i], (sig, i)
    _finish(5, "lattice-side torsion equals polynomial-side torsion, both families n <= 6", started, 120.0)


def _rank_eight_verdict(claim, tmp_path):
    target = tmp_path / f"{claim}.jsonl"
    assert cli_main(["verify", claim, "--max-rank", "8", "--quiet", "--out", str(target)]) == 0
    return target.read_text().splitlines()[-1]


def test_acceptance_06_lemma4_sweep_rank_eight(tmp_path):
    started = time.perf_counter()
    assert _rank_eight_verdict("lemma4", tmp_path) == (
        '{"kind":"verdict","claim":"lemma4","max_rank":8,"instances":117653121,'
        '"counterexamples":[],"holds":true}'
    )
    _finish(6, "every vector with an entry >= 3 has t_{g-3} <= 1", started)


def test_acceptance_07_lemma5_sweep_rank_eight(tmp_path):
    started = time.perf_counter()
    assert _rank_eight_verdict("lemma5", tmp_path) == (
        '{"kind":"verdict","claim":"lemma5","max_rank":8,"instances":36,'
        '"counterexamples":[],"holds":true}'
    )
    _finish(7, "linear complements among tail-of-2s vectors are exactly the two families", started)


def test_acceptance_08_theorem1_sweep_rank_eight(tmp_path):
    started = time.perf_counter()
    assert _rank_eight_verdict("theorem1", tmp_path) == (
        '{"kind":"verdict","claim":"theorem1","max_rank":8,"instances":21,'
        '"counterexamples":[],"holds":true}'
    )
    _finish(8, "extremal staircases force torus-knot data and surgery parameters", started)


def test_acceptance_09_gerstein_versus_search():
    started = time.perf_counter()
    checked = 0
    for p in range(2, 41):
        qs = [
            q
            for q in range(1, p)
            if math.gcd(p, q) == 1 and len(cf_expand(p, q)) <= 4
        ]
        grams = {q: linear_gram(p, q) for q in qs}
        for q1, q2 in itertools.product(qs, repeat=2):
            expected = gerstein_isomorphic(p, q1, p, q2)
            assert is_isometric(grams[q1], grams[q2], max_rank=4) == expected, (p, q1, q2)
            checked += 1
    # across distinct p the determinants differ, so both sides are False
    for (p1, q1), (p2, q2) in [((9, 2), (11, 2)), ((15, 4), (16, 5)), ((7, 3), (40, 11))]:
        assert not is_isometric(linear_gram(p1, q1), linear_gram(p2, q2), max_rank=4)
    assert checked > 1000
    _finish(9, f"criterion agrees with exhaustive isometry search on {checked} pairs", started, 300.0)


def test_acceptance_10_staircase_properties():
    started = time.perf_counter()
    checked = 0
    for g in range(1, 13):
        tails = [()] if g == 1 else [
            tail
            for r in range(g - 1)
            for tail in itertools.combinations(range(g - 2, 0, -1), r)
        ]
        for tail in tails:
            exps = (g,) if g == 1 else (g, g - 1, *tail)
            stair = [torsion_from_alexander(exps, i) for i in range(g + 2)]
            assert stair[g] == 0 and stair[g + 1] == 0
            assert all(a - b in (0, 1) for a, b in zip(stair, stair[1:]))
            assert all(v >= 0 for v in stair)
            assert all((stair[i] == 0) == (i >= g) for i in range(g + 2))
            n3 = exps[2] if len(exps) >= 3 else 0
            assert all(
                (stair[i] == 1) == (n3 <= i <= g - 1) for i in range(g + 1)
            ), exps
            assert exponents_from_torsion(stair[: g + 1]).exponents == exps
            checked += 1
    _finish(10, f"staircase laws and inversion on {checked} exponent ladders", started)
