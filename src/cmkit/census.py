"""Census of changemakers with derived invariants, plus the three bundled
exhaustive verification sweeps exposed by the CLI as lemma4, lemma5 and
theorem1."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .changemaker import (
    ChangemakerVector,
    as_changemaker,
    count_completions,
    iter_changemakers,
    iter_changemakers_with_sums,
)
from .errors import CapacityError
from .graphs import intersection_graph, leading_ones, orthogonal_basis, standard_basis
from .lattice import gram_matrix
from .linear import gerstein_isomorphic, recognize_linear
from .torsion import (
    exponents_from_torsion,
    genus_from_changemaker,
    torsion_at_most,  # not called here; bench/tracing.py wraps census.torsion_at_most
    torsion_staircase,
    _witness_coords,
)

#: The largest census rank measured end to end: rank 6 gives 49,604
#: records and 136,562,341 bytes of JSON in about 25 s on a 2-CPU Intel
#: Xeon machine.  Rank 7 has 1,735,803 vectors whose staircases hold
#: 3.19e9 entries, more than 10 GB of JSON.
CENSUS_MAX_RANK = 6
VERIFY_MAX_RANK = 8

FAMILY_ONE = "family_1_2s"
FAMILY_THREE = "family_111_2s"
CLAW = "claw_obstructed"
DECOMPOSABLE = "decomposable"
OTHER = "non_linear_other"
BIG_TAIL = "sigma_n_ge_3"

#: non_linear_other doubles as the residual bucket; in particular the
#: all-ones vectors (genus 0) land there.
CLASSIFICATIONS = (FAMILY_ONE, FAMILY_THREE, CLAW, DECOMPOSABLE, OTHER, BIG_TAIL)

CLAIMS = ("lemma4", "lemma5", "theorem1")


@dataclass
class CensusRecord:
    sigma: tuple[int, ...]
    p: int
    g: int
    k: int | None
    classification: str
    linear: tuple[int, int] | None
    torsion: tuple[int, ...]
    exponents: tuple[int, ...] | None
    theorem1_applicable: bool
    theorem1_verified: bool | None

    @property
    def rank(self) -> int:
        return len(self.sigma) - 1

    def to_dict(self) -> dict:
        return {
            "kind": "record",
            "rank": self.rank,
            "sigma": list(self.sigma),
            "p": self.p,
            "g": self.g,
            "k": self.k,
            "classification": self.classification,
            "linear": list(self.linear) if self.linear is not None else None,
            "torsion": list(self.torsion),
            "exponents": list(self.exponents) if self.exponents is not None else None,
            "theorem1_applicable": self.theorem1_applicable,
            "theorem1_verified": self.theorem1_verified,
        }


def _exponents(staircase) -> tuple[int, ...] | None:
    """The exponents a staircase inverts to, or None when it inverts to none."""
    try:
        return exponents_from_torsion(staircase).exponents
    except ValueError:
        return None


def _theorem1_conclusions(p: int, g: int, exponents, linear) -> tuple[bool, bool, bool]:
    """(torus match, p test, verdict) of theorem 1's conclusions for a chain
    complement linear = (p, q): the exponents are the ladder (g, ..., 1),
    p is 4g + 1 or 4g + 3, and the verdict adds that (p, q) is
    Gerstein-equivalent to (4g + 1, g) or (4g + 3, 3g + 2) respectively."""
    torus_ok = exponents == tuple(range(g, 0, -1))
    p_ok = p in (4 * g + 1, 4 * g + 3)
    q = g if p == 4 * g + 1 else 3 * g + 2
    return torus_ok, p_ok, torus_ok and p_ok and gerstein_isomorphic(*linear, p, q)


def _tail_of_2s(cm: ChangemakerVector):
    """(k, family, linear, claw, connected) for sigma = (1^k, 2^m), m >= 1.

    family is FAMILY_ONE for k = 1, FAMILY_THREE for k = 3 and None
    otherwise; linear is the chain (p, q) the exhaustive recognizer finds
    for the standard basis, or None; claw and connected describe its
    intersection graph.
    """
    k = leading_ones(cm)
    basis = standard_basis(cm)
    graph = intersection_graph(basis)
    family = FAMILY_ONE if k == 1 else FAMILY_THREE if k == 3 else None
    linear = recognize_linear(gram_matrix(basis), max_rank=cm.rank)
    return k, family, linear, graph.has_induced_claw(), graph.is_connected()


def build_record(sigma) -> CensusRecord:
    """Evaluate every census column for one changemaker."""
    cm = as_changemaker(sigma)
    sig = cm.sigma
    g = genus_from_changemaker(cm)
    torsion = torsion_staircase(cm)
    exponents = _exponents(torsion)

    k: int | None = None
    linear: tuple[int, int] | None = None
    if sig[-1] == 2:
        # Lemma-5-style content is checked, not assumed: _tail_of_2s runs
        # the exhaustive recognizer on every tail-of-2s record.
        k, family, linear, claw, connected = _tail_of_2s(cm)
        if family is not None:
            classification = family
        elif not connected:
            classification = DECOMPOSABLE
        elif claw:
            classification = CLAW
        else:
            classification = OTHER
    elif sig[-1] >= 3:
        classification = BIG_TAIL
    else:
        classification = OTHER

    applicable = g >= 3 and torsion[g - 2] == 1 and torsion[g - 3] >= 2
    verified: bool | None = None
    if applicable and linear is not None:
        verified = _theorem1_conclusions(cm.p, g, exponents, linear)[2]
    return CensusRecord(
        sigma=sig,
        p=cm.p,
        g=g,
        k=k,
        classification=classification,
        linear=linear,
        torsion=torsion,
        exponents=exponents,
        theorem1_applicable=applicable,
        theorem1_verified=verified,
    )


def check_rank_cap(max_rank: int, cap: int | None = None, what: str = "verification") -> None:
    """Refuse a max rank below 0 (ValueError) or past cap, by default
    VERIFY_MAX_RANK (CapacityError), before any work or output starts."""
    cap = VERIFY_MAX_RANK if cap is None else cap
    if max_rank < 0:
        raise ValueError("max rank must be >= 0")
    if max_rank > cap:
        raise CapacityError(f"{what} capped at rank {cap}, got {max_rank}")


def run_census(max_rank: int, *, sigma_n: int | None = None) -> Iterator[CensusRecord]:
    """Records for every sigma_0 = 1 changemaker of rank 1..max_rank, in
    rank order and lexicographic within each rank.  Validates eagerly and
    returns a generator."""
    check_rank_cap(max_rank, CENSUS_MAX_RANK, "census")

    def stream() -> Iterator[CensusRecord]:
        for rank in range(1, max_rank + 1):
            for sig in iter_changemakers(rank):
                if sigma_n is not None and sig[-1] != sigma_n:
                    continue
                yield build_record(ChangemakerVector(sig))

    return stream()


class SummaryAccumulator:
    """Streaming tallies for a census run."""

    def __init__(self):
        self.records = 0
        self.counts = {name: 0 for name in CLASSIFICATIONS}
        self.lemma5_holds = True
        self.theorem1_holds = True

    def add(self, rec: CensusRecord) -> None:
        self.records += 1
        self.counts[rec.classification] += 1
        if rec.sigma[-1] == 2:
            family = rec.classification in (FAMILY_ONE, FAMILY_THREE)
            if (rec.linear is not None) != family:
                self.lemma5_holds = False
        if rec.theorem1_verified is False:
            self.theorem1_holds = False

    def as_dict(self) -> dict:
        return {
            "kind": "summary",
            "records": self.records,
            "counts": dict(self.counts),
            "lemma5_holds": self.lemma5_holds,
            "theorem1_holds": self.theorem1_holds,
        }


# ---------------------------------------------------------------------------
# Verification sweeps.


@dataclass
class VerificationResult:
    claim: str
    max_rank: int
    instances: int
    counterexamples: list[dict]

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def _torsion_le_1(state: tuple[int, int, int, int], i: int) -> bool:
    """t_i <= 1 for the changemaker whose walk state is (total, p, low,
    level1), read off the carried level1 bitset (extend_signed_sums).

    t_i <= 1 iff some characteristic vector of level <= 1 has its sum
    x = p - 2i mod 2p.  Every such sum lies in [-3 total, 3 total] and
    sits at bit (x + 3 total)/2, so one probe per representative of
    p - 2i in that interval decides it: u = x + 3 total runs over the
    u = p - 2i + 3 total mod 2p in [0, 6 total], and every such u is even,
    as p = total mod 2 (v^2 = v mod 2) and 2p is even.
    """
    total, p, _low, level1 = state
    for u in range((p - 2 * i + 3 * total) % (2 * p), 6 * total + 1, 2 * p):
        if level1 >> (u >> 1) & 1:
            return True
    return False


def _lemma4_instance(sig: tuple[int, ...], state: tuple[int, int, int, int]) -> dict:
    """Full instance record of one vector: its witness's level, the
    witness's pairing with sigma and t_{g-3} <= 1 on the carried bitset.

    sig and state come from the enumeration walk, so sig is a changemaker
    and state its (total, p, low, level1): the validation in
    ChangemakerVector, CharacteristicVector and inner_product would only
    re-prove that, and the witness's coordinates are odd by construction.
    The witness comes from _witness_coords, the constructor that
    lemma4_witness and the prefix check _lemma4_ok use; its level (from
    sum(c^2)) and its pairing are recomputed here.
    """
    total, p = state[:2]
    g = (p - total) // 2
    witness = _witness_coords(sig)
    level = (sum([c * c for c in witness]) - len(witness)) // 8  # every c is odd
    pairing = -sum([c * v for c, v in zip(witness, sig)])  # <c, sigma> in -Z^(n+1)
    identity_ok = p + pairing == 2 * g - 6
    torsion_ok = _torsion_le_1(state, g - 3)
    return {
        "kind": "instance",
        "claim": "lemma4",
        "sigma": list(sig),
        "p": p,
        "g": g,
        "witness": list(witness),
        "level": level,
        "identity_ok": identity_ok,
        "torsion_le_1": torsion_ok,
        "ok": level == 1 and identity_ok and torsion_ok,
    }


def _with_state(rank: int, prefix: tuple[int, ...] = (1,)) -> Iterator[tuple]:
    """(sigma, state) for every completion of prefix at this rank, state
    = (total, p, low, level1) as carried by the enumeration walk."""
    for item in iter_changemakers_with_sums(rank, prefix=prefix, signed_sums=True):
        yield item[0], item[1:]


#: Through this rank the sweeps run the full instance checks, vector by
#: vector, on the signed-sum bitsets the walk carries.  Above it quiet
#: lemma4 and theorem1 walk prefixes instead (see _walk): one witness
#: check per prefix settles the whole block of its completions.
DEEP_CHECK_MAX_RANK = 6


def _lemma4_ok(sig: tuple[int, ...], total: int, sumsq: int) -> bool:
    """The witness identity on a prefix: does the witness c that
    _witness_coords builds for sig pair with it to sum(c_j sigma_j) ==
    total + 6?

    sig is a sigma_0 = 1 changemaker with an entry >= 3 and total its
    sum.  c is +1 off the greedy set that pays sigma_t - 3 (t the first
    index with sigma_t >= 3), -1 on it and 3 at t, so the sum is
    total + 6 plus twice what greedy leaves unpaid, and the identity holds
    iff greedy pays.  For a whole vector it is the record's identity
    p + <c, sigma> == 2g - 6, as p - total = 2g.

    On a changemaker prefix greedy always pays (the argument is at
    lemma4_witness and changemaker._greedy_change).  The check still
    builds and sums the witness, so a fault in the constructor shows here
    as in the records.  sumsq is unused; it stays in the signature
    because bench/tracing.py wraps this function with a three-argument
    wrapper and its drain replays the sampled (sigma, total, sumsq)
    triples.
    """
    return sum([c * v for c, v in zip(_witness_coords(sig), sig)]) == total + 6


def _walk(rank: int, settle=None) -> Iterator[tuple]:
    """(sigma, state) pairs of one rank for the quiet lemma4 sweep and the
    theorem1 sweep: every vector at or below DEEP_CHECK_MAX_RANK.

    Above it one walk stops each vector at its first entry >= 3 and
    yields the vectors whose entries are all <= 2 whole.  A stopped
    prefix sigma_0..sigma_t is itself a sigma_0 = 1 changemaker, and every
    completion inherits its answer to _lemma4_ok: greedy never takes an
    entry larger than what is left to pay, and every entry from t on is
    >= sigma_t > sigma_t - 3, so a completion's witness is the prefix's
    witness followed by +1s, and both sides of the identity
    sum(c_j sigma_j) == total + 6 grow by the same appended sum.  A
    prefix that fails has its block walked vector by vector, each
    completion with its own state.  A prefix that passes is settled: its
    completions' witnesses have level 1 and sum p - 2(g - 3), so each has
    t_{g-3} <= 1 and its lemma4 record would be ok.  settle(count) counts
    the block for quiet lemma4; with no settle (theorem1) the block is
    skipped, as t_{g-3} <= 1 fails the hypothesis t_{g-3} >= 2.
    """
    if rank <= DEEP_CHECK_MAX_RANK:
        yield from _with_state(rank)
        return
    memo: dict = {}
    for item in iter_changemakers_with_sums(rank, stop_at=3, signed_sums=True):
        prefix, state = item[0], item[1:]
        if prefix[-1] < 3:
            yield prefix, state
        elif not _lemma4_ok(prefix, *state[:2]):
            yield from _with_state(rank, prefix)
        elif settle is not None:
            settle(count_completions(rank + 1 - len(prefix), prefix[-1], state[0], memo))


def _check_lemma5(sig: tuple[int, ...]) -> dict:
    k, family, linear, claw, connected = _tail_of_2s(ChangemakerVector(sig))
    ok = (
        (linear is not None) == (family is not None)
        and claw == (k >= 4)
        and (not connected) == (k == 2)
    )
    return {
        "kind": "instance",
        "claim": "lemma5",
        "sigma": list(sig),
        "k": k,
        "family": family,
        "linear": list(linear) if linear is not None else None,
        "claw": claw,
        "connected": connected,
        "ok": ok,
    }


def _lemma5_walk(rank: int, settle) -> Iterator[tuple]:
    """The changemakers of one rank that end in 2, with no state: lemma5
    reads sigma alone.  A nondecreasing changemaker with sigma_0 = 1 ends
    in 2 iff it is (1^k, 2^m) with k, m >= 1; k falling from rank to 1 is
    lexicographic order."""
    for k in range(rank, 0, -1):
        yield (1,) * k + (2,) * (rank + 1 - k), None


def _check_theorem1(sig: tuple[int, ...], state: tuple[int, int, int, int]) -> dict | None:
    """The instance record for sigma, or None when the hypothesis fails.
    As in _lemma4_instance, sig and its state (total, p, low, level1) come
    from the enumeration walk and are trusted."""
    total, p = state[:2]
    g = (p - total) // 2
    if g < 3:
        return None
    # Hypothesis filter on the staircase: t_{g-2} = 1 and t_{g-3} >= 2.
    if _torsion_le_1(state, g - 3) or not _torsion_le_1(state, g - 2):
        return None
    linear = recognize_linear(gram_matrix(orthogonal_basis(sig)), max_rank=len(sig) - 1)
    info = {
        "kind": "instance",
        "claim": "theorem1",
        "sigma": list(sig),
        "p": p,
        "g": g,
        "linear": list(linear) if linear is not None else None,
    }
    if linear is None:
        # no linear complement: the statement says nothing about this sigma
        info.update({"vacuous": True, "ok": True})
        return info
    exponents = _exponents(torsion_staircase(sig))
    torus_ok, p_ok, ok = _theorem1_conclusions(p, g, exponents, linear)
    info.update(
        {
            "exponents": list(exponents) if exponents is not None else None,
            "torus_match": torus_ok,
            "p_ok": p_ok,
            "gerstein_ok": ok,  # the record has always carried the verdict here
            "ok": ok,
        }
    )
    return info


def _run_sweep(claim: str, max_rank: int, walk, check, emit) -> VerificationResult:
    """The sweep loop of every claim.

    For each rank, walk(rank, settle) yields pairs (sigma, state) in
    lexicographic order of sigma, and check(sigma, state) returns the
    instance record, or None when sigma is not an instance.  The
    counterexamples are the records whose "ok" is false, and only those.
    A walk that settles a block of instances on a written argument
    reports its size as settle(count); settled instances are counted, not
    emitted.
    """
    instances = 0
    bad: list[dict] = []

    def settle(count: int) -> None:
        nonlocal instances
        instances += count

    for rank in range(1, max_rank + 1):
        for sig, state in walk(rank, settle):
            info = check(sig, state)
            if info is None:
                continue
            instances += 1
            if emit is not None:
                emit(info)
            if not info["ok"]:
                bad.append(info)
    return VerificationResult(claim, max_rank, instances, bad)


def verify_claim(
    claim: str,
    max_rank: int,
    *,
    emit: Callable[[dict], None] | None = None,
) -> VerificationResult:
    """Run one sweep over all ranks 1..max_rank.

    Emits one instance dict per checked hypothesis instance (when emit is
    given) and collects the records whose "ok" is false; the sweeps are
    deterministic, so output is byte-stable across runs.
    """
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIMS}")
    check_rank_cap(max_rank)
    # lemma4's prefix walk settles blocks without per-vector records, so a
    # sweep that emits them walks every vector
    walk, check = {
        "lemma4": (
            _walk if emit is None else lambda rank, settle: _with_state(rank),
            lambda sig, state: _lemma4_instance(sig, state) if sig[-1] >= 3 else None,
        ),
        "lemma5": (_lemma5_walk, lambda sig, _state: _check_lemma5(sig)),
        "theorem1": (lambda rank, settle: _walk(rank), _check_theorem1),
    }[claim]
    return _run_sweep(claim, max_rank, walk, check, emit)
