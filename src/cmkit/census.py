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
from .lattice import gram_matrix, inner_product
from .linear import gerstein_isomorphic, recognize_linear
from .torsion import (
    TorsionSequence,
    exponents_from_torsion,
    genus_from_changemaker,
    lemma4_witness,
    torsion_at_most,
    torsion_staircase,
)

CENSUS_MAX_RANK = 10
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
        return exponents_from_torsion(TorsionSequence(staircase)).exponents
    except ValueError:
        return None


def _theorem1_conclusions(cm, g: int, exponents, linear) -> tuple[bool, bool, bool]:
    """(torus match, p test, verdict) of theorem 1's conclusions for a chain
    complement linear = (p, q): the exponents are the ladder (g, ..., 1),
    p is 4g + 1 or 4g + 3, and the verdict adds that (p, q) is
    Gerstein-equivalent to (4g + 1, g) or (4g + 3, 3g + 2) respectively."""
    torus_ok = exponents == tuple(range(g, 0, -1))
    p_ok = cm.p in (4 * g + 1, 4 * g + 3)
    q = g if cm.p == 4 * g + 1 else 3 * g + 2
    return torus_ok, p_ok, torus_ok and p_ok and gerstein_isomorphic(*linear, cm.p, q)


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
        verified = _theorem1_conclusions(cm, g, exponents, linear)[2]
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


def _lemma4_instance(sig: tuple[int, ...]) -> dict:
    """Full instance record, the one place the witness is checked: its
    level, its pairing with sigma recomputed through inner_product, and
    t_{g-3} <= 1 decided by torsion_at_most on one signed-sum bitset."""
    cm = ChangemakerVector(sig)
    g = genus_from_changemaker(cm)
    witness = lemma4_witness(cm)
    pairing = inner_product(witness.coords, sig)
    identity_ok = cm.p + pairing == 2 * g - 6
    torsion_ok = torsion_at_most(cm, g - 3, 1)
    return {
        "kind": "instance",
        "claim": "lemma4",
        "sigma": list(sig),
        "p": cm.p,
        "g": g,
        "witness": list(witness.coords),
        "level": witness.level,
        "identity_ok": identity_ok,
        "torsion_le_1": torsion_ok,
        "ok": witness.level == 1 and identity_ok and torsion_ok,
    }


#: Through this rank the sweeps run the full object-level checks, vector
#: by vector, with the independent bitset torsion check.  Above it
#: lemma4 (quiet) and theorem1 walk prefixes instead (see _lemma4_walk and
#: _theorem1_walk): one witness check per prefix settles the whole block
#: of its completions.
DEEP_CHECK_MAX_RANK = 6


def _lemma4_ok(sig: tuple[int, ...], total: int, sumsq: int) -> bool:
    """Lean witness check: does greedy change pay sigma_t - 3 from the
    entries below t, the first index with sigma_t >= 3?

    The greedy step is the only content.  When it pays, the witness is +1
    off the greedy set, -1 on it and 3 at t, so it has level 1; its pairing
    with sigma is -(total + 6) and 2g = sumsq - total = sum of v(v - 1) is
    even for every changemaker, so the identity p + pairing == 2g - 6 that
    certifies t_{g-3} <= 1 holds by algebra and is not re-tested here.
    _lemma4_instance recomputes the real pairing from the library witness
    on the deep path.  total and sumsq are unused; they stay in the
    signature because bench/tracing.py wraps this function with a
    three-argument wrapper and its drain replays the sampled
    (sigma, total, sumsq) triples.

    The loop reads sigma_0..sigma_t only, so a prefix ending at its first
    entry >= 3 gets the same answer as every one of its completions.
    """
    t = 0
    while sig[t] < 3:
        t += 1
    rem = sig[t] - 3
    k = t - 1
    while rem and k >= 0:
        v = sig[k]
        if v <= rem:
            rem -= v
        k -= 1
    return not rem


def _lemma4_walk(rank: int, settle) -> Iterator[tuple[int, ...]]:
    """Quiet lemma4: every vector at or below DEEP_CHECK_MAX_RANK.  Above
    it the walk stops at each vector's first entry >= 3.  The prefix
    sigma_0..sigma_t is itself a sigma_0 = 1 changemaker and _lemma4_ok
    reads only sigma_0..sigma_t, so one call decides the block of all its
    completions, which the walk settles without yielding it: a block that
    passes is counted, and in a block that fails every completion fails
    the witness check as the prefix does and is a counterexample.  Vectors
    whose entries are all <= 2 are not instances and are skipped.
    """
    if rank <= DEEP_CHECK_MAX_RANK:
        yield from iter_changemakers(rank)
        return
    memo: dict = {}
    for prefix, total, sumsq in iter_changemakers_with_sums(rank, stop_at=3):
        if prefix[-1] < 3:
            continue
        if _lemma4_ok(prefix, total, sumsq):
            settle(count_completions(rank + 1 - len(prefix), prefix[-1], total, memo))
        else:
            block = iter_changemakers_with_sums(rank, prefix=prefix)
            failed = [_lemma4_instance(sig) for sig, _, _ in block]
            settle(len(failed), failed)


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


def _lemma5_walk(rank: int, settle) -> Iterator[tuple[int, ...]]:
    """The changemakers of one rank that end in 2.  A nondecreasing
    changemaker with sigma_0 = 1 ends in 2 iff it is (1^k, 2^m) with
    k, m >= 1; k falling from rank to 1 is lexicographic order."""
    for k in range(rank, 0, -1):
        yield (1,) * k + (2,) * (rank + 1 - k)


def _check_theorem1(sig: tuple[int, ...]) -> dict | None:
    cm = ChangemakerVector(sig)
    g = genus_from_changemaker(cm)
    if g < 3:
        return None
    # Hypothesis filter on the staircase: t_{g-2} = 1 and t_{g-3} >= 2.
    # t_{g-2} > 0: p - 2(g-2) = |sigma|_1 + 4 is no +-1 sum mod 2p, as 2p > 2|sigma|_1 + 4
    if torsion_at_most(cm, g - 3, 1) or not torsion_at_most(cm, g - 2, 1):
        return None
    linear = recognize_linear(gram_matrix(orthogonal_basis(sig)), max_rank=cm.rank)
    info = {
        "kind": "instance",
        "claim": "theorem1",
        "sigma": list(sig),
        "p": cm.p,
        "g": g,
        "linear": list(linear) if linear is not None else None,
    }
    if linear is None:
        # no linear complement: the statement says nothing about this sigma
        info.update({"vacuous": True, "ok": True})
        return info
    exponents = _exponents(torsion_staircase(cm))
    torus_ok, p_ok, ok = _theorem1_conclusions(cm, g, exponents, linear)
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


def _theorem1_walk(rank: int, settle) -> Iterator[tuple[int, ...]]:
    """Every vector at or below DEEP_CHECK_MAX_RANK.  Above it, as in
    _lemma4_walk, a prefix that passes _lemma4_ok stands for its block,
    which is skipped: the validated witness certifies t_{g-3} <= 1 for
    every completion, killing the hypothesis t_{g-3} >= 2 without any
    scan.  The completions of a failing prefix and the vectors whose
    entries are all <= 2 are yielded in order, for the honest staircase
    filter of _check_theorem1."""
    if rank <= DEEP_CHECK_MAX_RANK:
        yield from iter_changemakers(rank)
        return
    for prefix, total, sumsq in iter_changemakers_with_sums(rank, stop_at=3):
        if prefix[-1] < 3:
            yield prefix
        elif not _lemma4_ok(prefix, total, sumsq):
            yield from (sig for sig, _, _ in iter_changemakers_with_sums(rank, prefix=prefix))


def _run_sweep(claim: str, max_rank: int, walk, check, emit) -> VerificationResult:
    """The sweep loop of every claim.

    For each rank, walk(rank, settle) yields vectors sigma in
    lexicographic order, and check(sigma) returns the instance record, or
    None when sigma is not an instance; a record
    whose "ok" is false is a counterexample.  A walk that decides a block
    of vectors at once reports it as settle(count, failures): count
    instances, of which the records in failures, in order, are the
    counterexamples.  Settled instances are not emitted.
    """
    instances = 0
    bad: list[dict] = []

    def settle(count: int, failures=()) -> None:
        nonlocal instances
        instances += count
        bad.extend(failures)

    for rank in range(1, max_rank + 1):
        for sig in walk(rank, settle):
            info = check(sig)
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
    given) and collects any failures; the sweeps are deterministic, so
    output is byte-stable across runs.
    """
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIMS}")
    check_rank_cap(max_rank)
    # lemma4's prefix walk settles blocks without per-vector records, so a
    # sweep that emits them walks every vector
    walk, check = {
        "lemma4": (
            _lemma4_walk if emit is None else lambda rank, settle: iter_changemakers(rank),
            lambda sig: _lemma4_instance(sig) if sig[-1] >= 3 else None,
        ),
        "lemma5": (_lemma5_walk, _check_lemma5),
        "theorem1": (_theorem1_walk, _check_theorem1),
    }[claim]
    return _run_sweep(claim, max_rank, walk, check, emit)
