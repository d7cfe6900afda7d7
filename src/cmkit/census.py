"""Census of changemakers with derived invariants, plus the three bundled
exhaustive verification sweeps exposed by the CLI as lemma4, lemma5 and
theorem1."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .changemaker import (
    ChangemakerVector,
    count_completions,
    iter_changemakers,
    iter_changemakers_with_sums,
)
from .errors import CapacityError
from .graphs import intersection_graph, leading_ones, standard_basis
from .lattice import complement_basis, gram_matrix, inner_product
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


def _torus_ladder(g: int) -> tuple[int, ...]:
    return tuple(range(g, 0, -1))


def _theorem1_conclusions(cm: ChangemakerVector, g: int, exponents, linear) -> bool:
    if exponents is None or tuple(exponents) != _torus_ladder(g):
        return False
    if cm.p == 4 * g + 1:
        return gerstein_isomorphic(linear[0], linear[1], 4 * g + 1, g)
    if cm.p == 4 * g + 3:
        return gerstein_isomorphic(linear[0], linear[1], 4 * g + 3, 3 * g + 2)
    return False


def build_record(sigma) -> CensusRecord:
    """Evaluate every census column for one changemaker."""
    cm = sigma if isinstance(sigma, ChangemakerVector) else ChangemakerVector(tuple(sigma))
    sig = cm.sigma
    g = genus_from_changemaker(cm)
    torsion = torsion_staircase(cm)
    try:
        exponents = exponents_from_torsion(TorsionSequence(torsion)).exponents
    except ValueError:
        exponents = None

    k: int | None = None
    linear: tuple[int, int] | None = None
    if sig[-1] == 2:
        k = leading_ones(cm)
        basis = standard_basis(cm)
        graph = intersection_graph(basis)
        if k == 1:
            classification = FAMILY_ONE
        elif k == 3:
            classification = FAMILY_THREE
        elif not graph.is_connected():
            classification = DECOMPOSABLE
        elif graph.has_induced_claw():
            classification = CLAW
        else:
            classification = OTHER
        # Lemma-5-style content is checked, not assumed: run the exhaustive
        # recognizer on every tail-of-2s record.
        linear = recognize_linear(gram_matrix(basis), max_rank=cm.rank)
    elif sig[-1] >= 3:
        classification = BIG_TAIL
    else:
        classification = OTHER

    applicable = g >= 3 and torsion[g - 2] == 1 and torsion[g - 3] >= 2
    verified: bool | None = None
    if applicable and linear is not None:
        verified = _theorem1_conclusions(cm, g, exponents, linear)
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


def run_census(
    max_rank: int,
    *,
    sigma_n: int | None = None,
    cap: int = CENSUS_MAX_RANK,
) -> Iterator[CensusRecord]:
    """Records for every sigma_0 = 1 changemaker of rank 1..max_rank, in
    rank order and lexicographic within each rank.  Validates eagerly and
    returns a generator."""
    if max_rank < 0:
        raise ValueError("max rank must be >= 0")
    if max_rank > cap:
        raise CapacityError(f"census capped at rank {cap}, got {max_rank}")

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


def summarize(records) -> dict:
    acc = SummaryAccumulator()
    for rec in records:
        acc.add(rec)
    return acc.as_dict()


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
    """Full instance record: witness via the library path plus the
    independent ascending-scan check of t_{g-3} <= 1."""
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
#: by vector, with the independent ascending torsion scan.  Above it
#: lemma4 (quiet) and theorem1 walk prefixes instead (see _sweep_vectors):
#: one witness check per prefix settles the whole block of its completions.
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
    on the deep path.  total and sumsq are kept in the signature for
    callers that pass the enumeration's running sums.

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


def _sweep_vectors(
    rank: int, settled: Callable[[tuple[int, ...], int, int], None] | None
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(sigma, sum, sum of squares) for every vector of one rank that a
    sweep must look at, in lexicographic order.

    With settled None, or at or below DEEP_CHECK_MAX_RANK, that is every
    vector.  Above it the walk stops at each vector's first entry >= 3:
    the prefix sigma_0..sigma_t stands for the block of all its
    completions.  The prefix is itself a sigma_0 = 1 changemaker and
    _lemma4_ok reads only sigma_0..sigma_t, so one call decides the whole
    block.  A block that passes is reported as settled(prefix, total,
    left), left being the number of entries after t, and is not walked.
    A block that fails is walked vector by vector in place, and vectors
    whose entries are all <= 2 are yielded as they come, so the sweep sees
    its per-vector cases in the same order as a full walk.
    """
    if settled is None or rank <= DEEP_CHECK_MAX_RANK:
        yield from iter_changemakers_with_sums(rank)
        return
    for prefix, total, sumsq in iter_changemakers_with_sums(rank, stop_at=3):
        if prefix[-1] < 3:
            yield prefix, total, sumsq
        elif _lemma4_ok(prefix, total, sumsq):
            settled(prefix, total, rank + 1 - len(prefix))
        else:
            yield from iter_changemakers_with_sums(rank, prefix=prefix)


def _verify_lemma4(max_rank: int, emit) -> VerificationResult:
    instances = 0
    bad: list[dict] = []
    memo: dict = {}

    def settled(prefix, total, left):
        # every completion has an entry >= 3 and passes the witness check
        nonlocal instances
        instances += count_completions(left, prefix[-1], total, memo)

    for rank in range(1, max_rank + 1):
        deep = rank <= DEEP_CHECK_MAX_RANK or emit is not None
        for sig, total, sumsq in _sweep_vectors(rank, None if deep else settled):
            if sig[-1] < 3:
                continue
            instances += 1
            info = _lemma4_instance(sig)
            if emit is not None:
                emit(info)
            # above the deep rank only the completions of a prefix that
            # failed the witness check get here, and each of them fails it
            if not deep or not info["ok"]:
                bad.append(info)
    return VerificationResult("lemma4", max_rank, instances, bad)


def _check_lemma5(sig: tuple[int, ...]) -> dict | None:
    if sig[-1] != 2:
        return None
    cm = ChangemakerVector(sig)
    k = leading_ones(cm)
    basis = standard_basis(cm)
    graph = intersection_graph(basis)
    claw = graph.has_induced_claw()
    connected = graph.is_connected()
    linear = recognize_linear(gram_matrix(basis), max_rank=cm.rank)
    family = FAMILY_ONE if k == 1 else FAMILY_THREE if k == 3 else None
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


def _verify_theorem1(max_rank: int, emit) -> VerificationResult:
    instances = 0
    bad: list[dict] = []
    for rank in range(1, max_rank + 1):
        # Above the deep rank a settled block is skipped whole: a validated
        # witness certifies t_{g-3} <= 1, killing the hypothesis t_{g-3} >= 2
        # without any scan.  Everything else gets the honest staircase
        # filter below.
        for sig, total, sumsq in _sweep_vectors(rank, lambda *block: None):
            if (sumsq - total) // 2 < 3:
                continue
            info = _check_theorem1(sig)
            if info is None:
                continue
            instances += 1
            if emit is not None:
                emit(info)
            if not info["ok"]:
                bad.append(info)
    return VerificationResult("theorem1", max_rank, instances, bad)


def _check_theorem1(sig: tuple[int, ...]) -> dict | None:
    cm = ChangemakerVector(sig)
    g = genus_from_changemaker(cm)
    if g < 3:
        return None
    # Hypothesis filter on the staircase: t_{g-2} = 1 and t_{g-3} >= 2.
    if torsion_at_most(cm, g - 3, 1):
        return None
    if torsion_at_most(cm, g - 2, 0) or not torsion_at_most(cm, g - 2, 1):
        return None
    basis = standard_basis(cm) if sig[-1] == 2 else complement_basis(sig)
    linear = recognize_linear(gram_matrix(basis), max_rank=cm.rank)
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
    staircase = torsion_staircase(cm)
    try:
        exponents = exponents_from_torsion(TorsionSequence(staircase)).exponents
    except ValueError:
        exponents = None
    torus_ok = exponents == _torus_ladder(g)
    p_ok = cm.p in (4 * g + 1, 4 * g + 3)
    gerstein_ok = _theorem1_conclusions(cm, g, exponents, linear)
    info.update(
        {
            "exponents": list(exponents) if exponents is not None else None,
            "torus_match": torus_ok,
            "p_ok": p_ok,
            "gerstein_ok": gerstein_ok,
            "ok": torus_ok and p_ok and gerstein_ok,
        }
    )
    return info


def _verify_lemma5(max_rank: int, emit) -> VerificationResult:
    instances = 0
    bad: list[dict] = []
    for rank in range(1, max_rank + 1):
        # a nondecreasing vector ends in 2 iff every entry is 1 or 2, so the
        # capped enumeration already contains every relevant sigma
        for sig in iter_changemakers(rank, max_entry=2):
            info = _check_lemma5(sig)
            if info is None:
                continue
            instances += 1
            if emit is not None:
                emit(info)
            if not info["ok"]:
                bad.append(info)
    return VerificationResult("lemma5", max_rank, instances, bad)


def verify_claim(
    claim: str,
    max_rank: int,
    *,
    cap: int = VERIFY_MAX_RANK,
    emit: Callable[[dict], None] | None = None,
) -> VerificationResult:
    """Run one sweep over all ranks 1..max_rank.

    Emits one instance dict per checked hypothesis instance (when emit is
    given) and collects any failures; the sweeps are deterministic, so
    output is byte-stable across runs.
    """
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIMS}")
    if max_rank < 0:
        raise ValueError("max rank must be >= 0")
    if max_rank > cap:
        raise CapacityError(f"verification capped at rank {cap}, got {max_rank}")
    if claim == "lemma4":
        return _verify_lemma4(max_rank, emit)
    if claim == "lemma5":
        return _verify_lemma5(max_rank, emit)
    return _verify_theorem1(max_rank, emit)
