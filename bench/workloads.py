"""The three benchmark workloads: what each pass sends and how each
answer is checked.

A workload is a list of queries per pass.  `Runner.run_pass` sends them
one at a time in a closed loop (the next query starts when the previous
one has returned), timing each, and checks every answer afterwards, out
of the timed region.  cmkit is driven only through `cmkit.cli.main(argv)`
and the library's module-level functions, looked up on their modules at
call time so that a tracer can wrap them.

Importing this module needs `cmkit` importable; `run.py` and the tests
put the checkout's `src/` on `sys.path` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import cmkit.cli
import cmkit.graphs
import cmkit.lattice
import cmkit.linear
import cmkit.torsion

SWEEP_RANK = 7
#: Verdict instance counts of `verify <claim> --max-rank 7`.
SWEEP_INSTANCES = {"lemma4": 1_785_372, "lemma5": 28, "theorem1": 15}

CENSUS_RANK = 5
#: SHA-256 of the bytes of `census --max-rank 5` (JSON), and its summary.
CENSUS_SHA256 = "510bd1cf50e842ae2ea95ce9a8bc1974ccb2cfae4f6f1fc0e253901be76703b6"
CENSUS_SUMMARY = {
    "kind": "summary",
    "records": 2507,
    "counts": {
        "family_1_2s": 5,
        "family_111_2s": 3,
        "claw_obstructed": 3,
        "decomposable": 4,
        "non_linear_other": 5,
        "sigma_n_ge_3": 2487,
    },
    "lemma5_holds": True,
    "theorem1_holds": True,
}

#: Query mix of one `queries` pass: half torsion, a quarter recognition,
#: a quarter cf.  The mix is stratified so that every pass costs about the
#: same whatever the seed.  Torsion targets are spaced evenly in log p from
#: TORSION_P[0] to TORSION_P[1]; each gets a random sigma with p within
#: TORSION_P_SLACK of its target, of a rank in TORSION_RANKS chosen by
#: position.
#: Recognition runs RECOGNIZE_REPEATS times on each tail-of-2s vector
#: (1^k, 2^m) of rank <= RECOGNIZE_MAX_RANK.  cf takes random coprime
#: p > q with p <= CF_MAX_P.
TORSION_COUNT = 144
TORSION_P = (100, 60_000)
TORSION_P_SLACK = 0.02
TORSION_RANKS = (6, 7, 8, 9)
RECOGNIZE_MAX_RANK = 8
RECOGNIZE_REPEATS = 2
CF_COUNT = 72
CF_MAX_P = 10**6
TAILS_OF_2S = tuple(
    (1,) * k + (2,) * (rank + 1 - k)
    for rank in range(1, RECOGNIZE_MAX_RANK + 1)
    for k in range(1, rank + 1)
)


@dataclass(frozen=True)
class Query:
    """One operation: a CLI command or a library call."""

    kind: str  # "verify", "census", "torsion", "recognize" or "cf"
    args: tuple


def _changemaker_near(rng: random.Random, rank: int, target: float) -> tuple[int, ...] | None:
    """A random changemaker with sigma_0 = 1, the given rank and p within
    TORSION_P_SLACK of target, or None when this attempt misses.  Each
    entry is drawn uniformly between its lower limit and the largest value
    that keeps p in range; the last one is drawn among the values that
    land p there."""
    low = math.ceil(target * (1 - TORSION_P_SLACK))
    high = math.floor(target * (1 + TORSION_P_SLACK))
    sig = [1]
    total = sumsq = 1
    for left in range(rank, 1, -1):  # entries still to draw, this one included
        top = min(total + 1, math.isqrt((high - sumsq) // left))
        if top < sig[-1]:
            return None
        v = rng.randint(sig[-1], top)
        sig.append(v)
        total += v
        sumsq += v * v
    first = max(sig[-1], math.isqrt(max(low - sumsq, 0) - 1) + 1 if low > sumsq else 0)
    last = min(total + 1, math.isqrt(high - sumsq))
    if first > last:
        return None
    sig.append(rng.randint(first, last))
    return tuple(sig)


def _torsion_query(rng: random.Random, j: int) -> Query:
    """Torsion query j of a pass: its target p, and its rank cycling
    through the ranks whose largest p, that of (1, 2, 4, ...), is at least
    twice the target, which leaves room for many sigmas near it."""
    low, high = TORSION_P
    target = low * (high / low) ** (j / (TORSION_COUNT - 1))
    ranks = [r for r in TORSION_RANKS if (4 ** (r + 1) - 1) // 3 >= 2 * target]
    rank = ranks[j % len(ranks)]
    while True:
        sig = _changemaker_near(rng, rank, target)
        if sig is not None:
            return Query("torsion", sig)


def query_batch(seed: int, index: int) -> list[Query]:
    """Pass `index` of the `queries` workload for `seed`: the same
    arguments always give the same list."""
    rng = random.Random(f"cmkit-queries:{seed}:{index}")
    batch = [_torsion_query(rng, j) for j in range(TORSION_COUNT)]
    batch += [Query("recognize", sig) for sig in TAILS_OF_2S * RECOGNIZE_REPEATS]
    for _ in range(CF_COUNT):
        p = rng.randint(2, CF_MAX_P)
        q = rng.randint(1, p - 1)
        while math.gcd(p, q) != 1:
            q = rng.randint(1, p - 1)
        batch.append(Query("cf", (p, q)))
    rng.shuffle(batch)
    return batch


def workload_batch(name: str, seed: int, index: int) -> list[Query]:
    if name == "sweep":
        return [Query("verify", (claim,)) for claim in SWEEP_INSTANCES]
    if name == "census":
        return [Query("census", ())]
    if name == "queries":
        return query_batch(seed, index)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep", "census", "queries")


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cmkit.cli.main(argv)
    return code, out.getvalue()


def _verdict(text: str) -> dict:
    return json.loads(text.splitlines()[-1])


def clear_staircase_cache() -> int:
    """Start the staircase cache cold, as a fresh CLI process does; return
    the hits it had counted."""
    cached = cmkit.torsion._staircase_cached
    hits = cached.cache_info().hits
    cached.cache_clear()
    return hits


@dataclass
class PassResult:
    wall_s: float
    latencies_s: list[float]
    failed: int
    records: int
    digests: list[str]


class Runner:
    """Runs the passes of one workload.  `workdir` is a directory for
    the census output file."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.census_path = workdir / "census.jsonl"
        self.cache_hits = 0
        self._invariants = None

    def _cold(self) -> None:
        self.cache_hits += clear_staircase_cache()

    def _send(self, query: Query):
        kind, args = query.kind, query.args
        if kind == "verify":
            return _cli(["verify", args[0], "--max-rank", str(SWEEP_RANK), "--quiet"])
        if kind == "census":
            argv = ["census", "--max-rank", str(CENSUS_RANK), "--out", str(self.census_path)]
            return _cli(argv)
        if kind == "torsion":
            return _cli(["torsion", *map(str, args)])
        if kind == "recognize":
            basis = cmkit.graphs.standard_basis(args)
            gram = cmkit.lattice.gram_matrix(basis)
            return cmkit.linear.recognize_linear(gram, max_rank=len(args) - 1)
        return _cli(["cf", *map(str, args)])

    def run_pass(self, index: int, tracer=None) -> PassResult:
        """Run pass `index` and check its answers.  With a tracer, its
        wrappers are installed for the issuing loop only, so the checks
        below stay untraced."""
        queries = workload_batch(self.workload, self.seed, index)
        send = self._send if tracer is None else tracer.root(self._send)
        answers = []
        latencies = []
        clear_staircase_cache()  # hits before the pass were not timed work
        with contextlib.nullcontext() if tracer is None else tracer.installed():
            start = time.perf_counter()
            for query in queries:
                if query.kind == "torsion":
                    self._cold()
                t0 = time.perf_counter()
                try:
                    answer = send(query)
                except Exception as exc:  # a crash is a failed operation
                    traceback.print_exc()
                    answer = exc
                latencies.append(time.perf_counter() - t0)
                answers.append(answer)
            wall = time.perf_counter() - start
        self._cold()

        failed = records = 0
        digests = []
        for query, answer in zip(queries, answers):
            got, digest = self.check(query, answer)
            digests.append(digest)
            if got is None:
                failed += 1
            else:
                records += got
        return PassResult(wall, latencies, failed, records, digests)

    # -- checks: each returns (records produced or None if wrong, digest) --

    def check(self, query: Query, answer) -> tuple[int | None, str]:
        if isinstance(answer, Exception):
            return None, f"error:{type(answer).__name__}"
        if query.kind == "census":
            # read and remove, so that a later pass cannot pass on this output
            data = self.census_path.read_bytes() if self.census_path.exists() else b""
            self.census_path.unlink(missing_ok=True)
            return self._check_census(answer, data), hashlib.sha256(data).hexdigest()
        if query.kind == "recognize":
            return _check_recognize(query.args, answer), repr(answer)
        code, text = answer
        digest = hashlib.sha256(text.encode()).hexdigest()
        if code != 0:
            return None, digest
        try:
            if query.kind == "verify":
                return _check_verify(query.args[0], text), digest
            if query.kind == "torsion":
                return _check_torsion(query.args, text), digest
            return _check_cf(query.args, text), digest
        except (ValueError, KeyError, IndexError, TypeError):
            return None, digest

    def _check_census(self, answer, data: bytes) -> int | None:
        code, stdout = answer
        if code != 0 or stdout or hashlib.sha256(data).hexdigest() != CENSUS_SHA256:
            return None
        lines = [json.loads(line) for line in data.splitlines()]
        summary = lines[-1]
        records = [rec for rec in lines if rec.get("kind") == "record"]
        if summary != CENSUS_SUMMARY or len(records) != summary["records"]:
            return None
        # Cross-command invariants: theorem1-applicable records are exactly
        # the theorem1 sweep's instances, tail-of-2s records the lemma5 ones.
        if self._invariants is None:
            argv = ["--max-rank", str(CENSUS_RANK), "--quiet"]
            self._invariants = {
                claim: _verdict(_cli(["verify", claim, *argv])[1])
                for claim in ("lemma5", "theorem1")
            }
        theorem1 = sum(rec["theorem1_applicable"] for rec in records)
        tail_of_2s = sum(rec["sigma"][-1] == 2 for rec in records)
        inv = self._invariants
        if not (inv["theorem1"]["holds"] and inv["lemma5"]["holds"]):
            return None
        if theorem1 != inv["theorem1"]["instances"] or tail_of_2s != inv["lemma5"]["instances"]:
            return None
        return len(records)


def _check_verify(claim: str, text: str) -> int | None:
    verdict = _verdict(text)
    expected = {
        "kind": "verdict",
        "claim": claim,
        "max_rank": SWEEP_RANK,
        "instances": SWEEP_INSTANCES[claim],
        "counterexamples": [],
        "holds": True,
    }
    return verdict["instances"] if verdict == expected else None


def _check_torsion(sigma: tuple[int, ...], text: str) -> int | None:
    """The staircase must be a valid TorsionSequence of length g + 1, with
    p and g recomputed here from sigma."""
    out = json.loads(text)
    p = sum(v * v for v in sigma)
    g = (p - sum(sigma)) // 2
    if out["sigma"] != list(sigma) or out["p"] != p or out["g"] != g:
        return None
    if len(out["t"]) != g + 1:
        return None
    if len(cmkit.torsion.TorsionSequence(out["t"])) != g + 1:
        return None
    return 1


def _check_recognize(sigma: tuple[int, ...], answer) -> int | None:
    """A chain lattice exactly for 1 or 3 leading 1s (Lemma 5), and then
    with p equal to <sigma, sigma>."""
    k = sigma.count(1)
    if (answer is not None) != (k in (1, 3)):
        return None
    if answer is not None and answer[0] != sum(v * v for v in sigma):
        return None
    return 1


def _check_cf(pq: tuple[int, int], text: str) -> int | None:
    out = json.loads(text)
    if (out["p"], out["q"]) != pq or cmkit.linear.cf_evaluate(out["cf"]) != pq:
        return None
    return 1
