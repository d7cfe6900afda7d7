"""Tests of the benchmark itself: `python3 -m pytest bench -q`."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cmkit  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_same_seed_same_queries_and_different_seeds_differ():
    assert workloads.query_batch(7, 0) == workloads.query_batch(7, 0)
    assert workloads.query_batch(7, 0) != workloads.query_batch(8, 0)
    assert workloads.query_batch(7, 0) != workloads.query_batch(7, 1)


def test_queries_are_valid_inputs():
    batch = workloads.query_batch(3, 0)
    kinds = [q.kind for q in batch]
    assert kinds.count("torsion") == workloads.TORSION_COUNT
    assert kinds.count("recognize") == len(workloads.TAILS_OF_2S) * workloads.RECOGNIZE_REPEATS
    assert kinds.count("cf") == workloads.CF_COUNT
    low, high = workloads.TORSION_P
    for q in batch:
        if q.kind == "torsion":
            assert cmkit.is_changemaker(q.args) and q.args[0] == 1
            assert len(q.args) - 1 in workloads.TORSION_RANKS
            slack = workloads.TORSION_P_SLACK
            assert (1 - slack) * low <= sum(v * v for v in q.args) <= (1 + slack) * high
        elif q.kind == "recognize":
            assert set(q.args) == {1, 2}
            assert q.args[-1] == 2 and list(q.args) == sorted(q.args)
            assert len(q.args) - 1 <= workloads.RECOGNIZE_MAX_RANK
        else:
            p, q_ = q.args
            assert p > q_ > 0 and math.gcd(p, q_) == 1 and p <= workloads.CF_MAX_P


def test_checks_reject_wrong_answers(tmp_path):
    runner = workloads.Runner("queries", 1, tmp_path)

    def check(kind, args, answer):
        return runner.check(workloads.Query(kind, args), answer)[0]

    def torsion(t):
        return 0, json.dumps({"sigma": [1, 2, 2], "p": 9, "g": 2, "t": t})

    assert check("torsion", (1, 2, 2), torsion([1, 1, 0])) == 1
    for bad in ([1, 0, 0], [1, 1], [1, 2, 0], [2, 0, 0], [0]):
        assert check("torsion", (1, 2, 2), torsion(bad)) is None
    assert check("torsion", (1, 2, 2), (2, "")) is None

    assert check("recognize", (1, 2, 2), (9, 2)) == 1
    assert check("recognize", (1, 1, 2), None) == 1
    assert check("recognize", (1, 1, 2), (6, 1)) is None
    assert check("recognize", (1, 2, 2), None) is None
    assert check("recognize", (1, 2, 2), (7, 2)) is None
    assert check("recognize", (1, 2, 2), ValueError("boom")) is None

    def cf(expansion):
        return 0, json.dumps({"p": 9, "q": 2, "cf": expansion})

    assert check("cf", (9, 2), cf([5, 2])) == 1
    assert check("cf", (9, 2), cf([5, 3])) is None
    assert check("cf", (9, 2), cf([1, 2])) is None

    verdict = {
        "kind": "verdict",
        "claim": "lemma5",
        "max_rank": workloads.SWEEP_RANK,
        "instances": workloads.SWEEP_INSTANCES["lemma5"],
        "counterexamples": [],
        "holds": True,
    }
    assert check("verify", ("lemma5",), (0, json.dumps(verdict))) == verdict["instances"]
    for key, value in (("instances", 27), ("holds", False), ("claim", "lemma4")):
        assert check("verify", ("lemma5",), (0, json.dumps({**verdict, key: value}))) is None


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass_gives_the_untraced_answers(name, tmp_path):
    runner = workloads.Runner(name, 11, tmp_path)
    untraced = runner.run_pass(0)
    tracer = Tracer()
    traced = runner.run_pass(0, tracer)
    assert untraced.failed == traced.failed == 0
    assert untraced.digests == traced.digests
    if name == "census":
        assert untraced.digests == [workloads.CENSUS_SHA256]
    assert tracer.calls["other"] == len(untraced.latencies_s)


def test_report_has_exactly_the_declared_metrics(capsys):
    for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "queries", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
        assert run.main(argv) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert report["correct"] and report["failed"] == 0
        assert report["attempted"] == (2 if trace else 1) * 288
        spec = {m["name"]: m["unit"] for m in SPEC[declared]}
        assert {k: v["unit"] for k, v in report["metrics"].items()} == spec
    assert set(LAYER_METRICS) == set(spec)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / path, tmp_path / path, ignore=ignore)
    argv = [*SPEC["command"], "--workload", "sweep", "--seed", "1", "--seconds", "1"]
    argv += ["--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
