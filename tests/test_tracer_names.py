"""The benchmark's tracer reaches each layer through a named module
global of cmkit; a rename that breaks it fails here, in well under a
second, rather than only in the benchmark's own tests."""

from pathlib import Path

import pytest

import cmkit.census
import cmkit.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_on_the_current_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    with Tracer().installed():
        pass
    assert isinstance(cmkit.census.DEEP_CHECK_MAX_RANK, int)


def test_sweeps_call_the_traced_names(monkeypatch):
    # a name the tracer wraps but the sweeps no longer call would read 0
    # in the benchmark's layer metrics and fail nothing else
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        assert cmkit.census.verify_claim("lemma4", 7).holds
        assert cmkit.census.verify_claim("theorem1", 7).holds
    assert tracer.counts["census.witness_calls"] > 0  # _lemma4_ok
    assert tracer.calls["census.deep"] > 0
    assert tracer.calls["census.theorem1"] > 0
    assert tracer.enumerations


def test_census_calls_the_traced_names(monkeypatch):
    # the census records' staircase and inversion go through the census
    # globals the tracer wraps, once per record
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        records = list(cmkit.census.run_census(3))
    assert records
    assert tracer.calls["torsion.staircase"] == len(records)
    assert tracer.calls["torsion.inversion"] == len(records)


@pytest.mark.parametrize(
    "argv",
    [
        ("cf", "9", "2"),
        ("torsion", "1", "2", "2"),
        ("gram", "--linear", "7", "5"),
        ("census", "--max-rank", "2"),
        ("verify", "lemma5", "--max-rank", "3"),
    ],
)
def test_every_json_line_goes_through_dump(monkeypatch, capsys, argv):
    # the tracer counts cli.lines and cli.bytes on cli._dump: each JSON line
    # must be one call of it, and CSV output none
    calls = []
    dump = cmkit.cli._dump
    monkeypatch.setattr(cmkit.cli, "_dump", lambda obj: calls.append(obj) or dump(obj))
    assert cmkit.cli.main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == len(lines) > 0
    if argv[0] != "verify":
        calls.clear()
        assert cmkit.cli.main([*argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out and calls == []
