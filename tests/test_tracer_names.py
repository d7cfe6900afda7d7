"""The benchmark's tracer reaches each layer through a named module
global of cmkit; a rename that breaks it fails here, in well under a
second, rather than only in the benchmark's own tests."""

from pathlib import Path

import cmkit.census

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_on_the_current_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    with Tracer().installed():
        pass
    assert isinstance(cmkit.census.DEEP_CHECK_MAX_RANK, int)
