"""One untraced pass of each of the benchmark's workloads.

No other test runs them, so a change to the package API they call would
otherwise show only when the benchmark itself runs."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("spans")
    finally:
        for name in ("spans", "workloads", "hostspeed"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["bfs", "spectrum", "acceptance", "witness"])
def test_untraced_pass_fails_nothing(perfbench, name):
    workloads, spans = perfbench
    res = workloads.WORKLOADS[name](0).run_pass(spans.NullTracer())
    assert res.attempted > 0 and res.failed == 0
