"""The benchmark tracer rebinds package functions by (module, attribute)
name; every name it lists must still exist, or `perfbench/run.py --trace 1`
fails at start-up."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrap_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    try:
        for where, attr, *_ in spans.WRAP_POINTS:
            modname, _, clsname = where.partition(":")
            owner = importlib.import_module(modname)
            if clsname:
                owner = getattr(owner, clsname)
            assert callable(getattr(owner, attr, None)), f"{where}.{attr} is gone"
    finally:
        for name in ("spans", "workloads", "hostspeed"):
            sys.modules.pop(name, None)
