"""The package namespace: its export table, and what each import loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import linwenger

PUBLIC_NAMES = [
    "Acyclic",
    "BudgetExceeded",
    "CheckResult",
    "ConfigError",
    "CycleWitness",
    "DegreeMismatch",
    "FamilySpec",
    "Field",
    "FieldElement",
    "FieldMismatch",
    "GF",
    "Graph",
    "Line",
    "MetricsReport",
    "MultiplicityTable",
    "NoSixCycle",
    "NonPrime",
    "NotBipartite",
    "OutOfRange",
    "PathWitness",
    "Point",
    "PredictedMetrics",
    "ReducibleModulus",
    "SamePoint",
    "SolveFailed",
    "SpectrumEntry",
    "SpectrumReport",
    "ThetaNotInjective",
    "UnsupportedRegime",
    "adjacent",
    "closed_form_linearized",
    "common_neighbor",
    "common_neighbors",
    "component_count_formula",
    "components",
    "count_roots",
    "cycle_from_coefficients",
    "cycle_witness_6",
    "cycle_witness_8",
    "diameter",
    "diameter_witness",
    "eccentricities",
    "expansion_bound",
    "export",
    "fp_rank_kernel",
    "fp_solve",
    "girth",
    "line_through",
    "metrics_report",
    "path_witnesses",
    "point_through",
    "predicted_metrics",
    "rank_distribution",
    "run_acceptance",
    "spectrum_enumerate",
    "verify_cycle_system",
    "walk_trace",
]


# appended to each fresh script: print the loaded linwenger and numpy modules
_LOADED = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('linwenger', 'numpy'))))\n"
)


def _fresh(script: str) -> list[str]:
    """Run script in a fresh interpreter that imports the package from this
    checkout, then return the linwenger and numpy modules it loaded."""
    src = os.path.dirname(os.path.dirname(linwenger.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script + _LOADED],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestExports:
    def test_public_names_are_pinned(self):
        assert sorted(linwenger.__all__) == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_its_defining_modules_object(self, name):
        obj = getattr(linwenger, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("linwenger.")
        assert getattr(home, name) is obj

    def test_names_are_resolved_on_each_access(self, monkeypatch):
        # a first read caches nothing: a later rebinding in the module shows
        from linwenger import metrics

        assert linwenger.girth is metrics.girth
        sentinel = object()
        monkeypatch.setattr(metrics, "girth", sentinel)
        assert linwenger.girth is sentinel

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from linwenger import *", namespace)
        assert set(PUBLIC_NAMES) <= set(namespace)
        assert all(namespace[name] is getattr(linwenger, name) for name in PUBLIC_NAMES)

    def test_dir_lists_every_name(self):
        listed = dir(linwenger)
        assert set(PUBLIC_NAMES) <= set(listed)
        assert "__version__" in listed

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'linwenger'.*'no_such_name'"):
            linwenger.no_such_name  # noqa: B018


class TestImportCost:
    def test_package_import_loads_no_module(self):
        loaded = _fresh("import linwenger\n")
        assert loaded == ["linwenger"]

    def test_a_submodule_is_reachable_as_an_attribute(self):
        loaded = _fresh("import linwenger\nassert linwenger.graphs.Graph is linwenger.Graph\n")
        assert "linwenger.graphs" in loaded and "linwenger.metrics" not in loaded

    def test_fields_import_loads_only_what_fields_needs(self):
        loaded = _fresh("from linwenger.fields import GF\nGF(2, 3)\n")
        assert loaded == ["linwenger", "linwenger.errors", "linwenger.fields"]
