"""Bipartite point-line graphs over GF(p^e) with exact spectra and metrics.

The package builds q-regular bipartite graphs whose adjacency couples a point
and a line through Frobenius-twisted products, computes their eigenvalue
spectra exactly (as integer radicands, never floats), and verifies diameter
and girth against closed forms with BFS oracles and explicit witnesses.

Importing the package loads none of its modules.  Each public name below is
read from its defining module, which is imported when the name is first used
(PEP 562), and ``from linwenger.fields import GF`` loads only ``fields`` and
what it imports.  Names are looked up afresh on every access, so
``linwenger.X is linwenger.<module>.X`` always holds.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "errors": (
        "Acyclic",
        "BudgetExceeded",
        "ConfigError",
        "DegreeMismatch",
        "FieldMismatch",
        "NoSixCycle",
        "NonPrime",
        "NotBipartite",
        "OutOfRange",
        "ReducibleModulus",
        "SamePoint",
        "SolveFailed",
        "ThetaNotInjective",
        "UnsupportedRegime",
    ),
    "fields": ("GF", "Field", "FieldElement", "fp_rank_kernel", "fp_solve"),
    "graphs": (
        "FamilySpec",
        "Graph",
        "Line",
        "Point",
        "adjacent",
        "export",
        "line_through",
        "point_through",
    ),
    "linearized": ("count_roots", "rank_distribution"),
    "metrics": (
        "CycleWitness",
        "MetricsReport",
        "PathWitness",
        "PredictedMetrics",
        "common_neighbor",
        "common_neighbors",
        "components",
        "cycle_from_coefficients",
        "cycle_witness_6",
        "cycle_witness_8",
        "diameter",
        "diameter_witness",
        "eccentricities",
        "girth",
        "metrics_report",
        "path_witnesses",
        "predicted_metrics",
        "verify_cycle_system",
        "walk_trace",
    ),
    "spectrum": (
        "MultiplicityTable",
        "SpectrumEntry",
        "SpectrumReport",
        "closed_form_linearized",
        "component_count_formula",
        "expansion_bound",
        "spectrum_enumerate",
    ),
    "verify": ("CheckResult", "run_acceptance"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:  # a submodule is an attribute, as under eager imports
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
