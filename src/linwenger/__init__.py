"""Bipartite point-line graphs over GF(p^e) with exact spectra and metrics.

The package builds q-regular bipartite graphs whose adjacency couples a point
and a line through Frobenius-twisted products, computes their eigenvalue
spectra exactly (as integer radicands, never floats), and verifies diameter
and girth against closed forms with BFS oracles and explicit witnesses.
"""

from .errors import (
    Acyclic,
    BudgetExceeded,
    ConfigError,
    DegreeMismatch,
    FieldMismatch,
    NoSixCycle,
    NonPrime,
    NotBipartite,
    OutOfRange,
    ReducibleModulus,
    SamePoint,
    SolveFailed,
    ThetaNotInjective,
    UnsupportedRegime,
)
from .fields import GF, Field, FieldElement, fp_rank_kernel, fp_solve
from .graphs import (
    FamilySpec,
    Graph,
    Line,
    Point,
    adjacent,
    export,
    line_through,
    point_through,
)
from .linearized import count_roots, rank_distribution
from .metrics import (
    CycleWitness,
    MetricsReport,
    PathWitness,
    PredictedMetrics,
    common_neighbor,
    common_neighbors,
    components,
    cycle_from_coefficients,
    cycle_witness_6,
    cycle_witness_8,
    diameter,
    diameter_witness,
    eccentricities,
    girth,
    metrics_report,
    path_witnesses,
    predicted_metrics,
    verify_cycle_system,
    walk_trace,
)
from .spectrum import (
    MultiplicityTable,
    SpectrumEntry,
    SpectrumReport,
    closed_form_linearized,
    component_count_formula,
    expansion_bound,
    spectrum_enumerate,
)
from .verify import CheckResult, run_acceptance

__version__ = "0.1.0"
