"""Spans around the package's public functions, and the per-layer metrics
made from them.

A Tracer rebinds each traced function where its caller looks it up (a module
attribute such as ``linwenger.verify.girth``, or a method on ``Graph``), so
nothing under src/ changes and the untraced run executes the original code.
Spans stay in memory as small lists and are written out once at the end.
A span records its name, case, group, parent, start and end; the spans of
one graph, spectrum, query or acceptance criterion share a group id.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
import tracemalloc
from collections import defaultdict

import workloads

NAME, CASE, GROUP, PARENT, START, END, OK, PEAK_MB = range(8)
SPAN_FIELDS = ("name", "case", "group", "parent", "start", "end", "ok", "peak_alloc_mb")

# Layers named in per-layer metrics; "perfbench" is the benchmark's own code.
LAYERS = ("fields", "graphs", "linearized", "spectrum", "metrics", "verify", "cli", "perfbench")

# Spans measured with tracemalloc in the separate memory pass.
BFS_SPANS = ("metrics.components", "metrics.diameter", "metrics.girth")


def _graph_case(graph, *_args, **_kw):
    return workloads.spec_label(graph.spec)


def _spec_case(spec, *_args, **_kw):
    return workloads.spec_label(spec)


def _closed_case(p, e, m, *_args, **_kw):
    return workloads.label("linearized", p, e, m)


def _needs_build(graph, *_args, **_kw):
    return not graph.materialized


# (module, attribute, span name, case of the arguments, trace only when)
# Functions are wrapped in every module that binds them by name, because that
# binding is what the caller looks up.
WRAP_POINTS = (
    ("linwenger.cli", "main", "cli.main", None, None),
    ("linwenger.cli", "run_acceptance", "verify.run_acceptance", None, None),
    ("linwenger.graphs:Graph", "materialize", "graphs.materialize", _graph_case, _needs_build),
    ("linwenger.graphs:Graph", "csr", "graphs.csr", _graph_case, None),
    ("linwenger.graphs:Graph", "neighbor_ids", "graphs.neighbor_ids", _graph_case, None),
    ("linwenger.metrics", "metrics_report", "metrics.metrics_report", _graph_case, None),
    ("linwenger.metrics", "components", "metrics.components", _graph_case, None),
    ("linwenger.metrics", "diameter", "metrics.diameter", _graph_case, None),
    ("linwenger.metrics", "eccentricities", "metrics.eccentricities", _graph_case, None),
    ("linwenger.metrics", "girth", "metrics.girth", _graph_case, None),
    ("linwenger.metrics", "predicted_metrics", "metrics.predicted_metrics", _spec_case, None),
    ("linwenger.metrics", "diameter_witness", "metrics.diameter_witness", _graph_case, None),
    ("linwenger.metrics", "common_neighbor", "metrics.common_neighbor", _graph_case, None),
    ("linwenger.metrics", "fq_solve", "fields.fq_solve", None, None),
    ("linwenger.metrics", "component_count_formula", "spectrum.component_count_formula",
     _spec_case, None),
    ("linwenger.verify", "components", "metrics.components", _graph_case, None),
    ("linwenger.verify", "diameter", "metrics.diameter", _graph_case, None),
    ("linwenger.verify", "girth", "metrics.girth", _graph_case, None),
    ("linwenger.verify", "diameter_witness", "metrics.diameter_witness", _graph_case, None),
    ("linwenger.verify", "common_neighbor", "metrics.common_neighbor", _graph_case, None),
    ("linwenger.verify", "cycle_witness_6", "metrics.cycle_witness", _spec_case, None),
    ("linwenger.verify", "cycle_witness_8", "metrics.cycle_witness", _spec_case, None),
    ("linwenger.verify", "spectrum_enumerate", "spectrum.enumerate", _spec_case, None),
    ("linwenger.verify", "closed_form_linearized", "spectrum.closed_form", _closed_case, None),
    ("linwenger.verify", "walk_trace", "spectrum.walk_trace", _graph_case, None),
    ("linwenger.verify", "component_count_formula", "spectrum.component_count_formula",
     _spec_case, None),
    ("linwenger.spectrum", "spectrum_enumerate", "spectrum.enumerate", _spec_case, None),
    ("linwenger.spectrum", "closed_form_linearized", "spectrum.closed_form", _closed_case, None),
    ("linwenger.spectrum", "count_roots", "linearized.count_roots", None, None),
    ("linwenger.spectrum", "fq_rank", "fields.fq_rank", None, None),
    ("linwenger.linearized", "fp_solve", "fields.fp_solve", None, None),
    ("linwenger.linearized", "fp_rank_kernel", "fields.fp_rank_kernel", None, None),
)


class NullTracer:
    """Stands in for a Tracer in the untraced run."""

    def unit(self, kind, case=None):
        return contextlib.nullcontext()


class Tracer:
    """Records spans while installed; ``measure_alloc`` adds a tracemalloc
    peak to each BFS span instead (used only in the memory pass)."""

    def __init__(self, measure_alloc: bool = False):
        self.spans: list[list] = []
        self.check_results = None
        self._stack: list[int] = []
        self._group = 0
        self._undo: list[tuple[object, str, object]] = []
        self._alloc_names = frozenset(BFS_SPANS) if measure_alloc else frozenset()

    # -- recording ------------------------------------------------------------

    def _open(self, name, case, new_group=False):
        if new_group:
            self._group += 1
        span = [name, case, self._group, self._stack[-1] if self._stack else -1,
                0.0, 0.0, True, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def unit(self, kind, case=None):
        """Root span of one graph, spectrum, query or verify run; its
        descendants share one group id."""
        span = self._open(f"perfbench.{kind}", case, new_group=True)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name, case_of=None, when=None, new_group=False):
        tracer = self
        alloc = name in self._alloc_names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            case = case_of(*args, **kwargs) if case_of is not None else None
            span = tracer._open(name, case, new_group)
            measuring = alloc and not tracemalloc.is_tracing()
            if measuring:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[OK] = False
                raise
            finally:
                if measuring:
                    span[PEAK_MB] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                tracer._close(span)

        return traced

    # -- installation -----------------------------------------------------------

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for where, attr, name, case_of, when in WRAP_POINTS:
            modname, _, clsname = where.partition(":")
            owner = importlib.import_module(modname)
            if clsname:
                owner = getattr(owner, clsname)
            self._rebind(owner, attr, self._wrap(getattr(owner, attr), name, case_of, when))
        self._wrap_acceptance()

    def _wrap_acceptance(self):
        """One span per acceptance criterion, each its own group, and the
        CheckResult list that run_acceptance returns."""
        cli = importlib.import_module("linwenger.cli")
        verify = importlib.import_module("linwenger.verify")
        checks = tuple(
            (number, title, self._wrap(fn, "verify.check", lambda *_a, n=number: f"c{n:02d}",
                                       new_group=True))
            for number, title, fn in verify.CHECKS
        )
        self._rebind(verify, "CHECKS", checks)
        run_acceptance = cli.run_acceptance

        def keep_results(*args, **kwargs):
            self.check_results = run_acceptance(*args, **kwargs)
            return self.check_results

        self._rebind(cli, "run_acceptance", keep_results)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# Per-layer metrics.

def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def _cases():
    bfs = [workloads.label(*c) for c in workloads.Bfs.CASES]
    spec = [workloads.label(*c) for c in workloads.Spectrum.CLOSED_VS_ENUM
            + workloads.Spectrum.ENUM_ONLY]
    closed = [workloads.label(*c) for c in workloads.Spectrum.CLOSED_VS_ENUM]
    witness = [workloads.label("linearized", *k) for k in workloads.Witness.CASES]
    return bfs, spec, closed, witness


def layer_metrics(tracer: Tracer, alloc: Tracer | None, gf_build_s: float,
                  overhead_frac: float) -> dict[str, float]:
    """Per-layer values of one traced pass.  A layer or case the workload
    never ran reads 0."""
    bfs, spec, closed, witness = _cases()
    spans = tracer.spans
    total = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        dur = span[END] - span[START]
        for key in ((span[NAME], span[CASE]), (span[NAME], None)):
            total[key] += dur
            calls[key] += 1
            if span[CASE] is None:
                break

    def mean(name, case=None, scale=1.0):
        n = calls[(name, case)]
        return total[(name, case)] / n * scale if n else 0.0

    out = {}
    for c in bfs:
        p, e, m = workloads.parse_label(c)
        builds = calls[("graphs.materialize", c)]
        edges = builds * (p**e) ** (m + 2)
        out[f"graphs.materialize_s.{c}"] = total[("graphs.materialize", c)]
        out[f"graphs.materialize_ns_per_edge.{c}"] = (
            total[("graphs.materialize", c)] / edges * 1e9 if edges else 0.0
        )
        out[f"graphs.csr_s.{c}"] = total[("graphs.csr", c)]
        out[f"metrics.components_s.{c}"] = total[("metrics.components", c)]
        out[f"metrics.diameter_s.{c}"] = total[("metrics.diameter", c)]
        out[f"metrics.girth_s.{c}"] = total[("metrics.girth", c)]
        peaks = [s[PEAK_MB] for s in (alloc.spans if alloc else ())
                 if s[CASE] == c and s[PEAK_MB] is not None]
        out[f"metrics.peak_alloc_mb.{c}"] = max(peaks, default=0.0)
    weights = 0
    for span in spans:
        if span[NAME] == "spectrum.enumerate":
            p, e, m = workloads.parse_label(span[CASE])
            weights += (p**e) ** (m + 1)
    for c in spec:
        p, e, m = workloads.parse_label(c)
        n = calls[("spectrum.enumerate", c)] * (p**e) ** (m + 1)
        out[f"spectrum.enumerate_s.{c}"] = total[("spectrum.enumerate", c)]
        out[f"spectrum.us_per_weight.{c}"] = (
            total[("spectrum.enumerate", c)] / n * 1e6 if n else 0.0
        )
    for c in closed:
        out[f"spectrum.closed_form_s.{c}"] = total[("spectrum.closed_form", c)]
    out["spectrum.walk_trace_s"] = total[("spectrum.walk_trace", None)]
    out["spectrum.weights_enumerated"] = weights
    out["linearized.count_roots_us"] = mean("linearized.count_roots", scale=1e6)
    out["linearized.count_roots_calls"] = calls[("linearized.count_roots", None)]
    for c in witness:
        out[f"metrics.witness_ms.{c}"] = mean("metrics.diameter_witness", c, 1e3)
        out[f"metrics.common_neighbor_us.{c}"] = mean("metrics.common_neighbor", c, 1e6)
        out[f"graphs.neighbor_ids_us.{c}"] = mean("graphs.neighbor_ids", c, 1e6)
    out["metrics.witnesses_validated"] = sum(
        1 for s in spans
        if s[NAME] in ("metrics.diameter_witness", "metrics.cycle_witness") and s[OK]
    )
    out["fields.fq_solve_us"] = mean("fields.fq_solve", scale=1e6)
    out["fields.fq_solve_calls"] = calls[("fields.fq_solve", None)]
    out["fields.gf_build_s"] = gf_build_s
    out["graphs.built"] = calls[("graphs.materialize", None)]

    seconds = {r.number: r.seconds for r in tracer.check_results or ()}
    for n in range(1, 12):
        out[f"verify.c{n:02d}_s"] = seconds.get(n, 0.0)
    build_s = total[("graphs.materialize", None)] if seconds else 0.0
    out["verify.graph_build_s"] = build_s
    out["verify.check_s"] = sum(seconds.values()) - build_s if seconds else 0.0

    own = defaultdict(float)
    for span, t in zip(spans, self_times(spans)):
        own[span[NAME].split(".")[0]] += t
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own[layer]
    out["trace.overhead_frac"] = overhead_frac
    return out


def median_layer_metrics(tracers, alloc, gf_build_s, overhead_frac, units):
    """{name: (value, unit)}, each value the median over the traced passes and
    each unit looked up in ``units``; a name without a unit reads None."""
    runs = [layer_metrics(tr, alloc, gf_build_s, overhead_frac) for tr in tracers]
    return {k: (statistics.median(r[k] for r in runs), units.get(k)) for k in runs[0]}
