"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload bfs --seed 1 --seconds 25 --trace 0

Run from the repository root.  The run measures the package in src/ from
outside: one process, one caller, one call in flight.  It repeats whole
passes over the workload's inputs while another pass still fits in --seconds
(always at least one), checks every output, and prints a table, an ``env``
line and, last, one JSON object with correct/attempted/failed and the
metrics.  wall_s is the median time a pass spends in the package, its checks
left out.  wall_ref_s is the same median with each pass first scaled to the
reference host speed (hostspeed.py): the speed this process gets from a
shared host drifts by 20-50% over seconds to minutes, and the scaling takes
that drift out.  peak_rss_mb is the high-water mark after the first pass
(imports, set-up and one full pass), which does not depend on how many
passes fit.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.  --trace 1
alternates untraced and traced passes, adds one memory pass with tracemalloc
around the BFS calls when the workload runs any, reports the per-layer
metrics, and writes the spans of the first traced pass to perfbench/out/.

Set-up time is measured in fresh interpreters (setup_probe.py), several times
per run; setup_s is the median of the probes, each scaled to the reference
speed in the same way.  Peak RSS is this process's own high-water mark, so
each workload runs in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> int:
    """Cap every BLAS/OpenMP pool at the CPUs this process may use; must run
    before numpy is imported here, and the set-up probes inherit it."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def src_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def probe_setup(fields) -> dict[str, float]:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(fields)]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_setup(fields) -> dict[str, float]:
    """Medians over SETUP_PROBES fresh interpreters: setup_s at the reference
    speed, setup_wall_s as measured, and gf_build_s."""
    probes = [probe_setup(fields) for _ in range(SETUP_PROBES)]
    return {
        "setup_s": statistics.median(
            hostspeed.to_reference(p["setup_s"], p["kernel_s"]) for p in probes),
        "setup_wall_s": statistics.median(p["setup_s"] for p in probes),
        "gf_build_s": statistics.median(p["gf_build_s"] for p in probes),
    }


def percentile(sorted_values, frac):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(frac * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(name, passes, setup, rss_mb, attempted, failed):
    """Declared end-to-end metrics, and the raw times and workload-specific
    figures that are printed with them."""
    wall = statistics.median(p.wall_s for p in passes)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "wall_ref_s": (statistics.median(p.ref_s for p in passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "wall_s": (wall, "s"),
        "setup_wall_s": (setup["setup_wall_s"], "s"),
        "kernel_ms": (statistics.median(p.kernel_s for p in passes) * 1e3, "ms"),
        "fail_frac": (failed / attempted, "frac"),
        "passes": (len(passes), "count"),
    }
    first = passes[0]
    if name == "bfs":
        extra["edges_per_s"] = (first.edges / wall, "1/s")
    elif name == "spectrum":
        extra["weights_per_s"] = (first.weights / wall, "1/s")
    elif name == "witness":
        lat = sorted(x * 1e3 for p in passes for x in p.block_s)
        extra["queries_per_s"] = (len(first.block_s) / wall, "1/s")
        extra["query_p50_ms"] = (percentile(lat, 0.50), "ms")
        extra["query_p99_ms"] = (percentile(lat, 0.99), "ms")
        extra["query_samples"] = (len(lat), "count")
    return metrics, extra


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("acceptance", "bfs", "spectrum", "witness"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "linwenger" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import scipy.sparse  # noqa: F401  - part of set-up, as in the probes

    import spans
    import workloads
    from linwenger import fields

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup = measure_setup(workload.fields())
    for p, e, modulus in workload.fields():
        fields.GF(p, e, modulus)

    def measured_pass(tracer):
        mark = sampler.mark()
        res = workload.run_pass(tracer)
        res.kernel_s = sampler.kernel_s_since(mark)
        return res

    start = time.perf_counter()
    plain, traced, tracers = [], [], []
    with hostspeed.Sampler() as sampler:
        while True:
            plain.append(measured_pass(spans.NullTracer()))
            if len(plain) == 1:
                # Later passes can grow the high-water mark through allocator
                # reuse, so the peak is taken where every run has reached it.
                rss_mb = peak_rss_mb()
            if args.trace:
                tracer = spans.Tracer()
                with tracer:
                    traced.append(measured_pass(tracer))
                tracers.append(tracer)
            elapsed = time.perf_counter() - start
            if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break  # one more round would overrun --seconds
    alloc = None
    extra_passes = []
    if args.trace and any(s[spans.NAME] in spans.BFS_SPANS for s in tracers[0].spans):
        alloc = spans.Tracer(measure_alloc=True)
        with alloc:
            extra_passes.append(workload.run_pass(alloc))

    all_passes = plain + traced + extra_passes
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    if args.trace:
        overhead = (statistics.median(p.ref_s for p in traced)
                    / statistics.median(p.ref_s for p in plain) - 1.0)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        metrics = spans.median_layer_metrics(tracers, alloc, setup["gf_build_s"], overhead,
                                             units)
        extra = {}
        wanted = [m["name"] for m in declared["per_layer"]]
    else:
        metrics, extra = end_to_end(args.workload, plain, setup, rss_mb, attempted, failed)
        wanted = [m["name"] for m in declared["end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(wanted))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "machine": platform.machine(),
    }
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:<10} {name:<44} {value:>14.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        OUT.mkdir(exist_ok=True)
        record = {
            "env": env,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "span_fields": spans.SPAN_FIELDS,
            "spans": tracers[0].spans,
        }
        path = OUT / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(record, separators=(",", ":")))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
