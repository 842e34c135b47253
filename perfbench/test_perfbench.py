"""Tests of the benchmark itself: its gates can fail, its inputs follow the
seed, and tracing leaves the package as it found it.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from linwenger import metrics, spectrum  # noqa: E402
from linwenger.graphs import FamilySpec, Graph  # noqa: E402


def test_perturbed_acceptance_pass_fails():
    res = workloads.Acceptance(seed=0, perturb=True).run_pass(spans.NullTracer())
    assert res.attempted == workloads.Acceptance.N_CRITERIA
    assert res.failed / res.attempted > 0


def test_tampered_path_witness_is_rejected():
    g = Graph(FamilySpec.linearized(3, 2, 2))
    a, b = g.decode(5), g.decode(g.half + 17)
    walk = metrics.diameter_witness(g, a, b)
    assert workloads.path_is_valid(g.spec, walk, a, b)
    verts = list(walk.vertices)
    verts[1] = g.decode(g.encode(verts[1]) ^ 1)
    tampered = dataclasses.replace(walk, vertices=tuple(verts))
    assert not workloads.path_is_valid(g.spec, tampered, a, b)


def test_moment_identities_reject_a_wrong_spectrum():
    spec = FamilySpec.linearized(3, 1, 2)
    report = spectrum.spectrum_enumerate(spec)
    assert workloads.spectrum_moments_hold(report, spec.q, spec.m)
    first, *rest = report.entries
    moved = dataclasses.replace(first, multiplicity=first.multiplicity - 1)
    zero = dataclasses.replace(rest[-1], multiplicity=rest[-1].multiplicity + 1)
    wrong = dataclasses.replace(report, entries=(moved, *rest[:-1], zero))
    assert wrong.total_multiplicity == report.total_multiplicity
    assert not workloads.spectrum_moments_hold(wrong, spec.q, spec.m)


def test_inputs_follow_the_seed():
    assert workloads.Witness(3).pairs == workloads.Witness(3).pairs
    assert workloads.Witness(3).paths != workloads.Witness(4).paths
    assert workloads.Spectrum(3).f_indices == workloads.Spectrum(3).f_indices
    assert workloads.irreducible_moduli(3, 2) == [(1, 0, 1), (2, 1, 1), (2, 2, 1)]
    assert workloads.irreducible_moduli(2, 3) == [(1, 0, 1, 1), (1, 1, 0, 1)]
    moduli = {tuple(c[4] for c in workloads.Bfs(s).cases if c[4]) for s in range(12)}
    assert len(moduli) > 1


def test_traced_pass_groups_spans_and_restores_the_package():
    witness = workloads.Witness(0)
    for key in witness.CASES:
        witness.paths[key] = witness.paths[key][:3]
        witness.pairs[key] = witness.pairs[key][:2]
    original = metrics.diameter_witness
    with spans.Tracer() as tracer:
        res = witness.run_pass(tracer)
    assert metrics.diameter_witness is original
    assert res.failed == 0 and res.attempted == 15
    roots = [s for s in tracer.spans if s[spans.PARENT] < 0]
    assert len(roots) == 15 and all(s[spans.NAME] == "perfbench.query" for s in roots)
    for s in tracer.spans:
        parent = s[spans.PARENT]
        if parent >= 0:
            assert tracer.spans[parent][spans.GROUP] == s[spans.GROUP]
            assert tracer.spans[parent][spans.START] <= s[spans.START]
    values = spans.layer_metrics(tracer, None, 0.001, 0.0)
    assert values["metrics.witnesses_validated"] == 9
    assert values["fields.fq_solve_calls"] == 9
    assert values["graphs.built"] == 0


def test_self_time_subtracts_children():
    tree = [
        ["perfbench.graph", None, 1, -1, 0.0, 10.0, True, None],
        ["metrics.diameter", "c", 1, 0, 1.0, 7.0, True, None],
        ["metrics.eccentricities", "c", 1, 1, 2.0, 6.0, True, None],
        ["graphs.csr", "c", 1, 2, 2.0, 3.0, True, None],
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 3.0, 1.0]


def test_benchmark_json_names_the_workloads():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_host_speed_samples_are_left_out_of_timed_blocks():
    before = signal.getsignal(signal.SIGALRM)
    res = workloads.PassResult()
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        with res.timed():
            while time.perf_counter() - t0 < 0.4:
                pass
        elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.samples) >= 2 and sampler.spent > 0
    assert abs(res.block_s[0] + sampler.spent - elapsed) < 0.01
    res.kernel_s = 2 * hostspeed.NOMINAL_KERNEL_S
    assert res.ref_s == res.wall_s / 2
