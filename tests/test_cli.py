"""CLI surface: argument parsing, output formats, exit-code contract."""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linwenger
from linwenger import cli
from linwenger.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_IO, EXIT_MISMATCH, EXIT_OK, main
from linwenger.errors import Acyclic, NotBipartite, SolveFailed
from linwenger.fields import Field

EDGELIST_L1_2 = "0 4\n0 5\n1 4\n1 7\n2 6\n2 7\n3 5\n3 6\n"


class TestBuild:
    def test_edgelist_stdout(self, capsys):
        code = main(["build", "--p", "2", "--e", "1", "--m", "1"])
        out, err = capsys.readouterr()
        assert code == EXIT_OK
        assert out == EDGELIST_L1_2
        assert "|V|=8 |E|=8 regular=yes" in err

    def test_dimacs(self, capsys):
        code = main(["build", "--p", "3", "--m", "1", "--family", "wenger",
                     "--format", "dimacs"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert out.splitlines()[0] == "p edge 18 27"

    def test_json_meta(self, capsys):
        code = main(["build", "--p", "2", "--e", "2", "--m", "1", "--format", "json"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        meta = json.loads(out)
        assert meta["vertices"] == 32 and meta["regular"] == 4

    def test_json_meta_builds_no_adjacency(self, capsys):
        # 8192 vertices over a budget of 1000: the summary needs no graph
        code = main(["build", "--p", "2", "--e", "6", "--m", "1", "--format", "json",
                     "--max-vertices", "1000"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert json.loads(out)["vertices"] == 8192

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        code = main(["build", "--p", "2", "--e", "1", "--m", "1", "--out", str(path)])
        out, err = capsys.readouterr()
        assert code == EXIT_OK
        assert path.read_text() == EDGELIST_L1_2
        assert "regular=yes" in out and err == ""

    def test_composite_characteristic(self, capsys):
        assert main(["build", "--p", "4", "--m", "1"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_vertex_budget(self, capsys):
        code = main(["build", "--p", "2", "--m", "2", "--max-vertices", "4"])
        assert code == EXIT_BUDGET
        assert "error:" in capsys.readouterr().err

    def test_custom_family_matches_wenger(self, capsys):
        code = main(["build", "--p", "3", "--m", "2", "--family", "custom",
                     "--f-list", "0,1;0,0,1"])
        custom_out, _ = capsys.readouterr()
        assert code == EXIT_OK
        code = main(["build", "--p", "3", "--m", "2", "--family", "wenger"])
        wenger_out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert custom_out == wenger_out

    def test_custom_requires_f_list(self, capsys):
        assert main(["build", "--p", "3", "--m", "1", "--family", "custom"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_f_list_only_for_custom(self, capsys):
        code = main(["build", "--p", "3", "--m", "1", "--f-list", "0,1"])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_bad_f_list_digits(self, capsys):
        base = ["build", "--p", "3", "--m", "1", "--family", "custom", "--f-list"]
        assert main(base + ["0,z"]) == EXIT_CONFIG  # digit z = 35 exceeds p
        assert main(base + ["0,#"]) == EXIT_CONFIG  # not a digit at all
        assert main(base + ["0,"]) == EXIT_CONFIG  # empty coefficient
        capsys.readouterr()

    def test_modulus_override(self, capsys):
        code = main(["build", "--p", "2", "--e", "2", "--m", "1", "--modulus", "1,1,1"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert len(out.splitlines()) == 64  # q^(m+2) edges over GF(4)
        assert main(["build", "--p", "2", "--e", "2", "--m", "1",
                     "--modulus", "1,0,1"]) == EXIT_CONFIG  # (x+1)^2 is reducible
        assert main(["build", "--p", "2", "--e", "2", "--m", "1",
                     "--modulus", "1,x"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_unwritable_out_path(self, capsys, tmp_path):
        path = tmp_path / "missing_dir" / "g.edges"
        code = main(["build", "--p", "2", "--m", "1", "--out", str(path)])
        assert code == EXIT_IO
        capsys.readouterr()


class TestSpectrum:
    def test_enumerated_default(self, capsys):
        code = main(["spectrum", "--p", "2", "--m", "1"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert "+2  x1" in out
        assert "-sqrt(2)  x2" in out
        assert "total multiplicity 8" in out

    def test_both_match(self, capsys):
        code = main(["spectrum", "--p", "3", "--m", "1", "--method", "both"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "MATCH"
        assert "closed form:" in out and "enumerated:" in out

    def test_both_json(self, capsys):
        code = main(["spectrum", "--p", "2", "--e", "2", "--m", "2",
                     "--method", "both", "--json"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["match"] is True
        assert payload["closed"]["provenance"] == "closed_form"

    def test_both_match_below_exponent(self, capsys):
        for e, m in ((2, 1), (3, 2)):  # m < e
            code = main(["spectrum", "--p", "2", "--e", str(e), "--m", str(m),
                         "--method", "both"])
            out, _ = capsys.readouterr()
            assert code == EXIT_OK
            assert out.splitlines()[-1] == "MATCH"

    def test_closed_rejects_wenger(self, capsys):
        code = main(["spectrum", "--p", "3", "--m", "1", "--family", "wenger",
                     "--method", "closed"])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_eval_budget(self, capsys):
        code = main(["spectrum", "--p", "2", "--e", "2", "--m", "2", "--max-evals", "10"])
        assert code == EXIT_BUDGET
        capsys.readouterr()

    def test_wenger_enumerates(self, capsys):
        code = main(["spectrum", "--p", "3", "--m", "2", "--family", "wenger", "--json"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert json.loads(out)["total"] == str(2 * 27)


class TestMetrics:
    def test_matching_graph(self, capsys):
        code = main(["metrics", "--p", "2", "--e", "2", "--m", "1"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert "components 1 (predicted 1, ok)" in out
        assert "diameter 4 (predicted 4, ok)" in out
        assert "girth 6 (predicted 6, ok)" in out
        # L_1(4): A(a) and B(b) for a basis of two, and T_2(c) likewise
        assert "bfs sources 2 of 32 (6 automorphisms certified)" in out

    def test_json(self, capsys):
        code = main(["metrics", "--p", "2", "--m", "2", "--json"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        d = json.loads(out)
        assert d["components"] == 2 and d["girth"] == 8
        assert d["match"] == {"components": True, "diameter": None, "girth": True}
        assert d["bfs_sources"] == 2 and d["automorphisms"] == 4

    def test_array_over_the_byte_budget_exits_at_once(self, monkeypatch, capsys):
        # L_1(997) has 1,988,018 vertices, within the vertex budget, but its
        # (n, q) int32 array would take 7.9 GB: refused before any allocation
        def refuse(*_args, **_kw):
            raise AssertionError("nothing may be allocated for an over-budget graph")

        monkeypatch.setattr(np, "empty", refuse)
        monkeypatch.setattr(Field, "index_tables", refuse)
        assert main(["metrics", "--p", "997", "--e", "1", "--m", "1"]) == EXIT_BUDGET
        _, err = capsys.readouterr()
        assert "7928215784 bytes" in err and "array budget" in err

    def test_wenger_without_predictions(self, capsys):
        code = main(["metrics", "--p", "3", "--m", "1", "--family", "wenger"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert "(no prediction)" in out


class TestVerify:
    def test_small_budget_skips(self, capsys):
        code = main(["verify", "--max-vertices", "100"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 12  # 11 criteria plus the summary
        assert "0 fail" in lines[-1]
        assert any("SKIP" in ln for ln in lines[:-1])

    def test_perturbation_is_caught(self, capsys):
        code = main(["verify", "--perturb", "--max-vertices", "150"])
        out, _ = capsys.readouterr()
        assert code == EXIT_MISMATCH
        assert "FAIL" in out

    def test_json_payload(self, capsys):
        code = main(["verify", "--max-vertices", "100", "--json"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload) == 11
        assert {r["number"] for r in payload} == set(range(1, 12))
        assert all(r["status"] in ("PASS", "SKIP") for r in payload)


class TestParser:
    def test_bad_choice_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--p", "2", "--m", "1", "--format", "gml"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--m", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_non_integer_parameter(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--p", "abc", "--m", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["build", "--p", "2", "--m", "1", "--json"],
        ["build", "--p", "2", "--m", "1", "--max-evals", "10"],
        ["spectrum", "--p", "2", "--m", "1", "--max-vertices", "10"],
        ["metrics", "--p", "2", "--m", "1", "--seed", "1"],
        ["metrics", "--p", "2", "--m", "1", "--max-evals", "10"],
    ])
    def test_options_a_subcommand_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestInternalErrors:
    @pytest.mark.parametrize("exc,code", [
        (SolveFailed("constructed line fails adjacency"), EXIT_MISMATCH),
        (Acyclic("graph contains no cycle"), EXIT_MISMATCH),
        (MemoryError(), EXIT_BUDGET),
        (IndexError("index 9 is out of bounds"), EXIT_MISMATCH),
        (KeyError("missing"), EXIT_MISMATCH),
        (NotBipartite("BFS needs points [0, n/2) and lines [n/2, n)"), EXIT_MISMATCH),
    ])
    def test_mapped_to_exit_code_without_traceback(self, exc, code, capsys, monkeypatch):
        def raise_it(graph):
            raise exc

        monkeypatch.setattr(cli, "metrics_report", raise_it)
        assert main(["metrics", "--p", "2", "--m", "1"]) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


# (p, e, m) with at most 4096 edges, q^(m+2).
_SMALL_CASES = [
    (p, e, m)
    for p, e in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1))
    for m in (1, 2, 3)
    if (p**e) ** (m + 2) <= 4096
]
_DIGITS = "0123456789"


def test_subcommands_run_without_scipy(tmp_path):
    # scipy made unimportable in a fresh interpreter: no package code path
    # may reach it
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "from linwenger.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(linwenger.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv, says in (
        (["verify", "--seed", "0"], "11 pass"),
        (["metrics", "--p", "3", "--e", "2", "--m", "2"], "girth 6 (predicted 6, ok)"),
        (["build", "--p", "3", "--m", "2", "--format", "edgelist", "--out", str(tmp_path / "g")],
         "regular=yes"),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, (argv, proc.stderr)
        assert says in proc.stdout


@st.composite
def _invocations(draw):
    """A build/spectrum/metrics argv over a small graph, possibly made
    invalid by one fault."""
    command = draw(st.sampled_from(["build", "spectrum", "metrics"]))
    p, e, m = draw(st.sampled_from(_SMALL_CASES))
    family = draw(st.sampled_from(["linearized", "wenger", "custom"]))
    fault = draw(st.sampled_from(
        [None, "composite_p", "zero_m", "reducible_modulus", "wrong_degree_modulus",
         "malformed_f_list"]
    ))
    p_arg = draw(st.sampled_from([1, 4, 6, 9])) if fault == "composite_p" else p
    m_arg = 0 if fault == "zero_m" else m
    argv = [command, "--p", str(p_arg), "--e", str(e), "--m", str(m_arg), "--family", family]
    if command == "spectrum":
        argv += ["--method", draw(st.sampled_from(["closed", "enum", "both"]))]
    if fault == "malformed_f_list":
        argv += ["--f-list", draw(st.sampled_from(["0,z", "0,#", "0,", ";", "00000000"]))]
    elif family == "custom":
        polys = [
            ",".join(
                "".join(draw(st.sampled_from(_DIGITS[:p])) for _ in range(e))
                for _ in range(draw(st.integers(1, 3)))
            )
            for _ in range(m)
        ]
        argv += ["--f-list", ";".join(polys)]
    if fault == "reducible_modulus":
        argv += ["--modulus", ",".join(["0"] * e + ["1"])]  # x^e, reducible for e >= 2
    elif fault == "wrong_degree_modulus":
        argv += ["--modulus", ",".join(["1"] * (e + 2))]
    return argv


@settings(max_examples=40, deadline=None)
@given(_invocations())
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    assert code in (EXIT_OK, EXIT_IO, EXIT_CONFIG, EXIT_BUDGET, EXIT_MISMATCH), argv
    assert "Traceback" not in err.getvalue(), argv
