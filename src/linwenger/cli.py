"""Command-line front end: build/export graphs, print spectra and metrics,
and run the full verification suite.

Exit codes are a stable contract: 0 success, 1 I/O error, 2 invalid
configuration, 3 budget exceeded or out of memory, 4 theorem mismatch, check
failure or internal error.  An exception's class alone picks its code:
OSError 1, ConfigError 2, BudgetExceeded or MemoryError 3, and any other
exception raised inside the package 4, reported on one stderr line
"error: internal error: <Type>: <message>" with no traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetExceeded, ConfigError
from .graphs import DEFAULT_BYTE_BUDGET, FamilySpec, Graph, export, layout_certificate
from .metrics import metrics_report
from .spectrum import (
    DEFAULT_EVAL_BUDGET,
    closed_form_linearized,
    spectrum_enumerate,
)
from .verify import run_acceptance

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4

# Single-character base-p digits cap the CLI at p <= 36; the library itself
# accepts any prime under its own bound.
_CLI_DIGIT_LIMIT = 36


def _parse_modulus(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --modulus {text!r}: {exc}") from None


def _coef_index(token: str, p: int, e: int) -> int:
    """Digit string over basis coordinates, lowest coordinate first."""
    if not token or len(token) > e:
        raise ConfigError(f"coefficient {token!r} needs 1..{e} base-{p} digits")
    idx = 0
    for pos, ch in enumerate(token):
        try:
            digit = int(ch, _CLI_DIGIT_LIMIT)
        except ValueError:
            raise ConfigError(f"bad digit {ch!r} in coefficient {token!r}") from None
        if digit >= p:
            raise ConfigError(f"digit {ch!r} out of range for characteristic {p}")
        idx += digit * p**pos
    return idx


def _parse_f_list(text: str, p: int, e: int) -> tuple[tuple[int, ...], ...]:
    if p > _CLI_DIGIT_LIMIT:
        raise ConfigError(f"--f-list digit syntax supports p <= {_CLI_DIGIT_LIMIT}")
    polys = []
    for poly_text in text.split(";"):
        tokens = [tok.strip() for tok in poly_text.split(",")]
        polys.append(tuple(_coef_index(tok, p, e) for tok in tokens))
    return tuple(polys)


def _spec_from_args(args) -> FamilySpec:
    modulus = _parse_modulus(args.modulus) if args.modulus else None
    if args.family == "custom":
        if not args.f_list:
            raise ConfigError("--family custom requires --f-list")
        f_indices = _parse_f_list(args.f_list, args.p, args.e)
        return FamilySpec.custom(args.p, args.e, args.m, f_indices, modulus)
    if args.f_list:
        raise ConfigError("--f-list only applies to --family custom")
    return FamilySpec(args.p, args.e, args.m, args.family, modulus)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    spec = _spec_from_args(args)
    graph = Graph(spec, byte_budget=args.max_bytes)
    summary = f"{spec.family} p={spec.p} e={spec.e} m={spec.m} |V|={graph.n} |E|={graph.n_edges}"
    faults = []
    if args.format != "json":  # the JSON summary needs no adjacency
        faults = layout_certificate(graph).faults()
        summary += f" regular={'NO' if faults else 'yes'}"
    export(graph, args.format, args.out if args.out else sys.stdout)
    # keep the data stream clean: summary goes to stderr when data is on stdout
    print(summary, file=sys.stderr if not args.out else sys.stdout)
    return EXIT_MISMATCH if faults else EXIT_OK


def _spectrum_lines(report) -> list[str]:
    width = max((len(en.eigenvalue_str()) for en in report.entries), default=1)
    lines = [f"{en.eigenvalue_str():>{width}}  x{en.multiplicity}" for en in report.entries]
    lines.append(f"total multiplicity {report.total_multiplicity}")
    return lines


def cmd_spectrum(args) -> int:
    spec = _spec_from_args(args)
    closed = None
    enum = None
    if args.method in ("closed", "both"):
        if spec.family != "linearized":
            raise ConfigError("closed-form spectrum applies to the linearized family only")
        closed = closed_form_linearized(spec.p, spec.e, spec.m).to_report(spec)
    if args.method in ("enum", "both"):
        enum = spectrum_enumerate(spec, max_evals=args.max_evals)
    if args.method == "both":
        match = closed.same_spectrum(enum)
        if args.json:
            payload = {
                "closed": closed.to_json_dict(),
                "enumerated": enum.to_json_dict(),
                "match": match,
            }
            _emit(json.dumps(payload, indent=2) + "\n", args.out)
        else:
            lines = ["closed form:"]
            lines += ["  " + s for s in _spectrum_lines(closed)]
            lines.append("enumerated:")
            lines += ["  " + s for s in _spectrum_lines(enum)]
            lines.append("MATCH" if match else "MISMATCH")
            _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK if match else EXIT_MISMATCH
    report = enum if enum is not None else closed
    if args.json:
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    else:
        _emit("\n".join(_spectrum_lines(report)) + "\n", args.out)
    return EXIT_OK


def cmd_metrics(args) -> int:
    graph = Graph(_spec_from_args(args), byte_budget=args.max_bytes).materialize()
    report = metrics_report(graph)
    if args.json:
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    else:
        pred = report.predicted

        def show(value, predicted):
            if predicted is None:
                return f"{value} (no prediction)"
            verdict = "ok" if value == predicted else "MISMATCH"
            return f"{value} (predicted {predicted}, {verdict})"

        lines = [
            f"components {show(report.components, pred.components)}",
            f"sizes {report.sizes}",
            f"diameter {show(report.diameter, pred.diameter)}",
            f"girth {show(report.girth, pred.girth)}",
            f"bfs sources {report.bfs_sources} of {graph.n} "
            f"({report.automorphisms} automorphisms certified)",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report.all_match else EXIT_MISMATCH


def cmd_verify(args) -> int:
    results = run_acceptance(seed=args.seed, perturb=args.perturb)
    n_fail = sum(1 for r in results if r.status == "FAIL")
    if args.json:
        payload = [
            {
                "number": r.number,
                "name": r.name,
                "status": r.status,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [r.line() for r in results]
        lines.append(f"{len(results)} criteria: {len(results) - n_fail} pass, {n_fail} fail")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_MISMATCH if n_fail else EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    sub.add_argument("--e", type=int, default=1, help="extension degree")
    sub.add_argument("--m", type=int, required=True, help="number of maps f_2..f_(m+1)")
    sub.add_argument("--family", choices=("wenger", "linearized", "custom"),
                     default="linearized")
    sub.add_argument("--f-list", dest="f_list", default=None,
                     help="custom maps: polys split by ';', coefficients by ',', "
                          "each coefficient a base-p digit string (low coordinate first)")
    sub.add_argument("--modulus", default=None,
                     help="irreducible modulus coefficients, low degree first, e.g. 1,1,1")


def _positive(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"a budget must be positive, got {value}")
    return value


def _add_output(sub: argparse.ArgumentParser, *options: str) -> None:
    """--out plus the listed options, so each subcommand accepts only what it reads."""
    sub.add_argument("--out", default=None, help="write output to this path")
    if "json" in options:
        sub.add_argument("--json", action="store_true", help="machine-readable output")
    if "seed" in options:
        sub.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    if "max_bytes" in options:
        sub.add_argument("--max-bytes", type=_positive, default=DEFAULT_BYTE_BUDGET)
    if "max_evals" in options:
        sub.add_argument("--max-evals", type=_positive, default=DEFAULT_EVAL_BUDGET)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linwenger",
        description="Wenger-type point-line incidence graphs over GF(p^e): "
                    "construction, exact spectra, and theorem verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="construct a graph and export it")
    _add_common(b)
    b.add_argument("--format", choices=("edgelist", "dimacs", "json"), default="edgelist")
    _add_output(b, "max_bytes")
    b.set_defaults(fn=cmd_build)

    s = subs.add_parser("spectrum", help="closed-form and/or enumerated spectrum")
    _add_common(s)
    s.add_argument("--method", choices=("closed", "enum", "both"), default="enum")
    _add_output(s, "json", "max_evals")
    s.set_defaults(fn=cmd_spectrum)

    mt = subs.add_parser("metrics", help="BFS components, diameter, girth vs predictions")
    _add_common(mt)
    _add_output(mt, "json", "max_bytes")
    mt.set_defaults(fn=cmd_metrics)

    v = subs.add_parser("verify", help="run the full acceptance matrix")
    v.add_argument("--perturb", action="store_true",
                   help="inject a single-edge fault to confirm the checks can fail")
    _add_output(v, "json", "seed")
    v.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BudgetExceeded, MemoryError) as exc:
        print(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}",
              file=sys.stderr)
        return EXIT_BUDGET
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # noqa: BLE001 - a bug in the package exits 4, not with a traceback
        msg = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
