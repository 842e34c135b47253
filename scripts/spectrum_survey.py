#!/usr/bin/env python3
"""Survey exact spectra and BFS metrics over a parameter grid.

For every prime power q = p^e and exponent count m within the byte budget
(graph_bytes), build the Frobenius-family graph, enumerate its spectrum, and
put the BFS ground truth (components, diameter, girth) next to the
closed-form predictions, with the graph's layout certificate (rows listed by
first coordinate, points next to lines only, symmetric) as the `regular`
column.  Rows where any available prediction disagrees or the certificate
counts a fault are marked and the script exits 4, so it doubles as a quick
smoke sweep.

    python3 scripts/spectrum_survey.py --max-q 9 --max-m 3
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linwenger import (
    FamilySpec,
    Graph,
    closed_form_linearized,
    metrics_report,
    spectrum_enumerate,
)
from linwenger.fields import is_prime
from linwenger.graphs import graph_bytes, layout_certificate


def spectrum_str(report, max_entries=6):
    parts = [f"{en.eigenvalue_str()}x{en.multiplicity}" for en in report.entries]
    if len(parts) > max_entries:
        parts = parts[:max_entries] + ["..."]
    return " ".join(parts)


def survey(max_q, max_m, max_bytes):
    rows = []
    ok = True
    for p in range(2, max_q + 1):
        if not is_prime(p):
            continue
        e = 1
        while p**e <= max_q:
            q = p**e
            for m in range(1, max_m + 1):
                spec = FamilySpec.linearized(p, e, m)
                if graph_bytes(spec) > max_bytes:
                    continue
                t0 = time.perf_counter()
                graph = Graph(spec, byte_budget=max_bytes).materialize()
                rep = metrics_report(graph)
                regular = "NO" if any(layout_certificate(graph)) else "yes"
                enum = spectrum_enumerate(spec)
                closed = closed_form_linearized(p, e, m).to_report(spec)
                closed_ok = "yes" if closed.same_spectrum(enum) else "NO"
                elapsed = time.perf_counter() - t0
                row_ok = rep.all_match and closed_ok != "NO" and regular != "NO"
                ok &= row_ok
                rows.append(
                    (
                        p,
                        e,
                        m,
                        q,
                        graph.n,
                        rep.components,
                        rep.diameter,
                        rep.girth,
                        regular,
                        closed_ok,
                        "ok" if row_ok else "MISMATCH",
                        elapsed,
                        spectrum_str(enum),
                    )
                )
            e += 1
    return rows, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-q", type=int, default=8, help="largest field size to try")
    ap.add_argument("--max-m", type=int, default=3, help="largest number of maps")
    ap.add_argument("--max-bytes", type=int, default=1 << 26, help="graph_bytes limit")
    args = ap.parse_args()

    rows, ok = survey(args.max_q, args.max_m, args.max_bytes)
    head = f"{'p':>3} {'e':>2} {'m':>2} {'q':>3} {'|V|':>7} {'comp':>4} {'diam':>4} " \
           f"{'girth':>5} {'regular':>7} {'closed':>6} {'check':>8} {'sec':>6}  spectrum"
    print(head)
    print("-" * len(head))
    for r in rows:
        print(
            f"{r[0]:>3} {r[1]:>2} {r[2]:>2} {r[3]:>3} {r[4]:>7} {r[5]:>4} {r[6]:>4} "
            f"{r[7]:>5} {r[8]:>7} {r[9]:>6} {r[10]:>8} {r[11]:>6.2f}  {r[12]}"
        )
    print(f"{len(rows)} graphs, {'all consistent' if ok else 'MISMATCH found'}")
    return 0 if ok else 4


if __name__ == "__main__":
    sys.exit(main())
