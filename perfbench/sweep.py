"""Run the benchmark on ten seeds for every workload and summarise the spread.

    python3 perfbench/sweep.py --first-seed 1 --out perfbench/out/sweep.json

Seeds are first-seed, first-seed+1, ...; each seed runs every workload of
BENCHMARK.json in turn, so drift in machine speed reaches all of them alike.
For each end-to-end metric the summary gives the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next to
the metric's bound in BENCHMARK.json.  Exits 1 when a run fails, reports
correct = false, or gives a metric a spread that reaches its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the env line of one run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(ln[len("env "):]) for ln in lines if ln.startswith("env "))
    return json.loads(lines[-1]), env


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med,
        "bound": bound,
        "values": values,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {w: [] for w in names}
    env = None
    ok = True
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for w in names:
            res, env = run_once(w, seed, seconds, trace=0)
            ok &= res["correct"]
            results[w].append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"seed {seed:3d} {w:<10} correct={res['correct']} {vals}", flush=True)

    machine = {k: env[k] for k in ("nproc", "python", "numpy", "scipy", "git_sha",
                                   "src_sha256", "machine")}
    summary = {"run_seconds": seconds, "seeds": [args.first_seed, args.first_seed + RUNS - 1],
               "env": machine, "workloads": {}}
    for w, runs in results.items():
        summary["workloads"][w] = {
            name: summarise([r["metrics"][name]["value"] for r in runs], bound)
            for name, bound in bounds.items()
        }
        for name, s in summary["workloads"][w].items():
            ok &= s["spread"] < s["bound"]
            mark = ("ok" if s["spread"] < s["bound"] / 3
                    else "WIDE" if s["spread"] < s["bound"] else "OVER BOUND")
            print(f"{w:<10} {name:<12} median {s['median']:.4g}  spread {s['spread']:.3f}"
                  f"  bound {s['bound']}  {mark}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
