"""Steadiness check: run one workload repeatedly, one run at a time, and
print each metric's median and quartiles against the bound that
BENCHMARK.json gives it.

    python3 bench/steady.py --workload cset-fvs --runs 10 [--first-seed 1]

Each run uses the next seed.  The spread is the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median;
the target is a spread below a third of the bound.  Runs are untraced:
per-layer metrics have no bounds.  The share of failed operations must be
identical in every run.  Exits 1 if a spread reaches its bound, a run
fails, or a run reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run_once(args.workload, seed, spec["run_seconds"])
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']}"
              f" failed={r['failed']}", flush=True)

    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) != 1:
        print(f"failed share differs between runs: {sorted(shares)}")
        ok = False
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if spread >= bound:
                flag = "OVER BOUND"
                ok = False
            elif spread >= bound / 3:
                flag = "above bound/3"
        print(f"{name:34} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:7.3f} {bound if bound is not None else '-':>6} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
