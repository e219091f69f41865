#!/usr/bin/env python3
"""Check that the benchmark agrees with itself.

Run from the repository root:

    python3 perfbench/agree.py [--runs 5] [--workloads a,b] [--seed-base 1000]

For each workload in BENCHMARK.json this makes two independent sets of
--runs runs of the benchmark command, each run with its own seed, runs of
the two sets alternating. For every end-to-end metric it prints each set's
median and spread (the distance between the first and third quartiles as a
share of the median) and whether the sets agree within the metric's bound:
each spread within the bound, and neither median worse than the other by
more than the bound. It also prints the spread of
all runs pooled. Raw results go to <build dir>/agree/<workload>.jsonl. The
exit status is 0 only if every run was correct and every metric agrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(cmd, workload, seed, seconds):
    args = [*cmd, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {out.returncode}: {out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set (at least 2)")
    ap.add_argument("--workloads", default="", help="comma-separated subset of the workloads")
    ap.add_argument("--seed-base", type=int, default=1000)
    opts = ap.parse_args()
    if opts.runs < 2:
        ap.error("--runs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = [n for n in opts.workloads.split(",") if n]
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = (build if build.is_absolute() else ROOT / build) / "agree"
    out_dir.mkdir(parents=True, exist_ok=True)

    ok = True
    for name in names:
        sets = ([], [])
        with open(out_dir / f"{name}.jsonl", "w") as raw:
            for i in range(opts.runs):
                for s in (0, 1):
                    seed = opts.seed_base + 2 * i + s
                    res = run_once(bench["command"], name, seed, bench["run_seconds"])
                    raw.write(json.dumps({"set": s, "seed": seed, **res}) + "\n")
                    raw.flush()
                    if not res["correct"] or res["failed"]:
                        print(f"{name} seed {seed}: incorrect, {res['failed']} of {res['attempted']} failed")
                        ok = False
                    sets[s].append(res["metrics"])
        print(f"\n{name}: two sets of {opts.runs} runs")
        print(f"  {'metric':<20} {'median A':>12} {'median B':>12} {'spread A':>9} {'spread B':>9} "
              f"{'pooled':>7} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            key, bound = m["name"], m["bound"]
            a = [r[key]["value"] for r in sets[0]]
            b = [r[key]["value"] for r in sets[1]]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb, pooled = spread(a), spread(b), spread(a + b)
            sign = 1 if m["better"] == "lower" else -1
            drift = max(sign * (mb - ma) / ma, sign * (ma - mb) / mb) if ma and mb else 0.0
            agree = drift <= bound and sa <= bound and sb <= bound
            ok &= agree
            print(f"  {key:<20} {ma:12.5g} {mb:12.5g} {sa:9.3f} {sb:9.3f} {pooled:7.3f} {bound:6.2f}  "
                  f"{'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
