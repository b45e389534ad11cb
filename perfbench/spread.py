"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1 2 3 ...] [--seconds S]

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints for
each end-to-end metric the median, the quartiles (``statistics.quantiles``,
n = 4), the spread (Q3 - Q1) / median, and that spread against the metric's
bound in BENCHMARK.json.  Raw results are appended to
``perfbench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description="run-to-run spread of end-to-end metrics")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", "spread-%s.jsonl" % args.workload)
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        results.append(res)
        unscaled_line = next((line.split(": ", 1)[1] for line in lines
                              if line.startswith("unscaled:")), "?")
        with open(log, "a") as fh:
            fh.write(json.dumps(dict(res, seed=seed, unscaled=unscaled_line)) + "\n")
        print("seed %d: %s  (%s)" % (seed, "  ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items()), unscaled_line))
    ok = all(r["correct"] for r in results)
    print("correct on every run: %s" % ok)
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med
        print("%-12s median %.5g  Q1 %.5g  Q3 %.5g  spread %.3f  bound %.2f  (%.0f%% of bound)"
              % (m["name"], med, q1, q3, spread, m["bound"], 100 * spread / m["bound"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
