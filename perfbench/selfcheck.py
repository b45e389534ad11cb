"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. An operation given a deliberately wrong expectation, and one whose call
   raises a library error, each count as a failure.
2. For every workload, a short untraced run and a short traced run print
   exactly the metrics BENCHMARK.json names, with their units, and a result
   line with exactly the keys correct, attempted, failed and metrics.
3. The traced runs meet the layer predictions: no transport outside
   holonomy_battery, no generator words on cover_indices, and none inside
   the lift spans of holonomy_battery.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero and prints no result.

Exits 0 when every check holds.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
#: operations in a short traced run; enough to reach every layer
TRACE_OPS = {"holonomy_battery": 6, "cover_indices": 60, "gaussian_words": 14}


def check_failures_counted() -> list:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cover_indices
    import holonomy_battery as hb
    import maslov.cli
    from harness import Op, run_loop

    problems = []
    right = next(op for op in hb.make_ops(1) if op.name == "battery.circle_quarter_arc")
    wrong = Op(right.name, right.call, hb.check_transverse(1))  # true value is 0
    raising = Op("spec.error", lambda: maslov.cli.run({"command": "nonesuch"}),
                 lambda got: None)
    pair = next(op for op in cover_indices.make_ops(1) if op.name.startswith("pair.n2.k1"))
    # the expectation shifted by one deck generator
    wrong_pair = Op(pair.name, pair.call,
                    lambda got: cover_indices._mismatch(got, (got[0] + 2, -got[0] - 2)))
    _, failures, _ = run_loop([right, wrong, raising, pair, wrong_pair], count=5)
    got = [(f["index"], f["error"]) for f in failures]
    want = [(1, "WrongResult"), (2, "SpecError"), (4, "WrongResult")]
    if got != want:
        problems.append("failure accounting: got %s, expected %s" % (got, want))
    return problems


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True)


def check_metrics(bench) -> list:
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            args = ["--workload", name, "--seed", "1", "--seconds", "2", "--trace", str(trace)]
            if trace:
                args += ["--max-ops", str(TRACE_OPS[name])]
            proc = run_bench(args)
            if proc.returncode != 0:
                problems.append("%s trace=%d exited %d: %s" % (name, trace, proc.returncode,
                                                               proc.stderr[-500:]))
                continue
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            if set(res) != RESULT_KEYS:
                problems.append("%s: result keys %s" % (name, sorted(res)))
            if not res["correct"] or res["failed"]:
                problems.append("%s trace=%d: %d failures" % (name, trace, res["failed"]))
            if not any(line.startswith("fail_ratio ") for line in lines):
                problems.append("%s trace=%d: no fail_ratio line" % (name, trace))
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append("%s trace=%d: metrics differ from BENCHMARK.json" % (name, trace))
            if trace:
                problems.extend(check_predictions(name, res["metrics"]))
    return problems


def check_predictions(name, metrics) -> list:
    def value(key):
        return metrics[key]["value"]

    problems = []
    if name != "holonomy_battery" and value("geometry.transport_frame.calls") != 0:
        problems.append("%s: transport_frame was called" % name)
    if name == "cover_indices" and value("metaplectic.apply_generator.calls") != 0:
        problems.append("cover_indices: apply_generator was called")
    if name == "holonomy_battery" and value("metaplectic.apply_generator.calls_in_lift") != 0:
        problems.append("holonomy_battery: generator words inside the lift")
    if name == "gaussian_words" and value("metaplectic.apply_generator.calls_in_lift") == 0:
        problems.append("gaussian_words: the word route was not taken")
    return problems


def check_bare_directory() -> list:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run_bench(["--workload", "cover_indices", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["bare directory: exit %d with output %r" % (proc.returncode, proc.stdout[-200:])]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = check_failures_counted() + check_bare_directory() + check_metrics(bench)
    for p in problems:
        print("FAIL %s" % p)
    print("selfcheck: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
