"""Benchmark entry point for the maslov library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Every workload is a closed loop: one caller issuing operations
one after another in a single child process and thread, with BLAS and
OpenMP pinned to one thread.

* ``--trace 0`` measures ``--seconds`` of operations with no tracing
  installed and prints the end-to-end metrics named in BENCHMARK.json.
* ``--trace 1`` runs one pass of the workload's operation list untraced and
  then traced, and prints the per-layer metrics (counts from a fixed list,
  so they repeat exactly for a seed) plus ``trace.overhead_frac``.  The
  spans go to ``perfbench/out/spans-<workload>-<seed>.csv.gz``.

Every time is scaled to a reference speed of the machine: a fixed loop that
does not touch the library is timed between chunks of operations, and each
time is multiplied by the loop's nominal time over its measured time (see
harness.py).  The unscaled figures are printed too.  ``setup_s`` is the
median over several fresh interpreters of the time from interpreter start
to inputs ready (``import maslov`` plus input generation), each scaled by
the reference loop timed right after it.  ``fail_ratio`` is printed on its
own line; the result's ``attempted`` and ``failed`` carry it exactly.  The last stdout line is the
JSON result.  Exits non-zero, printing no result, if the checkout has no
``src/maslov`` or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

#: fresh set-up-only interpreters per run, besides the measuring child
SETUP_REPEATS = 4
#: whole run, kept under the three-minute limit per invocation
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SRC_MODULES = ("core", "index", "metaplectic", "geometry", "cli", "errors")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for key in THREAD_VARS:
        env[key] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline, stderr_only=False):
    """Run a child interpreter to completion (killed at the deadline)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before %s" % args)
    try:
        proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("child timed out: %s" % args)
    if proc.returncode != 0:
        raise BenchError("child failed (%d): %s\n%s" % (proc.returncode, args,
                                                        proc.stderr[-2000:]))
    if stderr_only:
        return proc.stderr
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError("child printed no result: %s" % args)


def import_scipy_s(deadline) -> float:
    """Cumulative import seconds of scipy.linalg in a fresh ``import maslov``
    (``-X importtime``); 0 when maslov no longer imports it."""
    err = run_child(["-X", "importtime", "-c", "import maslov"], deadline, stderr_only=True)
    for line in err.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*scipy\.linalg\s*$", line)
        if m:
            return int(m.group(1)) * 1e-6
    return 0.0


def src_lines() -> dict:
    out = {}
    total = 0
    for mod in SRC_MODULES + ("__init__",):
        path = os.path.join(SRC, "maslov", mod + ".py")
        count = 0
        if os.path.exists(path):
            with open(path) as fh:
                count = sum(1 for _ in fh)
        total += count
        out[("init" if mod == "__init__" else mod) + ".src_lines"] = count
    out["maslov.src_lines"] = total
    return out


def end_to_end_values(res, setup_runs) -> dict:
    lat = res["latency"]
    return {"ops_per_s": res["ops_per_s"], "op_p50_ms": lat["p50_ms"],
            "op_tail_ms": lat["tail_ms"],
            "setup_s": statistics.median(s["scaled_s"] for s in setup_runs),
            "peak_rss_mb": res["peak_rss_mb"]}


def per_layer_values(res, setup_runs, scipy_s) -> dict:
    vals = dict(res["layers"])

    def ratio(a, b, scale=1.0):
        return scale * vals[a] / vals[b] if vals[b] else 0.0

    vals["geometry.refine_ratio"] = ratio("geometry.dense_samples", "geometry.input_samples")
    vals["geometry.us_per_dense_sample"] = ratio(
        "geometry.transport_frame.total_s", "geometry.dense_samples", 1e6)
    vals["metaplectic.us_per_lift_sample"] = ratio(
        "metaplectic.lift_frame_path_trace.total_s", "metaplectic.lift_samples_in", 1e6)
    vals["trace.overhead_frac"] = (res["traced_wall_s"] - res["untraced_wall_s"]) \
        / res["untraced_wall_s"]
    vals["trace.spans"] = res["spans"]
    vals["setup.import_s"] = statistics.median(s["import_s"] for s in setup_runs)
    vals["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setup_runs)
    vals["setup.import_scipy_s"] = scipy_s
    vals.update(src_lines())
    return vals


def select(declared, values) -> dict:
    out = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError("BENCHMARK.json names unknown metric %r" % m["name"])
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="maslov benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None,
                    help="truncate the operation list (self-check only)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not os.path.exists(os.path.join(SRC, "maslov", "__init__.py")):
            raise BenchError("no library source at %s" % os.path.join(SRC, "maslov"))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            raise BenchError("unknown workload %r" % args.workload)
        common = [WORKER, "--workload", args.workload, "--seed", str(args.seed)]
        if args.max_ops:
            common += ["--max-ops", str(args.max_ops)]
        if args.trace:
            spans = os.path.join(OUT, "spans-%s-%d.csv.gz" % (args.workload, args.seed))
            main_args = common + ["--mode", "trace", "--spans", spans]
        else:
            main_args = common + ["--mode", "measure", "--seconds", str(args.seconds)]
        # half the set-up runs before the measuring child and half after, so
        # the median samples the machine at both ends of the run
        setup_runs = [run_child(common + ["--mode", "setup"], deadline)["setup"]
                      for _ in range(SETUP_REPEATS // 2)]
        res = run_child(main_args, deadline)
        setup_runs.append(res["setup"])
        setup_runs += [run_child(common + ["--mode", "setup"], deadline)["setup"]
                       for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        if args.trace:
            metrics = select(bench["per_layer"],
                             per_layer_values(res, setup_runs, import_scipy_s(deadline)))
        else:
            metrics = select(bench["end_to_end"], end_to_end_values(res, setup_runs))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    attempted, failures = res["attempted"], res["failures"]
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    print("environment %s" % json.dumps(res["env"], sort_keys=True))
    for name, m in metrics.items():
        print("%-48s %.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        lat, raw, refs = res["latency"], res["raw_latency"], res["reference_ms"]
        print("timings scaled to a reference loop of %.0f ms; it took %.1f ms median "
              "(%.1f-%.1f) over %d timings" % (res["reference_nominal_ms"], statistics.median(refs),
                                                min(refs), max(refs), len(refs)))
        print("op latency (Harrell-Davis quantiles): p50 over %d calls; tail at p%.2f over "
              "the %d operations of the list, each at the median of its repetitions"
              % (lat["calls"], lat["tail_pct"], lat["samples"]))
        print("unscaled: ops_per_s %.6g, op_p50_ms %.6g, op_tail_ms %.6g, setup_s %.6g"
              % (res["raw_ops_per_s"], raw["p50_ms"], raw["tail_ms"],
                 statistics.median(s["setup_s"] for s in setup_runs)))
    print("fail_ratio %d/%d = %.6g" % (len(failures), attempted, len(failures) / attempted))
    for f in failures:
        print("failure %s" % json.dumps(f, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
