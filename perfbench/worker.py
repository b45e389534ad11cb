"""One benchmark child: a fresh interpreter, one thread, one workload.

Modes:

* ``setup``    import maslov and build the inputs, then report the times
               and one timing of the reference loop (see harness.py);
* ``measure``  the same, then one warm-up operation and a closed loop of
               operations for ``--seconds`` with no tracing installed and
               the reference loop timed between chunks;
* ``trace``    the same set-up, one warm-up operation, then one pass over
               the operation list untraced and the same pass traced, so the
               per-layer counts repeat exactly for a seed and the tracing
               overhead is measured on identical work.

Prints one JSON object on its last stdout line.  Run through run.py, which
sets the thread limits and PYTHONPATH.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

WORKLOADS = ("holonomy_battery", "cover_indices", "gaussian_words")
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _setup(workload, seed):
    t0 = time.perf_counter()
    import maslov
    t1 = time.perf_counter()
    if not os.path.realpath(maslov.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit("maslov was imported from %s, not from %s" % (maslov.__file__, SRC))
    ops = importlib.import_module(workload).make_ops(seed)
    t2 = time.perf_counter()
    return ops, {"setup_s": t2 - T_START, "import_s": t1 - t0, "inputs_s": t2 - t1}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment(seed, ops):
    import numpy
    import scipy
    keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in keys},
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": seed, "op_list": len(ops)}


def measure(ops, seconds):
    """Scaled throughput and latency over the whole run; each operation of
    the list is repeated as often as the run allows."""
    from harness import REFERENCE_NOMINAL_S, latency_stats, run_op, run_scaled
    run_op(ops[0])  # warm-up: first-call caches, not counted
    records, failures, refs = run_scaled(ops, seconds)
    peak_rss_mb = _peak_rss_mb()
    raw = sum(r[1] for r in records)
    scaled = sum(r[2] for r in records)
    return {"attempted": len(records), "failures": failures,
            "ops_per_s": len(records) / scaled, "raw_ops_per_s": len(records) / raw,
            "latency": latency_stats(records, 2), "raw_latency": latency_stats(records, 1),
            "reference_ms": [1e3 * r for r in refs],
            "reference_nominal_ms": 1e3 * REFERENCE_NOMINAL_S, "peak_rss_mb": peak_rss_mb}


def trace(ops, spans_path):
    from harness import Op, run_loop, run_op
    from tracing import Tracer
    run_op(ops[0])  # warm-up: first-call caches, not counted
    lat_u, fail_u, wall_u = run_loop(ops, count=len(ops))
    tracer = Tracer()

    def traced(op):
        return Op(op.name, lambda: tracer.call("bench." + op.name, op.call), op.check)

    def set_op(i, _):
        tracer.op = i + 1

    tracer.install()
    try:
        lat_t, fail_t, wall_t = run_loop([traced(op) for op in ops], count=len(ops),
                                         before_op=set_op)
    finally:
        tracer.uninstall()
    if spans_path:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        tracer.write(spans_path)
    return {"attempted": len(lat_u) + len(lat_t), "failures": fail_u + fail_t,
            "layers": tracer.summary(), "spans": len(tracer.spans),
            "untraced_wall_s": wall_u, "traced_wall_s": wall_t}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--spans", default=None, help="gzipped CSV of spans (trace mode)")
    ap.add_argument("--max-ops", type=int, default=None,
                    help="truncate the operation list (self-check only)")
    args = ap.parse_args(argv)
    ops, setup = _setup(args.workload, args.seed)
    from harness import REFERENCE_NOMINAL_S, reference_s
    setup["reference_s"] = reference_s()  # the machine's speed right after set-up
    setup["scaled_s"] = setup["setup_s"] * REFERENCE_NOMINAL_S / setup["reference_s"]
    if args.max_ops:
        ops = ops[:args.max_ops]
    out = {"setup": setup}
    if args.mode != "setup":
        out.update(measure(ops, args.seconds) if args.mode == "measure"
                   else trace(ops, args.spans))
    out["env"] = _environment(args.seed, ops)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
