"""Operations, the closed measuring loop and latency statistics.

An operation is a call into the library through its public entry points plus
a check of the result against an expectation that the benchmark derived
without the library.  Only the call is timed.

Timings are scaled to a reference speed.  On a shared host the machine's
speed swings by up to two times for seconds to minutes at a time, so raw
wall times of identical work spread by a third between runs.  The measuring
loop therefore times a fixed reference loop (small numpy linear algebra and
Python arithmetic, the kind of work the library does, never the library
itself) before the first operation and after every ``REFERENCE_EVERY_S`` of
operation time.  Each operation's time is multiplied by
``REFERENCE_NOMINAL_S`` over the mean of the two reference times that
bracket it: the time it would have taken on a machine that runs the
reference loop in ``REFERENCE_NOMINAL_S``.  A slower program still reads
slower by the same factor; a slower machine does not.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from maslov.errors import MaslovError

#: operation seconds between two timings of the reference loop
REFERENCE_EVERY_S = 0.3
#: reference-loop time that scaled timings are expressed at
REFERENCE_NOMINAL_S = 0.010
REFERENCE_ROUNDS = 600
_REF_A = np.arange(16.0).reshape(4, 4) + np.eye(4)


@dataclass
class Op:
    name: str                              # stage label, e.g. "verify.circle.coarse"
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None if the result is as expected


def run_op(op: Op):
    """Run and check one operation; returns (seconds, failure or None).

    A failure is a raised library error, a report with pass = false, or a
    result that differs from the expectation.  It is recorded, never retried.
    """
    t0 = time.perf_counter()
    try:
        got = op.call()
    except MaslovError as exc:
        return time.perf_counter() - t0, {"op": op.name, "error": type(exc).__name__,
                                          "detail": str(exc)}
    except Exception as exc:  # a crash is a failure too; keep measuring
        return time.perf_counter() - t0, {"op": op.name, "error": type(exc).__name__,
                                          "detail": repr(exc)}
    dt = time.perf_counter() - t0
    problem = op.check(got)
    if problem:
        return dt, {"op": op.name, "error": "WrongResult", "detail": problem}
    return dt, None


def run_loop(ops, seconds=None, count=None, before_op=None):
    """Closed loop: one operation after another, cycling through ops, until
    seconds have elapsed or count operations were issued."""
    latencies, failures = [], []
    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if before_op is not None:
            before_op(i, op)
        dt, failure = run_op(op)
        latencies.append(dt)
        if failure is not None:
            failures.append(dict(failure, index=i))
        i += 1
        if count is not None and i >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return latencies, failures, time.perf_counter() - start


def reference_s() -> float:
    """Seconds taken by the fixed reference loop (9-18 ms on one vCPU of a
    shared Xeon host)."""
    a = _REF_A
    t0 = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        np.linalg.svd(a)
        a @ a
        sum(range(100))
    return time.perf_counter() - t0


def run_scaled(ops, seconds):
    """Closed loop for ``seconds``, cycling through ops, with the reference
    loop timed between chunks of about ``REFERENCE_EVERY_S``.

    Returns (records, failures, reference times); a record is (index in
    ops, raw seconds, scaled seconds)."""
    records, failures, chunk = [], [], []
    refs = [reference_s()]
    start = time.perf_counter()
    busy = 0.0
    i = 0
    while True:
        dt, failure = run_op(ops[i % len(ops)])
        chunk.append((i % len(ops), dt))
        if failure is not None:
            failures.append(dict(failure, index=i))
        busy += dt
        i += 1
        done = time.perf_counter() - start >= seconds
        if busy >= REFERENCE_EVERY_S or done:
            refs.append(reference_s())
            scale = REFERENCE_NOMINAL_S / (0.5 * (refs[-2] + refs[-1]))
            records.extend((k, dt, dt * scale) for k, dt in chunk)
            chunk, busy = [], 0.0
        if done:
            return records, failures, refs


def per_op_medians(records, column) -> list:
    """Median time of each operation of the list over its repetitions."""
    by_op = {}
    for rec in records:
        by_op.setdefault(rec[0], []).append(rec[column])
    return [statistics.median(v) for v in by_op.values()]


def quantile(values, p) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
    order statistics around rank p n.  Where neighbouring operations differ
    in cost by a few percent it moves smoothly, where a single order
    statistic would jump from one operation to the next."""
    from scipy.special import betainc
    x = np.sort(values)
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def latency_stats(records, column) -> dict:
    """Latency in milliseconds: the median of every call, and the tail at the
    highest percentile with at least ten samples beyond it over the
    operations of the list, each taken at the median of its repetitions, so
    that one preempted call does not set the tail."""
    ops = per_op_medians(records, column)
    n = len(ops)
    tail_p = max(0.5, (n - 10) / n)  # the median when there are too few operations
    return {"p50_ms": 1e3 * quantile([r[column] for r in records], 0.5),
            "tail_ms": 1e3 * quantile(ops, tail_p), "tail_pct": 100.0 * tail_p,
            "calls": len(records), "samples": n}


def close(a, b, tol) -> bool:
    return abs(complex(a) - complex(b)) <= tol
