"""Time ``geometry.transport_frame`` on coarse and fine loops, level by level.

    python tools/transport_levels.py [--repeats R] [--out FILE]

For a coarse and a fine circle, product-torus and epicycle (``custom``) loop,
the sizes of the ``holonomy_battery`` slots, runs ``transport_frame`` R times
and writes, per case, the minimum wall time, the refinement levels, the
input and dense sample counts and the µs per dense sample, as canonical JSON
(to FILE, or to stdout).  The counts depend only on the tree; run the script
from two trees to tell a faster step from less refinement.  The package is
imported from the tree this script sits in.  Uses the standard library and
the package.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from maslov.cli import canonical_json  # noqa: E402
from maslov.geometry import (ParamPath, circle_chart, curve_chart_from_series,  # noqa: E402
                             product_torus_chart, transport_frame)


def _epicycle(r=1.0, e=0.075, k=2):
    """q + ip = r e^{it} + e e^{-ikt}: a gentle plane curve whose tangent turns once."""
    return curve_chart_from_series({"cos": [[1, r], [k, e]]}, {"sin": [[1, r], [k, -e]]})


def _loop(samples):
    return ParamPath.line([0.0], [2 * np.pi], samples, closed=True)


CASES = {
    "circle.coarse": (circle_chart, lambda: ParamPath.circle_arc(1.0, 8)),
    "circle.fine": (circle_chart, lambda: ParamPath.circle_arc(1.0, 700)),
    "torus.coarse": (product_torus_chart, lambda: ParamPath.torus_loop((1, 1), 10)),
    "torus.fine": (product_torus_chart, lambda: ParamPath.torus_loop((1, 0), 400)),
    "custom.coarse": (_epicycle, lambda: _loop(12)),
    "custom.fine": (_epicycle, lambda: _loop(1200)),
}


def measure(repeats: int) -> dict:
    """The record of every case: the minimum of repeats timed transports."""
    out = {}
    for name, (make_chart, make_path) in CASES.items():
        chart, path = make_chart(), make_path()
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            tr = transport_frame(chart, path)
            best = min(best, time.perf_counter() - start)
        dense = len(tr.frames)
        out[name] = {"wall_s": best, "levels": int(tr.refinement_depth),
                     "input_samples": len(path.samples), "dense_samples": dense,
                     "us_per_dense_sample": 1e6 * best / dense}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=30)
    ap.add_argument("--out", help="output file (default: stdout)")
    args = ap.parse_args(argv)
    text = canonical_json(measure(max(args.repeats, 1)))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
