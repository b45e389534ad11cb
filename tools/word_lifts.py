"""Write the lifted endpoint states of every lift operation of gaussian_words.

    python tools/word_lifts.py SEED [SEED ...] --out DIR

For each seed, runs every ``lift.*`` operation of ``perfbench/gaussian_words.py``
once and writes, per operation, the endpoint of each lifted Hermite level to
``DIR/seed<SEED>/<NN>_<op name>.json`` as canonical JSON: the level, the
scalar ``c``, the matrix ``M`` and the coefficient vector of the polynomial
factor, each split into real and imaginary parts (``NN`` is the position of
the operation in the seed's operation list).  An operation that raises a
library error writes the error's type instead.  Two such directories,
written from two trees, compare with ``cmp`` or ``diff -r`` for byte
identity, or file by file with ``tools/golden_drift.py`` for the float drift.
The package and ``perfbench`` are imported from the tree this script sits in;
``perfbench`` is only read.  Uses the standard library and the package.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/

import gaussian_words  # noqa: E402

from maslov.cli import canonical_json  # noqa: E402
from maslov.errors import MaslovError  # noqa: E402


def _parts(a):
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def endpoint_record(op) -> dict:
    """The endpoint (c, M, coefficient vector) of every level the op lifts."""
    try:
        got = op.call()
    except MaslovError as err:
        return {"op": op.name, "error": type(err).__name__}
    return {"op": op.name,
            "levels": [{"level": level, "c": [out.c.real, out.c.imag], "M": _parts(out.M),
                        "vec": _parts(out.poly.vec)}
                       for level, (_, out, *_) in zip(gaussian_words.LEVELS, got)]}


def write_lifts(seed: int, out: str) -> int:
    dest = os.path.join(out, "seed%d" % seed)
    os.makedirs(dest, exist_ok=True)
    count = 0
    for i, op in enumerate(gaussian_words.make_ops(seed)):
        if op.name.startswith("lift."):
            with open(os.path.join(dest, "%02d_%s.json" % (i, op.name)), "w") as fh:
                fh.write(canonical_json(endpoint_record(op)))
            count += 1
    return count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", nargs="+", type=int)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args(argv)
    for seed in args.seeds:
        print("seed %d: %d lift operations" % (seed, write_lifts(seed, args.out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
