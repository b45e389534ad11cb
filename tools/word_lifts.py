"""Write what every operation of gaussian_words computes.

    python tools/word_lifts.py SEED [SEED ...] --out DIR

For each seed, runs every operation of ``perfbench/gaussian_words.py`` once
and writes its values to ``DIR/seed<SEED>/<NN>_<op name>.json`` as canonical
JSON (``NN`` is the position of the operation in the seed's operation list).
A ``lift.*`` operation writes, per lifted Hermite level, the level, the
endpoint's scalar ``c``, matrix ``M`` and polynomial coefficient vector, each
split into real and imaginary parts, the L2 norms of the start and end
states and the ``oscillator_level`` of the end.  An ``identities.*``
operation writes its three mod-8 routes, its two cocycle values and its
largest branch miss.  An operation that raises a library error writes the
error's type and message instead.  Two such directories, written from two
trees, compare with ``cmp`` or ``diff -r`` for byte identity, or file by
file with ``tools/golden_drift.py`` for the float drift.
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
    """The values of one operation: per lifted level the endpoint (c, M,
    coefficient vector), the two norms and the end's level, or the routes,
    cocycle values and miss of an identities operation."""
    try:
        got = op.call()
    except MaslovError as err:
        return {"op": op.name, "error": type(err).__name__, "message": str(err)}
    if op.name.startswith("identities."):
        routes, values, miss = got
        return {"op": op.name, "routes": list(routes), "values": values, "miss": float(miss)}
    return {"op": op.name,
            "levels": [{"level": level, "c": [out.c.real, out.c.imag], "M": _parts(out.M),
                        "vec": _parts(out.poly.vec), "oscillator_level": out_level,
                        "norms": [norm0, norm1]}
                       for level, (_, out, out_level, norm0, norm1)
                       in zip(gaussian_words.LEVELS, got)]}


def write_lifts(seed: int, out: str) -> int:
    dest = os.path.join(out, "seed%d" % seed)
    os.makedirs(dest, exist_ok=True)
    ops = gaussian_words.make_ops(seed)
    for i, op in enumerate(ops):
        with open(os.path.join(dest, "%02d_%s.json" % (i, op.name)), "w") as fh:
            fh.write(canonical_json(endpoint_record(op)))
    return len(ops)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", nargs="+", type=int)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args(argv)
    for seed in args.seeds:
        print("seed %d: %d operations" % (seed, write_lifts(seed, args.out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
