"""Write the canonical report payload of every holonomy_battery operation.

    python tools/battery_payloads.py SEED [SEED ...] --out DIR

For each seed, runs the operation list of ``perfbench/holonomy_battery.py``
once and writes each operation's payload (the canonical JSON that
``maslov.cli.run`` returns) to ``DIR/seed<SEED>/<NN>_<op name>.json``.  Two
such directories, written from two trees, compare with ``cmp`` or ``diff -r``
for byte identity, or file by file with ``tools/golden_drift.py`` for the
float drift.  The package and ``perfbench`` are imported from the tree this
script sits in; ``perfbench`` is only read.  Uses the standard library and
the package.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/

import holonomy_battery  # noqa: E402


def write_payloads(seed: int, out: str) -> int:
    dest = os.path.join(out, "seed%d" % seed)
    os.makedirs(dest, exist_ok=True)
    ops = holonomy_battery.make_ops(seed)
    for i, op in enumerate(ops):
        _, _, payload = op.call()
        with open(os.path.join(dest, "%02d_%s.json" % (i, op.name)), "w") as fh:
            fh.write(payload)
    return len(ops)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", nargs="+", type=int)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args(argv)
    for seed in args.seeds:
        print("seed %d: %d payloads" % (seed, write_payloads(seed, args.out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
