"""Write the Leray index of every pair of a seeded cover-pair sweep.

    python tools/leray_pairs.py SEED [SEED ...] --out DIR

For each seed, draws PAIRS cover pairs (x, y) and writes
``DIR/seed<SEED>.txt``, one line per pair: the pair's index, its inputs, and
``leray_index(x, y)`` and ``leray_index(y, x)``, each as an integer or as the
type of the error it raised.  A pair has n in 1..4, a prescribed
intersection dimension k in 0..n, and deck shifts in -3..3: w_y = r r^T and
w_x = r D r^T for a Haar unitary r and D = diag(1 (k times), e^{i a_j}) with
a_j away from 0, so w_x w_y^{-1} has the eigenvalue 1 k times.  On about a
third of the pairs (``near=1``) each of those k eigenvalues is moved off 1
to e^{+-i eps} with eps = 10^U(-12, -5), across the rank cut of the
intersection dimension and the transversality cut of the index.  The pairs
depend on the seed only, so two directories written from two trees compare
with ``cmp`` or ``diff`` line by line.  The package is imported from the
tree this script sits in.  Uses the standard library and the package (with
numpy, which it requires).
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from maslov.errors import MaslovError  # noqa: E402
from maslov.index import CoverPoint, leray_index  # noqa: E402

PAIRS = 1000


def draw_pair(rng: np.random.Generator):
    """(x, y, description) of one pair of the sweep."""
    n = int(rng.integers(1, 5))
    k = int(rng.integers(0, n + 1))
    shifts = rng.integers(-3, 4, size=2)
    near = bool(rng.random() < 1 / 3)
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    r = Q * (np.diagonal(R) / np.abs(np.diagonal(R))).conj()
    at_one = np.zeros(k)
    if near:
        at_one = rng.choice([-1.0, 1.0], size=k) * 10.0 ** rng.uniform(-12, -5, size=k)
    a = np.concatenate([at_one, rng.uniform(0.3, 2 * np.pi - 0.3, size=n - k)])
    points = [CoverPoint(w, float(np.angle(np.linalg.det(w))) + 2 * np.pi * int(s))
              for w, s in zip([(r * np.exp(1j * a)) @ r.T, r @ r.T], shifts)]
    desc = "n=%d k=%d dx=%d dy=%d near=%d" % (n, k, shifts[0], shifts[1], near)
    return points[0], points[1], desc


def _index(x: CoverPoint, y: CoverPoint):
    """leray_index(x, y), or the type name of the error it raised."""
    try:
        return leray_index(x, y)
    except MaslovError as err:
        return type(err).__name__


def write_pairs(seed: int, out: str) -> int:
    rng = np.random.default_rng(seed)
    errors = 0
    with open(os.path.join(out, "seed%d.txt" % seed), "w") as fh:
        for i in range(PAIRS):
            x, y, desc = draw_pair(rng)
            mu, rev = _index(x, y), _index(y, x)
            errors += isinstance(mu, str) or isinstance(rev, str)
            fh.write("%d %s mu=%s rev=%s\n" % (i, desc, mu, rev))
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", nargs="+", type=int)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for seed in args.seeds:
        errors = write_pairs(seed, args.out)
        print("seed %d: %d pairs, %d with an error" % (seed, PAIRS, errors))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
