"""Write the Leray index of every pair of a seeded cover-pair sweep, and the
Kashiwara signature of every triple of a seeded triple sweep.

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
with ``cmp`` or ``diff`` line by line.

Then, from the same generator, it draws TRIPLES triples of cover points
and writes ``DIR/triples<SEED>.txt``, one line per triple: its index, its
inputs, the Kashiwara signature ``tau`` of the three planes, each frame
given in a random non-orthonormal basis (a random upper-triangular change
with positive diagonal), and the Leray coboundary
``mu(x, y) - mu(x, z) + mu(y, z)``.  The first two points share ``k`` lines
for k in 0..n, so the Kashiwara form is degenerate on most triples.

The package is imported from the tree this script sits in.  Uses the
standard library and the package (with numpy, which it requires).
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from maslov.core import LagrangianFrame  # noqa: E402
from maslov.errors import MaslovError  # noqa: E402
from maslov.index import CoverPoint, kashiwara_signature, leray_index  # noqa: E402

PAIRS = 1000
TRIPLES = 500


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R))).conj()


def cover_points(ws, shifts):
    """The cover points of the Souriau matrices ws, deck-shifted by shifts."""
    return [CoverPoint(w, float(np.angle(np.linalg.det(w))) + 2 * np.pi * int(s))
            for w, s in zip(ws, shifts)]


def draw_pair(rng: np.random.Generator):
    """(x, y, description) of one pair of the sweep."""
    n = int(rng.integers(1, 5))
    k = int(rng.integers(0, n + 1))
    shifts = rng.integers(-3, 4, size=2)
    near = bool(rng.random() < 1 / 3)
    r = haar_unitary(n, rng)
    at_one = np.zeros(k)
    if near:
        at_one = rng.choice([-1.0, 1.0], size=k) * 10.0 ** rng.uniform(-12, -5, size=k)
    a = np.concatenate([at_one, rng.uniform(0.3, 2 * np.pi - 0.3, size=n - k)])
    x, y = cover_points([(r * np.exp(1j * a)) @ r.T, r @ r.T], shifts)
    desc = "n=%d k=%d dx=%d dy=%d near=%d" % (n, k, shifts[0], shifts[1], near)
    return x, y, desc


def draw_triple(rng: np.random.Generator):
    """(x, y, z, description) of one triple of the sweep: x and y meet in k
    lines, z is a random plane."""
    n = int(rng.integers(1, 5))
    k = int(rng.integers(0, n + 1))
    shifts = rng.integers(-3, 4, size=3)
    r, q = haar_unitary(n, rng), haar_unitary(n, rng)
    a = np.concatenate([np.zeros(k), rng.uniform(0.3, 2 * np.pi - 0.3, size=n - k)])
    x, y, z = cover_points([r @ r.T, (r * np.exp(1j * a)) @ r.T, q @ q.T], shifts)
    desc = "n=%d k=%d dx=%d dy=%d dz=%d" % ((n, k) + tuple(shifts))
    return x, y, z, desc


def _outcome(f, *args):
    """f(*args), or the type name of the error it raised."""
    try:
        return f(*args)
    except MaslovError as err:
        return type(err).__name__


def _signature(points, rng: np.random.Generator):
    """kashiwara_signature of the planes of points, each frame given in a
    random upper-triangular basis with diagonal in [0.1, 10]."""
    frames = []
    for p in points:
        G = np.triu(rng.normal(size=(p.n, p.n)), 1) + np.diag(10.0 ** rng.uniform(-1, 1, p.n))
        frames.append(LagrangianFrame(p.frame().columns @ G))
    return _outcome(kashiwara_signature, *frames)


def write_pairs(seed: int, out: str) -> int:
    """Write the pairs and the triples of seed to out; returns how many
    of them had an error."""
    rng = np.random.default_rng(seed)
    errors = 0
    with open(os.path.join(out, "seed%d.txt" % seed), "w") as fh:
        for i in range(PAIRS):
            x, y, desc = draw_pair(rng)
            mu, rev = _outcome(leray_index, x, y), _outcome(leray_index, y, x)
            errors += isinstance(mu, str) or isinstance(rev, str)
            fh.write("%d %s mu=%s rev=%s\n" % (i, desc, mu, rev))
    with open(os.path.join(out, "triples%d.txt" % seed), "w") as fh:
        for i in range(TRIPLES):
            x, y, z, desc = draw_triple(rng)
            tau = _signature((x, y, z), rng)
            mus = [_outcome(leray_index, *p) for p in ((x, y), (x, z), (y, z))]
            errors += isinstance(tau, str) or any(isinstance(mu, str) for mu in mus)
            cob = "error" if any(isinstance(mu, str) for mu in mus) else mus[0] - mus[1] + mus[2]
            fh.write("%d %s tau=%s cob=%s\n" % (i, desc, tau, cob))
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", nargs="+", type=int)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for seed in args.seeds:
        errors = write_pairs(seed, args.out)
        print("seed %d: %d pairs and %d triples, %d with an error"
              % (seed, PAIRS, TRIPLES, errors))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
