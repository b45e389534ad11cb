"""Write the Leray index of every pair of a seeded cover-pair sweep, the
Kashiwara signature of every triple of a seeded triple sweep, and the indices
of every coarse Lagrangian path of a seeded path sweep.

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

Last, from a generator of its own (seeded by (SEED, 3)), it draws PATHS
coarse Lagrangian paths and writes ``DIR/paths<SEED>.txt``, one line per
path: its index, its inputs, ``clm_index`` of the path and, for a path
induced by a symplectic path, ``mu_hat_on_cover``, each as an integer or as
the type of the error it raised.  A path has n in 1..4 and 2..6 samples
w_k = r O e^{i phi_k} O^T r^T for a Haar unitary r and a random orthogonal
O, so each step of w_k turns its eigenvalues by the phi_{k+1} - phi_k, drawn
from U(-3, 3).  Half are induced, t -> S(t) L with S(t) the unitary
r O e^{i phi/2} O^T r^* and L = r L0; half are frame stacks, each frame in
a random upper-triangular basis.  On about a third of the paths
(``near=1``) one eigenvalue of one step turns by +-(pi - eps) with
eps = 10^U(-9, -3), so min |lambda + 1| of that step is about eps, across
the antipodal cut at rank_floor.

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

from maslov.core import LagrangianFrame, embed_unitary, l0_frame  # noqa: E402
from maslov.errors import MaslovError  # noqa: E402
from maslov.index import (CoverPoint, LagrangianPath, clm_index,  # noqa: E402
                          induced_lagrangian_path, kashiwara_signature, leray_index,
                          mu_hat_on_cover)

PAIRS = 1000
TRIPLES = 500
PATHS = 300


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


def draw_path(rng: np.random.Generator):
    """(clm, mu, description) of one path of the sweep; mu is None for a
    frame stack."""
    n, k = int(rng.integers(1, 5)), int(rng.integers(2, 7))
    induced, near = bool(rng.random() < 1 / 2), bool(rng.random() < 1 / 3)
    r = haar_unitary(n, rng)
    O = np.linalg.qr(rng.normal(size=(n, n)))[0]
    turns = rng.uniform(-3.0, 3.0, size=(k - 1, n))
    if near:
        eps = 10.0 ** rng.uniform(-9, -3)
        turns[rng.integers(k - 1), rng.integers(n)] = rng.choice([-1.0, 1.0]) * (np.pi - eps)
    phi = np.concatenate([np.zeros((1, n)), np.cumsum(turns, axis=0)])
    R = (r @ O) * np.exp(0.5j * phi)[:, None, :]  # R_k = r O e^{i phi_k / 2}, w_k = R_k R_k^T
    desc = "n=%d k=%d induced=%d near=%d" % (n, k, induced, near)
    if induced:
        L = LagrangianFrame(embed_unitary(r).entries @ l0_frame(n).columns)
        symp = [embed_unitary(Rk @ O.T @ r.conj().T) for Rk in R]
        return (_outcome(lambda: clm_index(induced_lagrangian_path(symp, L))),
                _outcome(mu_hat_on_cover, symp, L), desc)
    V = 1j * R  # frame unitaries, -V V^T = R R^T
    G = (np.triu(rng.normal(size=(k, n, n)), 1)
         + 10.0 ** rng.uniform(-1, 1, (k, n))[:, None, :] * np.eye(n))
    frames = np.concatenate([V.real, V.imag], axis=1) @ G
    return _outcome(lambda: clm_index(LagrangianPath(frames))), None, desc


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


def write_paths(seed: int, out: str) -> int:
    """Write the paths of seed to out; returns how many of them had an error."""
    rng = np.random.default_rng((seed, 3))
    errors = 0
    with open(os.path.join(out, "paths%d.txt" % seed), "w") as fh:
        for i in range(PATHS):
            clm, mu, desc = draw_path(rng)
            errors += isinstance(clm, str) or isinstance(mu, str)
            fh.write("%d %s clm=%s%s\n" % (i, desc, clm, "" if mu is None else " mu=%s" % mu))
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
        print("seed %d: %d paths, %d with an error" % (seed, PATHS, write_paths(seed, args.out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
