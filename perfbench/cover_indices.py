"""cover_indices: seeded cover-point pairs and triples at n = 1..4.

Points of the universal cover are Souriau pairs (w, theta), det w =
e^{i theta}.  Inputs are built in plain numpy so that the expected Leray
index is known in closed form.  Take a unitary r, a diagonal D =
diag(e^{i phi_j}) with phi_j = 0 on k coordinates and phi_j in (0, 2 pi)
elsewhere, and integers a, b; then

    x = (r r^T, 2 arg det r + 2 pi a),
    y = (r D r^T, 2 arg det r + sum phi + 2 pi b)

have dim(L_x cap L_y) = k and mu(x, y) = 2 (a - b) - (n - k).  (Move both
points by r^{-1}, which preserves mu; the pair splits into n planes, and on
each the transverse closed form gives phi_j - pi, the deck shift gives the
2 pi multiples, and a coordinate with phi_j = 0 contributes nothing.)  For
k >= 1 the library takes its cocycle route.

Operations, one block per n, in a fixed order:

* ``souriau``: the frame embed(r) L0 maps to r r^T, and back to the same
  plane (projectors agree), within 1e-9;
* ``deck``: a transverse pair, mu(beta^s x, beta^t y) = mu(x, y) + 2 (s - t)
  with mu(x, y) the closed-form value above;
* ``invariance``: a transverse pair, mu(g x, g y) = mu(x, y) for a random g
  in U(n);
* ``coboundary`` (four times): random x, y, z; mu(x,y) - mu(x,z) + mu(y,z)
  equals the Kashiwara signature, and each transverse mu has the parity
  of n;
* ``pair.k<k>`` for k = 1..n: the closed-form value above, and antisymmetry
  mu(y, x) = -mu(x, y).  These take the cocycle route and set the tail.

The counts put the median latency inside the coboundary class, away from
the cheap and the non-transverse classes on either side.
"""

from __future__ import annotations

import math

import numpy as np

import maslov.core
import maslov.index
from harness import Op

TWO_PI = 2.0 * math.pi
ROUND_TRIP_TOL = 1e-9
ROUNDS = 30


def haar_unitary(n, rng):
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d)).conj()


def _cover(r, phases, deck):
    """(r D r^T, 2 arg det r + sum phases + 2 pi deck) as plain data."""
    w = (r * np.exp(1j * phases)) @ r.T
    theta = 2.0 * float(np.angle(np.linalg.det(r))) + float(np.sum(phases)) + TWO_PI * deck
    return w, theta


def _pair(n, k, rng):
    """A pair with intersection dimension k and its expected Leray index."""
    r = haar_unitary(n, rng)
    phases = rng.uniform(0.2, TWO_PI - 0.2, n)
    phases[rng.permutation(n)[:k]] = 0.0
    a, b = (int(v) for v in rng.integers(-3, 4, 2))
    x = _cover(r, np.zeros(n), a)
    y = _cover(r, phases, b)
    return x, y, 2 * (a - b) - (n - k)


def _point(data):
    return maslov.index.CoverPoint(*data)


def _mismatch(got, want):
    return None if got == want else "got %s, expected %s" % (got, want)


def coboundary_op(n, rng):
    x, y, z = (_cover(haar_unitary(n, rng), np.zeros(n), int(rng.integers(-3, 4)))
               for _ in range(3))

    def call():
        px, py, pz = _point(x), _point(y), _point(z)
        mi = maslov.index
        mus = (mi.leray_index(px, py), mi.leray_index(px, pz), mi.leray_index(py, pz))
        tau = mi.kashiwara_signature(px.frame(), py.frame(), pz.frame())
        return mus, tau

    def check(got):
        (mxy, mxz, myz), tau = got
        if any((m - n) % 2 for m in (mxy, mxz, myz)):
            return "parity: %s at n = %d" % ((mxy, mxz, myz), n)
        return _mismatch(mxy - mxz + myz, tau)

    return Op("coboundary.n%d" % n, call, check)


def pair_op(n, k, rng):
    x, y, mu = _pair(n, k, rng)

    def call():
        px, py = _point(x), _point(y)
        return maslov.index.leray_index(px, py), maslov.index.leray_index(py, px)

    return Op("pair.n%d.k%d" % (n, k), call, lambda got: _mismatch(got, (mu, -mu)))


def deck_op(n, rng):
    x, y, mu = _pair(n, 0, rng)
    s, t = (int(v) for v in rng.integers(-2, 3, 2))

    def call():
        Deck = maslov.index.DeckAction
        return maslov.index.leray_index(Deck(s)(_point(x)), Deck(t)(_point(y)))

    return Op("deck.n%d" % n, call, lambda got: _mismatch(got, mu + 2 * (s - t)))


def invariance_op(n, rng):
    x, y, mu = _pair(n, 0, rng)
    g = haar_unitary(n, rng)
    phi = float(np.angle(np.linalg.det(g))) + TWO_PI * int(rng.integers(-2, 3))

    def call():
        act = maslov.index.cover_action
        return maslov.index.leray_index(act(g, phi, _point(x)), act(g, phi, _point(y)))

    return Op("invariance.n%d" % n, call, lambda got: _mismatch(got, mu))


def souriau_op(n, rng):
    r = haar_unitary(n, rng)
    frame = np.vstack([-r.imag, r.real])   # embed(r) L0, orthonormal columns
    w = r @ r.T
    proj = frame @ frame.T

    def call():
        core = maslov.core
        w_got = core.souriau_map(core.LagrangianFrame(frame)).entries
        back = core.lagrangian_from_souriau(w).columns
        return w_got, back

    def check(got):
        w_got, back = got
        err = float(np.max(np.abs(w_got - w)))
        if err > ROUND_TRIP_TOL:
            return "souriau image off by %.3e" % err
        q, _ = np.linalg.qr(back)
        err = float(np.max(np.abs(q @ q.T - proj)))
        if err > ROUND_TRIP_TOL:
            return "round trip plane off by %.3e" % err
        return None

    return Op("souriau.n%d" % n, call, check)


def make_ops(seed: int):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(ROUNDS):
        for n in (1, 2, 3, 4):
            ops.append(souriau_op(n, rng))
            ops.append(deck_op(n, rng))
            ops.append(invariance_op(n, rng))
            ops.extend(coboundary_op(n, rng) for _ in range(4))
            ops.extend(pair_op(n, k, rng) for k in range(1, n + 1))
    return ops
