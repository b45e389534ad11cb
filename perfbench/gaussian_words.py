"""gaussian_words: seeded unitary paths at n = 1..3, lifted to the
metaplectic group with Hermite states, then the mod-8 identities.

A path is U(t) = Q diag(e^{i s t lambda}) Q* at evenly spaced t, with Q a
random unitary, max |lambda_j| = 1, and samples and scale s fixed per slot
(see ``_slots``).  Every step is the same rotation, so a slot's refinement
count does not depend on the seed; half the paths need square-root
refinement on every step.  The endpoint's B-block is kept invertible
(|det| >= 0.05, checked in numpy) so the quadratic Fourier data exist.

Three operations per path, with expectations from theory rather than the
library.  Two of them are lifts of similar cost at every n, so the median
latency falls inside the lift class rather than between classes:

* ``lift.fwd`` and ``lift.rev``: the path, and the same path run backwards
  from the identity (lambda -> -lambda), lift the Hermite states of levels
  0..4 in turn.  Each lift keeps M = I, the level and the L2 norm (relative
  1e-9).  U(n) commutes with the oscillator, so the ground state only gains
  det(U)^{1/2}, continued along the path: e^{i s sum(lambda) / 2}.  At n = 1
  the level-l state gains e^{i (l + 1/2) s lambda}.  Levels above 0 take the
  generator-word and polynomial route, the ground state the closed law.
* ``identities``: the three routes to the mod-8 index (mu_hat_on_cover,
  2 CLM + n - dim, and mu_hat of the branch pinned from the lifted ground
  state) all equal the transverse closed form evaluated with the analytic
  lift theta = 2 s sum(lambda): mu = (2 s sum(lambda) - sum_j Arg(-e^{i
  a_j})) / pi, with e^{i a_j} the eigenvalues of U U^T.  Then S = S1 S2 for
  two seeded quadratic Fourier factors S2; with the branch of S1 pinned
  against the lifted ground state, the composition cocycle mu_hat_composed
  gives that same index both times.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

import maslov.core
import maslov.index
import maslov.metaplectic
from harness import Op, close

LEVELS = (0, 1, 2, 3, 4)
NORM_TOL = 1e-9
PHASE_TOL = 1e-6
BRANCH_TOL = 1e-8
MIN_B_DET = 0.05
#: passes over the slots with fresh paths; 54 operations, so the latency
#: tail over the list's operations sits at p81
ROUNDS = 3


def _slots():
    """(n, samples, scale) per path.  A step turns the path by scale /
    (samples - 1) at its fastest eigenvalue; the lift refines a step whose
    turn exceeds pi / (4 n) (its bound max |eig - 1| < 2 sin(pi / (8 n)), and
    0.4 at n = 1).  Each n gets one path at 1.5 times that turn (every step
    split once) and one at 0.8 times it (no split), with the same number of
    lifted steps.  The step counts shrink with n so that lifting levels
    0..4 costs about the same at every n."""
    slots = []
    for n, steps in ((1, 100), (2, 44), (3, 10)):
        turn = min(math.pi / (4 * n), 2 * math.asin(0.2))
        slots.append((n, steps // 2 + 1, 1.5 * turn * (steps // 2)))
        slots.append((n, steps + 1, 0.8 * turn * steps))
    return tuple(slots)


SLOTS = _slots()


def _haar(n, rng):
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d)).conj()


def _embed(U):
    A, B = U.real, U.imag
    return np.block([[A, -B], [B, A]])


def _unitary_path(n, scale, rng):
    """Seeded (Q, lambda, U(1)) with an invertible endpoint B-block."""
    while True:  # input selection on a numpy criterion, before any library call
        Q = _haar(n, rng)
        lam = rng.uniform(-1.0, 1.0, n)
        lam /= np.max(np.abs(lam))
        U_end = (Q * np.exp(1j * scale * lam)) @ Q.conj().T
        if abs(np.linalg.det(U_end.imag)) >= MIN_B_DET:
            return Q, lam, U_end


def _path_matrices(Q, lam, scale, samples):
    return [_embed((Q * np.exp(1j * scale * t * lam)) @ Q.conj().T)
            for t in np.linspace(0.0, 1.0, samples)]


def _symplectic_path(mats):
    return [maslov.core.SymplecticMatrix(S) for S in mats]


def _hermite_factor_1d(level, angle):
    return cmath.exp(1j * (level + 0.5) * angle)


def lift_op(name, n, scale, mats, lam):
    ground_phase = cmath.exp(0.5j * scale * float(np.sum(lam)))

    def call():
        mm = maslov.metaplectic
        path = _symplectic_path(mats)
        got = []
        for level in LEVELS:
            psi = mm.hermite_state(level, n)
            out = mm.lift_frame_path(path, psi)
            got.append((psi, out, mm.oscillator_level(out),
                        mm.l2_norm_squared(psi), mm.l2_norm_squared(out)))
        return got

    def check_level(level, psi, out, out_level, norm0, norm1):
        if abs(norm1 - norm0) > NORM_TOL * max(1.0, norm0):
            return "norm %.17g, started at %.17g" % (norm1, norm0)
        if float(np.max(np.abs(out.M - np.eye(n)))) > NORM_TOL:
            return "M left the identity"
        if out_level != level:
            return "level %s" % out_level
        if level == 0 and not close(out.c, ground_phase, PHASE_TOL):
            return "ground phase %s, expected %s" % (out.c, ground_phase)
        if n == 1:
            want = _hermite_factor_1d(level, scale * float(lam[0]))
            for x in (0.3, 1.1, -0.7):
                ratio = out(np.array([x])) / psi(np.array([x]))
                if not close(ratio, want, PHASE_TOL):
                    return "factor %s at x = %g, expected %s" % (ratio, x, want)
        return None

    def check(got):
        for level, row in zip(LEVELS, got):
            problem = check_level(level, *row)
            if problem:
                return "level %d: %s" % (level, problem)
        return None

    return Op("%s.n%d" % (name, n), call, check)


def expected_mod8(scale, lam, U_end):
    a = np.angle(-np.linalg.eigvals(U_end @ U_end.T))
    mu = (2.0 * scale * float(np.sum(lam)) - float(np.sum(a))) / math.pi
    return int(round(mu)) % 8


def _factor_data(n, rng, S_end):
    """Two seeded quadratic Fourier factors S2 for which S1 = S S2^{-1} has
    an invertible B-block (checked in numpy)."""
    out = []
    J = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    while len(out) < 2:
        P, Q = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        P, Q = (P + P.T) / 2, (Q + Q.T) / 2
        L = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        Li = np.linalg.inv(L)
        S2 = np.block([[Li @ Q, Li], [P @ Li @ Q - L.T, P @ Li]])
        S1 = S_end @ (-J @ S2.T @ J)
        if abs(np.linalg.det(S1[:n, n:])) >= MIN_B_DET:
            out.append((P, L, Q, int(rng.integers(0, 4))))
    return out


def identities_op(n, mats, want, rng):
    factors = _factor_data(n, rng, mats[-1])

    def call():
        mc, mi, mm = maslov.core, maslov.index, maslov.metaplectic
        path = _symplectic_path(mats)
        L0 = mc.l0_frame(n)
        cover = mi.mu_hat_on_cover(path, L0) % 8
        induced = mi.induced_lagrangian_path(path, L0)
        d = mc.intersection_dim(induced.frames[0], induced.frames[-1])
        clm = (2 * mi.clm_index(induced) + n - d) % 8
        ground = mm.ground_state(n)
        target = mm.lift_frame_path(path, ground).c
        gauss = mm.mu_hat(mm.pin_branch_transverse(path[-1], target))
        values, misses = [], []
        for P, L, Q, m2 in factors:
            qf2 = mm.QuadraticFourier(P, L, Q, m2)
            S1 = mc.SymplecticMatrix(
                path[-1].entries @ mm.symplectic_from_quad_fourier(qf2).inverse().entries)
            qf1 = mm.quad_fourier_from_symplectic(S1, 0)
            out = mm.apply_quad_fourier(qf1, mm.apply_quad_fourier(qf2, ground))
            ratio = target / out.c
            m1 = int(round(2 * np.angle(ratio) / np.pi)) % 4
            misses.append(abs(ratio - 1j ** m1))
            values.append(mm.mu_hat_composed(qf1.with_branch(m1), qf2))
        return (cover, clm, gauss), values, max(misses)

    def check(got):
        routes, values, miss = got
        if routes != (want,) * 3:
            return "mod-8 routes %s, expected %d" % (routes, want)
        if miss > BRANCH_TOL:
            return "factor word misses every branch by %.3e" % miss
        if values != [want] * len(values):
            return "cocycle values %s, expected %d" % (values, want)
        return None

    return Op("identities.n%d" % n, call, check)


def make_ops(seed: int):
    rng = np.random.default_rng(seed)
    ops = []
    for n, samples, scale in SLOTS * ROUNDS:
        Q, lam, U_end = _unitary_path(n, scale, rng)
        mats = _path_matrices(Q, lam, scale, samples)
        ops.append(identities_op(n, mats, expected_mod8(scale, lam, U_end), rng))
        ops.append(lift_op("lift.fwd", n, scale, mats, lam))
        ops.append(lift_op("lift.rev", n, scale, _path_matrices(Q, -lam, scale, samples), -lam))
    return ops
