"""Indices on the Lagrangian Grassmannian and its universal cover: the
Kashiwara triple signature, the Leray index on cover pairs, path lifting with
phase unwrapping, and the Cappell-Lee-Miller index of a Lagrangian path
against the constant path at its endpoint.

The closed form used for transverse cover pairs is

    mu(x, y) = (theta_x - theta_y + i Tr Log(-w_x w_y^{-1})) / pi

with the principal matrix logarithm.  Its sign conventions, together with the
sign of the triple signature below, are pinned by two requirements that the
test suite enforces exactly: the coboundary identity
mu(x,y) - mu(x,z) + mu(y,z) = tau(L1,L2,L3), and the deck shift
mu(beta^r x, y) = mu(x, y) + 2r.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOLERANCES, LagrangianFrame, SymplecticMatrix,
                   Tolerances, UnitaryComplex, intersection_dim,
                   lagrangian_from_souriau, omega_gram, souriau_images,
                   souriau_map, souriau_sqrt)
from .errors import (ConditioningError, DimensionMismatch, InvariantViolation,
                     SamplingError, TransversalityError)

# Sign of the last term in the Kashiwara form
#   Q(z1, z2, z3) = omega(z1, z2) + omega(z2, z3) + KASHIWARA_LAST_SIGN * omega(z3, z1).
# With -1 this is the form ending in omega(z1, z3); that choice (and only
# that choice) satisfies the coboundary identity against the transverse
# Leray formula above, which is the ground truth fixing the convention.
KASHIWARA_LAST_SIGN = -1.0

#: Maximum allowed sup-norm step between consecutive Souriau images of a path.
MAX_SOURIAU_STEP = 0.5

_MAX_REFINE_DEPTH = 24


@dataclass(frozen=True)
class CoverPoint:
    """Souriau pair (w, theta) with det(w) = e^{i theta}: a point of the
    universal cover of Lag(n)."""

    w: np.ndarray
    theta: float

    def __init__(self, w, theta, tol: Tolerances = DEFAULT_TOLERANCES):
        if isinstance(w, UnitaryComplex):
            w = w.entries
        w = np.asarray(w, dtype=complex)
        if np.max(np.abs(w - w.T)) > tol.residual_tol:
            raise InvariantViolation("cover point needs a symmetric w")
        UnitaryComplex(w, tol)
        resid = abs(np.linalg.det(w) - np.exp(1j * theta))
        if resid > tol.phase_tol:
            raise InvariantViolation(
                "theta is not a lift of arg det w: |det w - e^{i theta}| = %.3e" % resid)
        wc = w.copy()
        wc.setflags(write=False)
        object.__setattr__(self, "w", wc)
        object.__setattr__(self, "theta", float(theta))

    @property
    def n(self):
        return self.w.shape[0]

    def frame(self, tol: Tolerances = DEFAULT_TOLERANCES) -> LagrangianFrame:
        """A frame of the underlying Lagrangian pi(x)."""
        return lagrangian_from_souriau(self.w, tol)


@dataclass(frozen=True)
class DeckAction:
    """Power of the deck generator beta = (I, pi); beta shifts theta by 2 pi."""

    r: int

    def __call__(self, x: CoverPoint) -> CoverPoint:
        return CoverPoint(x.w, x.theta + 2.0 * np.pi * self.r)


def cover_action(r, phi: float, x: CoverPoint,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> CoverPoint:
    """Action (r, phi) . (w, theta) = (r w r^T, theta + 2 phi) of the lifted
    unitary group on the cover."""
    if isinstance(r, UnitaryComplex):
        r = r.entries
    r = np.asarray(r, dtype=complex)
    if abs(np.linalg.det(r) - np.exp(1j * phi)) > tol.phase_tol:
        raise InvariantViolation("phi is not a lift of arg det r")
    return CoverPoint(r @ x.w @ r.T, x.theta + 2.0 * phi, tol)


def kashiwara_signature(L1: LagrangianFrame, L2: LagrangianFrame,
                        L3: LagrangianFrame,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Signature of the Kashiwara quadratic form on L1 + L2 + L3."""
    if not (L1.n == L2.n == L3.n):
        raise DimensionMismatch("frames over different n")
    n = L1.n
    F1 = L1.orthonormalized().columns
    F2 = L2.orthonormalized().columns
    F3 = L3.orthonormalized().columns
    O12 = omega_gram(F1, F2)
    O23 = omega_gram(F2, F3)
    O31 = KASHIWARA_LAST_SIGN * omega_gram(F3, F1)
    Z = np.zeros((n, n))
    M = np.block([[Z, O12, O31.T], [O12.T, Z, O23], [O31, O23.T, Z]]) / 2.0
    ev = np.linalg.eigvalsh(M)
    cut = tol.rank_floor(3 * n)
    return int(np.sum(ev > cut) - np.sum(ev < -cut))


def _relative_eigs(x: CoverPoint, y: CoverPoint):
    return np.linalg.eigvals(x.w @ np.linalg.inv(y.w))


def _round_int(value: float, tol: Tolerances, what: str) -> int:
    r = round(value)
    if abs(value - r) > tol.phase_tol:
        raise ConditioningError(
            "%s = %.12g is not within phase_tol of an integer" % (what, value))
    return int(r)


def leray_transverse(x: CoverPoint, y: CoverPoint,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Leray index of a transverse cover pair via the closed Souriau form."""
    if x.n != y.n:
        raise DimensionMismatch("cover points over different n")
    lam = _relative_eigs(x, y)
    if np.min(np.abs(lam - 1.0)) < tol.rank_floor(x.n) * 100:
        raise TransversalityError("underlying Lagrangians intersect")
    # Tr Log(-w_x w_y^{-1}); eigenvalues are unit modulus, never on (-inf, 0]
    trlog = np.sum(np.log(-lam))
    val = (x.theta - y.theta + (1j * trlog).real) / np.pi
    mu = _round_int(val, tol, "transverse Leray index")
    if (mu - x.n) % 2:
        raise ConditioningError("Leray parity violated: mu = %d at n = %d" % (mu, x.n))
    return mu


def _auxiliary_transverse(x: CoverPoint, y: CoverPoint,
                          tol: Tolerances) -> CoverPoint:
    """Deterministic sweep for a lift of a Lagrangian transverse to both
    pi(x) and pi(y): candidates e^{2 i phi} I over a fixed 32-point grid."""
    n = x.n
    best, best_gap = None, 0.0
    for k in range(32):
        phi = np.pi * (k + 0.414) / 32.0
        w3 = np.exp(2j * phi) * np.eye(n)
        gap = min(
            np.min(np.abs(np.linalg.eigvals(x.w * np.exp(-2j * phi)) - 1.0)),
            np.min(np.abs(np.linalg.eigvals(y.w * np.exp(-2j * phi)) - 1.0)))
        if gap > best_gap:
            best, best_gap = CoverPoint(w3, 2.0 * n * phi, tol), gap
    if best is None or best_gap < tol.rank_floor(n) * 100:
        raise ConditioningError("no common transverse Lagrangian found on the grid")
    return best


def leray_index(x: CoverPoint, y: CoverPoint,
                tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Leray index of an arbitrary cover pair.

    Transverse pairs use the closed form; otherwise an auxiliary lift z
    transverse to both is chosen and the coboundary identity
    mu(x, y) = mu(x, z) - mu(y, z) + tau(L_x, L_y, L_z) is applied.  The
    result does not depend on the lift of z (the deck shifts cancel).
    """
    if x.n != y.n:
        raise DimensionMismatch("cover points over different n")
    lam = _relative_eigs(x, y)
    if np.min(np.abs(lam - 1.0)) > tol.rank_floor(x.n) * 100:
        return leray_transverse(x, y, tol)
    z = _auxiliary_transverse(x, y, tol)
    tau = kashiwara_signature(x.frame(tol), y.frame(tol), z.frame(tol), tol)
    mu = leray_transverse(x, z, tol) - leray_transverse(y, z, tol) + tau
    d = intersection_dim(x.frame(tol), y.frame(tol), tol)
    if (mu - (x.n - d)) % 2:
        raise ConditioningError("Leray parity violated on non-transverse pair")
    return mu


# ---------------------------------------------------------------------------
# Lagrangian paths and their lifting


def _souriau_midpoint(wa: np.ndarray, wb: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Geodesic midpoint r_a (r_a^{-1} w_b r_a^{-T})^{1/2} r_a^T of two
    symmetric unitaries in W(n, C); exactly symmetric unitary again."""
    ra = souriau_sqrt(wa, tol)
    u = ra.conj().T @ wb @ ra.conj()
    u = (u + u.T) / 2
    w = ra @ souriau_sqrt(u, tol) @ ra.T
    return (w + w.T) / 2


class _FrameView(Sequence):
    """The samples of a unitary stack as frames [Re V_k; Im V_k], built and
    validated on access."""

    def __init__(self, V: np.ndarray, tol: Tolerances):
        self._V, self._tol = V, tol

    def __len__(self):
        return len(self._V)

    def __getitem__(self, k) -> LagrangianFrame:
        V = self._V[k]
        return LagrangianFrame(np.vstack([V.real, V.imag]), self._tol)


class LagrangianPath:
    """Sampled path in Lag(n): the unitaries V_k = X_k + iY_k of its
    orthonormal frames, their Souriau images w_k = -V_k V_k^T and the
    sample parameters.

    Construction refines (by geodesic subdivision in the Souriau model) until
    consecutive images differ by less than MAX_SOURIAU_STEP in sup norm, so
    phase unwrapping along the path is unambiguous.
    """

    def __init__(self, frames, params=None, tol: Tolerances = DEFAULT_TOLERANCES):
        """frames: LagrangianFrame objects, or an (N, 2n, n) array of frame columns."""
        if len(frames) < 2:
            raise InvariantViolation("a path needs at least two samples")
        if not isinstance(frames, np.ndarray):
            if len({f.n for f in frames}) > 1:
                raise DimensionMismatch("inconsistent frame dimensions along path")
            frames = [f.columns for f in frames]
        if params is None:
            params = np.linspace(0.0, 1.0, len(frames))
        params = np.asarray(params, dtype=float)
        if len(params) != len(frames) or np.any(np.diff(params) <= 0):
            raise InvariantViolation("params must be strictly increasing, one per frame")
        self.tol = tol
        V, w = souriau_images(frames, tol)
        self.n = V.shape[1]
        self.unitaries, self.souriau, self.params = self._refine(V, w, params)

    @property
    def frames(self) -> Sequence[LagrangianFrame]:
        return _FrameView(self.unitaries, self.tol)

    def _refine(self, V, w, params):
        """Bisect each step whose Souriau images differ by MAX_SOURIAU_STEP or
        more.  A midpoint w_m gets the unitary V_m = i r_m with
        r_m = souriau_sqrt(w_m), so that -V_m V_m^T = r_m^2 = w_m."""
        out = [(V[0], w[0], params[0])]
        for k in range(1, len(w)):
            pending = [(V[k], w[k], params[k], 0)]
            while pending:
                _, wa, ta = out[-1]
                Vb, wb, tb, depth = pending[-1]
                if np.max(np.abs(wb - wa)) < MAX_SOURIAU_STEP:
                    out.append(pending.pop()[:3])
                    continue
                if depth >= _MAX_REFINE_DEPTH:
                    raise SamplingError("path refinement exhausted; sampling too coarse")
                wm = _souriau_midpoint(wa, wb, self.tol)
                pending[-1] = (Vb, wb, tb, depth + 1)
                pending.append((1j * souriau_sqrt(wm, self.tol), wm,
                                0.5 * (ta + tb), depth + 1))
        if len(out) == len(w):
            return V, w, params
        V, w, params = zip(*out)
        return np.array(V), np.array(w), np.array(params)

    def __len__(self):
        return len(self.souriau)


def lift_path(path: LagrangianPath, theta0: float,
              tol: Tolerances = DEFAULT_TOLERANCES) -> list[CoverPoint]:
    """Continuous lift of the path to the cover, unwrapping arg det w from
    theta0.  Steps whose det-phase change reaches pi/2 are bisected."""
    ws = path.souriau
    if abs(np.linalg.det(ws[0]) - np.exp(1j * theta0)) > tol.phase_tol:
        raise InvariantViolation("theta0 does not lift the initial sample")
    phases = np.angle(np.linalg.det(ws))
    points = [CoverPoint(ws[0], theta0, tol)]
    wa, pa, theta = ws[0], phases[0], theta0
    for k in range(1, len(ws)):
        pending = [(ws[k], phases[k], 0)]
        while pending:
            wb, pb, depth = pending[-1]
            turn = (pb - pa + np.pi) % (2 * np.pi)  # the phase step, plus pi
            if abs(turn - np.pi) < np.pi / 2:
                pending.pop()
                wa, pa, theta = wb, pb, theta + turn - np.pi
                continue
            if depth >= _MAX_REFINE_DEPTH:
                raise SamplingError("phase unwrapping did not converge under refinement")
            wm = _souriau_midpoint(wa, wb, tol)
            pending[-1] = (wb, pb, depth + 1)
            pending.append((wm, np.angle(np.linalg.det(wm)), depth + 1))
        points.append(CoverPoint(ws[k], theta, tol))
    return points


def clm_index(path: LagrangianPath, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Cappell-Lee-Miller index of the path against the constant path at its
    endpoint, computed through the cover as (mu(end, start) - n + dim cap)/2."""
    theta0 = float(np.angle(np.linalg.det(path.souriau[0])))
    lifts = lift_path(path, theta0, tol)
    x, y = lifts[-1], lifts[0]
    mu = leray_index(x, y, tol)
    d = intersection_dim(path.frames[0], path.frames[-1], tol)
    num = mu - path.n + d
    if num % 2:
        raise ConditioningError("CLM parity violated: mu - n + dim = %d is odd" % num)
    return num // 2


def induced_lagrangian_path(symp_path: Sequence[SymplecticMatrix],
                            L: LagrangianFrame,
                            tol: Tolerances = DEFAULT_TOLERANCES) -> LagrangianPath:
    """The Lagrangian path t -> S(t) . L induced by a symplectic path."""
    return LagrangianPath(np.array([S.entries @ L.columns for S in symp_path]), tol=tol)


def mu_hat_on_cover(symp_path: Sequence[SymplecticMatrix], L: LagrangianFrame,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """mu_L of the lifted symplectic path: the Leray index of (endpoint lift,
    start lift) along the induced path t -> S(t) L.  Independent of the lift
    of L by the deck-shift cancellation."""
    S0 = symp_path[0].entries
    if np.max(np.abs(S0 - np.eye(S0.shape[0]))) > tol.residual_tol * 100:
        raise InvariantViolation("symplectic path must start at the identity")
    path = induced_lagrangian_path(symp_path, L, tol)
    theta0 = float(np.angle(np.linalg.det(path.souriau[0])))
    lifts = lift_path(path, theta0, tol)
    return leray_index(lifts[-1], lifts[0], tol)


def random_cover_point(n: int, rng: np.random.Generator,
                       deck_range: int = 3,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> CoverPoint:
    """Random lifted Lagrangian: random frame, principal theta plus a random
    deck shift."""
    from .core import random_lagrangian
    F = random_lagrangian(n, rng)
    w = souriau_map(F, tol).entries
    theta = float(np.angle(np.linalg.det(w))) + 2 * np.pi * int(rng.integers(-deck_range, deck_range + 1))
    return CoverPoint(w, theta, tol)
