"""Indices on the Lagrangian Grassmannian and its universal cover: the
Kashiwara triple signature, the Leray index on cover pairs, path lifting with
phase unwrapping, and the Cappell-Lee-Miller index of a Lagrangian path
against the constant path at its endpoint.

Every cover pair, transverse or not, takes the generalized Souriau form

    mu(x, y) = (theta_x - theta_y + i Tr' Log(-w_x w_y^{-1})) / pi

with principal logarithms, Tr' skipping the k = dim(L_x cap L_y) eigenvalues
at 1 (Souriau, LNP 50, 1976; de Gosson, Symplectic Geometry and Quantum
Mechanics, 2006, ch. 3).  An eigenvalue e^{2 i t} at gap g from 1 gives
s = sqrt(1 - cos t) = (g/2) / sqrt(1 + sqrt(1 - g^2/4)), t a principal angle
of the planes; these n values are the small singular values of [Q_x | Q_y]
for orthonormal frames Q, so k = #{s <= rank_floor(2n)} is the cut of
core.intersection_dim, the public route on frames, with no frame built.  It
is the one rule for whether two planes meet: leray_transverse raises where
k > 0.  The tests pin the sign conventions, with the sign of the triple
signature below, exactly by the coboundary identity mu(x,y) - mu(x,z) +
mu(y,z) = tau(L1,L2,L3) and the deck shift mu(beta^r x, y) = mu(x, y) + 2r.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOLERANCES, LagrangianFrame, SymplecticMatrix,
                   Tolerances, UnitaryComplex, _checked_unitary, _det_phase_steps, _integer,
                   _numbers, _orthonormal_columns, _set_fields, _souriau_frame,
                   _symplectic_stack, check_stack, omega_gram, souriau_images, souriau_map)
from .errors import ConditioningError, DimensionMismatch, InvariantViolation, TransversalityError

# Sign of the last term in the Kashiwara form
#   Q(z1, z2, z3) = omega(z1, z2) + omega(z2, z3) + KASHIWARA_LAST_SIGN * omega(z3, z1).
# With -1 this is the form ending in omega(z1, z3); that choice (and only
# that choice) satisfies the coboundary identity against the Leray
# formula above, which is the ground truth fixing the convention.
KASHIWARA_LAST_SIGN = -1.0


@dataclass(frozen=True)
class CoverPoint:
    """Souriau pair (w, theta) with det(w) = e^{i theta}: a point of the
    universal cover of Lag(n)."""

    w: np.ndarray
    theta: float

    def __init__(self, w, theta, tol: Tolerances = DEFAULT_TOLERANCES):
        w = _checked_unitary(w, tol, "cover point needs a symmetric w")
        theta = float(_numbers(theta, "theta must be a real number, got %r", theta, ndim=0))
        resid = abs(complex(np.linalg.det(w)) - cmath.exp(1j * theta))
        if not resid <= tol.phase_tol:  # a NaN theta fails too
            raise InvariantViolation(
                "theta is not a lift of arg det w: |det w - e^{i theta}| = %.3e" % resid)
        _set_fields(self, w=w, theta=theta)

    @property
    def n(self):
        return self.w.shape[0]

    def frame(self) -> LagrangianFrame:
        """An orthonormal frame of the underlying Lagrangian pi(x)."""
        return _souriau_frame(self.w)


@dataclass(frozen=True)
class DeckAction:
    """Power of the deck generator beta = (I, pi); beta shifts theta by 2 pi."""

    r: int

    def __init__(self, r: int):
        _set_fields(self, r=_integer(r, "deck power r must be an integer, got %r"))

    def __call__(self, x: CoverPoint,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> CoverPoint:
        return CoverPoint(x.w, x.theta + 2.0 * np.pi * self.r, tol)


def cover_action(r, phi: float, x: CoverPoint,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> CoverPoint:
    """Action (r, phi) . (w, theta) = (r w r^T, theta + 2 phi) of the lifted
    unitary group on the cover."""
    r = _numbers(r.entries if isinstance(r, UnitaryComplex) else r,
                 "r must be a matrix of complex numbers", dtype=complex, copy=None)
    phi = float(_numbers(phi, "phi must be a real number, got %r", phi, ndim=0))
    if r.shape != x.w.shape:
        raise DimensionMismatch("r of shape %s acts on points of shape %s" % (r.shape, x.w.shape))
    if not abs(complex(np.linalg.det(r)) - cmath.exp(1j * phi)) <= tol.phase_tol:
        raise InvariantViolation("phi is not a lift of arg det r")
    return CoverPoint(r @ x.w @ r.T, x.theta + 2.0 * phi, tol)


def kashiwara_signature(L1: LagrangianFrame, L2: LagrangianFrame,
                        L3: LagrangianFrame,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Signature of the Kashiwara quadratic form on L1 + L2 + L3."""
    if not (L1.n == L2.n == L3.n):
        raise DimensionMismatch("frames over different n")
    n = L1.n
    F = _orthonormal_columns(np.array([L1.columns, L2.columns, L3.columns]))
    O = omega_gram(F, F[[1, 2, 0]]) / 2  # omega(F1, F2), omega(F2, F3), omega(F3, F1)
    O[2] *= KASHIWARA_LAST_SIGN
    # M = [[0, O12, O31^T], [O12^T, 0, O23], [O31, O23^T, 0]], blocks indexed (row, :, col, :)
    M = np.zeros((3, n, 3, n))
    M[[0, 1, 2], :, [1, 2, 0]] = O
    M[[1, 2, 0], :, [0, 1, 2]] = np.swapaxes(O, 1, 2)
    ev = np.linalg.eigvalsh(M.reshape(3 * n, 3 * n)).tolist()
    cut = tol.rank_floor(3 * n)
    return sum((v > cut) - (v < -cut) for v in ev)


def leray_transverse(x: CoverPoint, y: CoverPoint,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Leray index of a transverse cover pair: leray_index, raising
    TransversalityError where _leray finds that the planes meet (k > 0)."""
    mu, k, _ = _leray(x.w, y.w, x.theta - y.theta, tol)
    if k:
        raise TransversalityError("underlying Lagrangians intersect")
    return mu


def _leray(wx: np.ndarray, wy: np.ndarray, dtheta: float, tol: Tolerances):
    """(mu, k, s) of the cover pair with dtheta = theta_x - theta_y, as in the
    module docstring, s ascending.  Rounding and the parity mu = n - k mod 2
    guard every pair: a skipped eigenvalue not at 1 breaks one of them."""
    if wx.shape != wy.shape:
        raise DimensionMismatch("cover points over different n")
    lam = np.linalg.eigvals(wx @ np.linalg.inv(wy))
    # the one eigensolve and its gaps g = |lam - 1|; the rest is scalar
    # arithmetic on the (g, lam) pairs in ascending order of g
    pairs = sorted(zip(np.abs(lam - 1.0).tolist(), lam.tolist()), key=lambda p: p[0])
    s = [g / 2 / math.sqrt(1 + math.sqrt(max(1 - g * g / 4, 0.0))) for g, _ in pairs]
    n = len(s)
    floor = tol.rank_floor(2 * n)
    k = sum(v <= floor for v in s)
    # Tr' Log(-w_x w_y^{-1}) = i sum arg(-lam) over the kept eigenvalues,
    # which are unit modulus and not at 1, so -lam is never on (-inf, 0]
    val = (dtheta - sum(cmath.phase(-l) for _, l in pairs[k:])) / math.pi
    mu = round(val)
    if abs(val - mu) > tol.phase_tol:
        raise ConditioningError(
            "Leray index = %.12g is not within phase_tol of an integer" % val)
    if (mu - n + k) % 2:
        raise ConditioningError("Leray parity violated: mu = %d with %d eigenvalues "
                                "away from 1" % (mu, n - k))
    return int(mu), k, np.array(sorted(s))


def leray_index(x: CoverPoint, y: CoverPoint,
                tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Leray index of an arbitrary cover pair by the module's closed form:
    Tr' skips the k = #{s_j <= rank_floor(2n)} eigenvalues e^{2 i t_j} nearest
    1, s_j = sqrt(1 - cos t_j), the cut core.intersection_dim makes on frames."""
    return _leray(x.w, y.w, x.theta - y.theta, tol)[0]


# ---------------------------------------------------------------------------
# Lagrangian paths and their lifting


class _FrameView(Sequence):
    """The samples of a Souriau stack as frames, built on access: each w_k is
    a checked Souriau image."""

    def __init__(self, w: np.ndarray):
        self._w = w

    def __len__(self):
        return len(self._w)

    def __getitem__(self, k) -> LagrangianFrame:
        return _souriau_frame(self._w[k])


@dataclass(frozen=True, eq=False)
class LagrangianPath:
    """Sampled path in Lag(n): the Souriau images w_k of its samples and the
    sample parameters; frames[k] is built from w_k on access.  Between two
    samples the path is the Souriau geodesic (see lift_path).
    """

    souriau: np.ndarray
    params: np.ndarray
    n: int

    def __init__(self, frames, params=None, tol: Tolerances = DEFAULT_TOLERANCES):
        """frames: an (N, 2n, n) array of frame columns, or an (N, n, n)
        complex array of the unitaries of orthonormal frames."""
        frames = _numbers(frames, "frames must form an (N, 2n, n) stack", dtype=None, copy=None)
        if not frames.ndim:
            raise InvariantViolation("frames must form an (N, 2n, n) stack")
        if len(frames) < 2:
            raise InvariantViolation("a path needs at least two samples")
        message = "params must be finite and strictly increasing, one per frame"
        params = (np.linspace(0.0, 1.0, len(frames)) if params is None
                  else _numbers(params, message, finite=True))
        if params.shape != frames.shape[:1] or not (np.diff(params) > 0).all():
            raise InvariantViolation(message)
        _set_fields(self, souriau=souriau_images(frames, tol), params=params, n=frames.shape[-1])

    @property
    def frames(self) -> Sequence[LagrangianFrame]:
        return _FrameView(self.souriau)

    def __len__(self):
        return len(self.souriau)


def lift_path(path: LagrangianPath,
              tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Continuous lift of the path to the cover: the unwrapped det-phases
    theta_k, shape (N,), starting at the principal phase of det w_0, so that
    (w_k, theta_k) is the lift of sample k; a deck shift adds 2 pi r.  The
    increments follow the Souriau geodesic of each step (see
    ``core._det_phase_steps``), and an antipodal step raises.  One residual
    |det w_k - e^{i theta_k}| over the whole path checks the result."""
    dets, steps = _det_phase_steps(path.souriau, tol, "t = %.6g to %.6g", path.params)
    theta = np.cumsum(np.concatenate([np.angle(dets[:1]), steps]))
    resid = np.abs(dets - np.exp(1j * theta))
    check_stack(resid <= tol.phase_tol, InvariantViolation,
                "theta is not a lift of arg det w: |det w - e^{i theta}| = %.3e", resid,
                entry="sample")
    return theta


def _endpoint_indices(path: LagrangianPath, tol: Tolerances):
    """(mu, clm, k) of the path: _leray of its (end, start) lift, and
    clm = (mu - n + k)/2."""
    w = path.souriau
    theta = lift_path(path, tol)
    mu, k, _ = _leray(w[-1], w[0], theta[-1] - theta[0], tol)
    return mu, (mu - path.n + k) // 2, k


def clm_index(path: LagrangianPath, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Cappell-Lee-Miller index of the path against the constant path at its
    endpoint: (mu(end, start) - n + k)/2 through the cover, with the
    k = dim(L_end cap L_start) that _leray reads off the Souriau spectrum."""
    return _endpoint_indices(path, tol)[1]


def induced_lagrangian_path(symp_path: Sequence[SymplecticMatrix],
                            L: LagrangianFrame,
                            tol: Tolerances = DEFAULT_TOLERANCES) -> LagrangianPath:
    """The Lagrangian path t -> S(t) . L induced by a non-empty symplectic path over L.n."""
    S = _symplectic_stack(symp_path, L.n, "symplectic sample over n = %d acts on a frame "
                          "over n = %d")
    return LagrangianPath(S @ L.columns, tol=tol)


def mu_hat_on_cover(symp_path: Sequence[SymplecticMatrix], L: LagrangianFrame,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """mu_L of the lifted symplectic path: the Leray index of (endpoint lift,
    start lift) along the induced path t -> S(t) L.  Independent of the lift
    of L by the deck-shift cancellation."""
    path = induced_lagrangian_path(symp_path, L, tol)
    S0 = symp_path[0].entries
    if np.max(np.abs(S0 - np.eye(S0.shape[0]))) > tol.residual_tol * 100:
        raise InvariantViolation("symplectic path must start at the identity")
    return _endpoint_indices(path, tol)[0]


def random_cover_point(n: int, rng: np.random.Generator,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> CoverPoint:
    """Random lifted Lagrangian: random frame, principal theta plus a random
    deck shift of -3..3 turns."""
    from .core import random_lagrangian
    F = random_lagrangian(n, rng)
    w = souriau_map(F, tol).entries
    theta = float(np.angle(np.linalg.det(w))) + 2 * np.pi * int(rng.integers(-3, 4))
    return CoverPoint(w, theta, tol)
