"""Linear-algebra substrate: symplectic and unitary matrix types, Lagrangian
frames, the Souriau identification of Lag(n) with symmetric unitaries, and the
shared tolerance policy.

Conventions (fixed throughout the library):

* points of phase space are ordered (q_1..q_n, p_1..p_n);
* J0 is the block matrix [[0, -I], [I, 0]] and omega(z, z') = <J0 z, z'>,
  so that omega(e_j, f_k) = delta_jk and g(.,.) = omega(., J0 .);
* U(n, C) embeds into Sp(2n) via A + iB  ->  [[A, -B], [B, A]];
* the vertical Lagrangian L0 = {0} x R^n is the basepoint, and a Lagrangian
  L = embed(r) L0 maps to the symmetric unitary w = r r^T.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, SamplingError


_EPS = float(np.finfo(float).eps)
#: A cheap bound decides a spectral check only this far (relative) past its cut.
_SCREEN_MARGIN = 1e-6


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy threaded through every operation.

    residual_tol bounds structural residuals (unitarity, isotropy,
    symplecticity), rank_tol thresholds singular values and eigenvalues,
    phase_tol bounds the distance of a computed index from the nearest
    integer and of a phase from its predicted value.
    """

    residual_tol: float = 1e-9
    rank_tol: float = 1e-8
    phase_tol: float = 1e-6

    def __post_init__(self):
        for name in ("residual_tol", "rank_tol", "phase_tol"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails too
                raise InvariantViolation("%s must be finite and strictly positive" % name)

    def rank_floor(self, dim):
        # rank_tol may never undercut machine precision at the given size
        return max(self.rank_tol, _EPS * dim)


DEFAULT_TOLERANCES = Tolerances()


@functools.lru_cache(maxsize=None)
def standard_j(n: int) -> np.ndarray:
    """The standard complex structure J0 on R^{2n}."""
    Z, I = np.zeros((n, n)), np.eye(n)
    J = np.block([[Z, -I], [I, Z]])
    J.setflags(write=False)
    return J


def omega_gram(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Matrix of omega(F_i, G_j) for two column collections in R^{2n}, or for
    every pair of two stacks of them."""
    return np.swapaxes(standard_j(F.shape[-2] // 2) @ F, -1, -2) @ G


def check_stack(ok, error, message: str, *values, entry: str = "stack entry"):
    """Raise error(message) unless ok holds everywhere; a comparison with a
    NaN is False, so NaN data fails too.  For a stack, message is
    %-formatted with each of values at the first failing entry along the
    leading axis (a value with more axes than ok gives its row there), and
    " at <entry> k" names that entry, unless entry is None."""
    ok = np.asarray(ok)
    if ok.all():
        return
    where = np.unravel_index(np.argmin(ok), ok.shape)
    if values:
        message %= tuple(v[where] if np.ndim(v) else v for v in values)
    if where and entry:
        message += " at %s %d" % (entry, where[0])
    raise error(message)


def _orthonormal_columns(F: np.ndarray) -> np.ndarray:
    """Q of the QR of a frame, or of each frame of a stack, with the column
    orientation fixed by sign(diag R)."""
    Q, R = np.linalg.qr(F)
    return Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]


def _set_fields(obj, **fields):
    """Store the fields of the frozen obj, arrays made read-only; returns obj."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _trusted(cls, **fields):
    """A cls holding fields without its constructor's checks: only for values
    built from checked values, each call site saying why they would pass."""
    return _set_fields(object.__new__(cls), **fields)


@dataclass(frozen=True)
class SymplecticMatrix:
    """A 2n x 2n real matrix S with S^T J0 S = J0 (within residual_tol)."""

    entries: np.ndarray
    n: int = 0
    _tol = DEFAULT_TOLERANCES  # the policy of the check, reused by @ and inverse(); not a field

    def __init__(self, entries, tol: Tolerances = DEFAULT_TOLERANCES):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] % 2:
            raise InvariantViolation("symplectic matrix must be square of even size")
        n = entries.shape[0] // 2
        J = standard_j(n)
        resid = np.max(np.abs(entries.T @ J @ entries - J))
        if not resid <= tol.residual_tol:  # NaN entries fail too
            raise InvariantViolation(
                "not symplectic: ||S^T J S - J||_inf = %.3e" % resid)
        _set_fields(self, entries=np.array(entries), n=n, _tol=tol)

    def __matmul__(self, other):
        if isinstance(other, SymplecticMatrix):
            return SymplecticMatrix(self.entries @ other.entries, self._tol)
        return self.entries @ other

    def inverse(self) -> "SymplecticMatrix":
        J = standard_j(self.n)
        # S^{-1} = J^{-1} S^T J for symplectic S; avoids a linear solve
        return SymplecticMatrix(-J @ self.entries.T @ J, self._tol)

    @property
    def blocks(self):
        """The (A, B, C, D) blocks of [[A, B], [C, D]]."""
        n = self.n
        S = self.entries
        return S[:n, :n], S[:n, n:], S[n:, :n], S[n:, n:]


def _unitarity_residuals(U: np.ndarray) -> np.ndarray:
    """max |U_k^* U_k - I| for every matrix of a stack, or for the one matrix U."""
    return abs(U.conj().swapaxes(-1, -2) @ U - np.eye(U.shape[-1])).max(axis=(-2, -1))


def _det_phase_steps(U: np.ndarray, tol: Tolerances, ends: str, labels):
    """det U_k of a stack of unitaries and the increments of its continuous
    phase along the geodesic steps U_k -> U_{k+1}.  On the geodesic of a step,
    det turns by sum_j arg l_j over the eigenvalues l_j of U_{k+1} U_k^*, at
    most (pi/2) sqrt(n) ||U_{k+1} - U_k||_F in modulus: where that is under pi
    by _SCREEN_MARGIN, the wrapped difference of the principal phases is the
    increment, and one batched eigvals gives the rest.  A step with
    min_j |l_j + 1| below rank_floor is antipodal and raises SamplingError
    naming the step by the format ends of labels[k] and labels[k + 1]."""
    n = U.shape[-1]
    dets = np.linalg.det(U)
    steps = (np.diff(np.angle(dets)) + np.pi) % (2 * np.pi) - np.pi
    D = U[1:] - U[:-1]
    bound = np.pi / 2 * np.sqrt(n * np.sum(D.real ** 2 + D.imag ** 2, axis=(1, 2)))
    far = np.flatnonzero(~(bound < (1 - _SCREEN_MARGIN) * np.pi))
    if far.size:
        lam = np.linalg.eigvals(U[far + 1] @ U[far].conj().swapaxes(1, 2))
        gap = np.min(np.abs(lam + 1.0), axis=1)
        check_stack(gap >= tol.rank_floor(n), SamplingError,
                    "antipodal step from " + ends + ": min |l_j + 1| is %.3e",
                    labels[far], labels[far + 1], gap, entry=None)
        steps[far] = np.sum(np.angle(lam), axis=1)
    return dets, steps


def check_depth(max_depth) -> int:
    """A refinement depth as an int: an integer (numpy's too) that is not
    negative, else SamplingError naming the value."""
    try:
        depth = operator.index(max_depth)
    except TypeError:
        depth = -1
    if depth < 0:
        raise SamplingError("refinement depth must be non-negative and integral, got %r"
                            % (max_depth,))
    return depth


def _checked_unitary(U, tol: Tolerances, symmetric: str = "") -> np.ndarray:
    """A read-only complex copy of U (or of its entries), checked square, then
    symmetric if a message for that is given, then unitary."""
    U = np.array(U.entries if isinstance(U, UnitaryComplex) else U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise InvariantViolation("unitary matrix must be square")
    if symmetric and abs(U - U.T).max() > tol.residual_tol:
        raise InvariantViolation(symmetric)
    resid = _unitarity_residuals(U)
    if not resid <= tol.residual_tol:  # NaN entries fail too
        raise InvariantViolation("not unitary: ||U*U - I||_inf = %.3e" % resid)
    U.setflags(write=False)
    return U


@dataclass(frozen=True)
class UnitaryComplex:
    """An n x n complex matrix U with U*U = I (within residual_tol)."""

    entries: np.ndarray

    def __init__(self, entries, tol: Tolerances = DEFAULT_TOLERANCES):
        _set_fields(self, entries=_checked_unitary(entries, tol))

    @property
    def n(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class LagrangianFrame:
    """A 2n x n real matrix whose columns span a Lagrangian subspace."""

    columns: np.ndarray
    n: int = 0

    def __init__(self, columns, tol: Tolerances = DEFAULT_TOLERANCES):
        columns = np.asarray(columns, dtype=float)
        if columns.ndim != 2 or columns.shape[0] != 2 * columns.shape[1]:
            raise InvariantViolation("frame must be a 2n x n matrix")
        if not np.all(np.isfinite(columns)):
            raise InvariantViolation("frame entries must be finite")
        n = columns.shape[1]
        iso = np.max(np.abs(omega_gram(columns, columns)))
        sv = np.linalg.svd(columns, compute_uv=False)
        if iso > tol.residual_tol * max(1.0, sv[0] ** 2):
            raise InvariantViolation("frame is not isotropic: residual %.3e" % iso)
        if sv[-1] < tol.rank_floor(2 * n):
            raise InvariantViolation("frame is rank deficient: sigma_min %.3e" % sv[-1])
        _set_fields(self, columns=np.array(columns), n=n)

    def orthonormalized(self) -> "LagrangianFrame":
        # QR of a checked full-rank isotropic frame: the same plane, orthonormal
        return _trusted(LagrangianFrame, columns=_orthonormal_columns(self.columns), n=self.n)


def l0_frame(n: int) -> LagrangianFrame:
    """Frame of the vertical basepoint L0 = {0} x R^n."""
    return LagrangianFrame(np.vstack([np.zeros((n, n)), np.eye(n)]))


def line_frame(alpha: float) -> LagrangianFrame:
    """The line at angle alpha in R^2 (every line is Lagrangian for n = 1)."""
    return LagrangianFrame(np.array([[np.cos(alpha)], [np.sin(alpha)]]))


def embed_unitary(U, tol: Tolerances = DEFAULT_TOLERANCES) -> SymplecticMatrix:
    """Embed U = A + iB in U(n, C) as the symplectic-orthogonal [[A, -B], [B, A]]."""
    if not isinstance(U, UnitaryComplex):
        U = UnitaryComplex(U, tol)
    A, B = U.entries.real, U.entries.imag
    # S^T J0 S - J0 = embed(U*U - I) J0: the unitarity check covers symplecticity
    return _trusted(SymplecticMatrix, entries=np.block([[A, -B], [B, A]]), n=U.n, _tol=tol)


def unitaries_from_symplectic(symp_path, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Stack of the U_k with embed_unitary(U_k) = S_k along a path of checked
    symplectic matrices, which are unitary images if of block form: one
    batched block check names the first sample outside the unitary image."""
    if not len(symp_path):
        raise InvariantViolation("empty symplectic path")
    S = np.array([s.entries for s in symp_path])
    n = S.shape[-1] // 2
    A, B, C, D = S[:, :n, :n], S[:, :n, n:], S[:, n:, :n], S[:, n:, n:]
    U = A + 1j * C
    block = np.maximum(np.max(np.abs(A - D), axis=(1, 2)),
                       np.max(np.abs(B + C), axis=(1, 2)))
    check_stack(block <= 10 * tol.residual_tol, InvariantViolation,
                "not in the unitary image: block residual %.3e", block, entry="sample")
    return U


def souriau_images(F, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Souriau images w of real frame columns F, shape (N, 2n, n), made
    orthonormal by QR, or of the unitaries of orthonormal frames, (N, n, n).

    V_k = X_k + iY_k is the unitary of orthonormal frame k, X its positions
    and Y its momenta, and w_k = -V_k V_k^T = r r^T for the unitary r = Y - iX
    carrying L0 onto its plane.  One unitarity residual of V checks that every
    frame is orthonormal and isotropic, and names the first that is not.
    """
    if np.iscomplexobj(F):
        V = np.asarray(F)
        if V.ndim != 3 or V.shape[1] != V.shape[2]:
            raise InvariantViolation("frame unitaries must form an (N, n, n) stack")
    else:
        F = np.asarray(F, dtype=float)
        if F.ndim != 3 or F.shape[1] != 2 * F.shape[2]:
            raise InvariantViolation("frames must form an (N, 2n, n) stack")
        Q, n = _orthonormal_columns(F), F.shape[2]
        V = Q[:, :n] + 1j * Q[:, n:]
    resid = _unitarity_residuals(V)
    check_stack(resid <= tol.residual_tol, InvariantViolation,
                "not Lagrangian: unitarity residual %.3e", resid, entry="frame")
    w = -(V @ np.swapaxes(V, 1, 2))
    return (w + np.swapaxes(w, 1, 2)) / 2  # symmetric by construction; tidy roundoff


def souriau_map(L: LagrangianFrame, tol: Tolerances = DEFAULT_TOLERANCES) -> UnitaryComplex:
    """Souriau image of span(L), a symmetric unitary: the one-frame case of
    souriau_images."""
    # souriau_images checked V unitary, and w = -V V^T is unitary with it
    return _trusted(UnitaryComplex, entries=souriau_images(L.columns[None], tol)[0])


def _souriau_frame(w: np.ndarray) -> LagrangianFrame:
    """lagrangian_from_souriau of a w checked symmetric unitary."""
    n = len(w)
    R = np.empty((2 * n, 2 * n))
    R[:n, :n], R[:n, n:], R[n:, :n], R[n:, n:] = w.real, w.imag, w.imag, -w.real
    _, E = np.linalg.eigh(R)
    # the -1 eigenvectors of eigh: orthonormal, spanning the plane of w
    return _trusted(LagrangianFrame, columns=E[:, :n], n=n)


def lagrangian_from_souriau(w, tol: Tolerances = DEFAULT_TOLERANCES) -> LagrangianFrame:
    """Inverse of the Souriau map: an orthonormal frame of the Lagrangian
    with Souriau image w.

    For the unitary V = X + iY of an orthonormal frame, w = -V V^T gives
    w conj(V) = -V, so the plane is {(x, y) : (x + iy) + w (x - iy) = 0}, the
    -1 eigenspace of the real symmetric involution
    R = [[Re w, Im w], [Im w, -Re w]] (R^2 = I as w is symmetric unitary).
    The spectrum of R is +1 and -1, n times each, so one eigh separates
    the plane with a gap of 2, whatever the eigenvalues of w.
    """
    return _souriau_frame(_checked_unitary(w, tol, "Souriau matrix must be symmetric"))


def intersection_dim(L1: LagrangianFrame, L2: LagrangianFrame,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """dim(span L1 intersect span L2), as 2n - rank([L1 | L2])."""
    if L1.n != L2.n:
        raise DimensionMismatch("frames have n = %d and n = %d" % (L1.n, L2.n))
    F = np.hstack([_orthonormal_columns(L1.columns), _orthonormal_columns(L2.columns)])
    sv = np.linalg.svd(F, compute_uv=False)
    rank = int(np.sum(sv > tol.rank_floor(2 * L1.n)))
    return 2 * L1.n - rank


def random_unitary(n: int, rng: np.random.Generator) -> UnitaryComplex:
    """Haar-like unitary from QR of a complex Gaussian matrix."""
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return _trusted(UnitaryComplex, entries=Q * (d / np.abs(d)).conj())  # Q of a QR is unitary


def random_lagrangian(n: int, rng: np.random.Generator) -> LagrangianFrame:
    """Random Lagrangian frame embed_unitary(random U) . L0; exact by construction."""
    S = embed_unitary(random_unitary(n, rng))
    return _trusted(LagrangianFrame, columns=S.entries @ l0_frame(n).columns, n=n)
