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
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation


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
            if not getattr(self, name) > 0:
                raise InvariantViolation("%s must be strictly positive" % name)

    def rank_floor(self, dim):
        # rank_tol may never undercut machine precision at the given size
        return max(self.rank_tol, np.finfo(float).eps * dim)


DEFAULT_TOLERANCES = Tolerances()


@functools.lru_cache(maxsize=None)
def standard_j(n: int) -> np.ndarray:
    """The standard complex structure J0 on R^{2n}."""
    Z, I = np.zeros((n, n)), np.eye(n)
    J = np.block([[Z, -I], [I, Z]])
    J.setflags(write=False)
    return J


def omega_gram(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Matrix of omega(F_i, G_j) for two column collections in R^{2n}."""
    n = F.shape[0] // 2
    return (standard_j(n) @ F).T @ G


def _as_array(x, dtype=float):
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SymplecticMatrix:
    """A 2n x 2n real matrix S with S^T J0 S = J0 (within residual_tol)."""

    entries: np.ndarray
    n: int = 0

    def __init__(self, entries, tol: Tolerances = DEFAULT_TOLERANCES):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] % 2:
            raise InvariantViolation("symplectic matrix must be square of even size")
        n = entries.shape[0] // 2
        J = standard_j(n)
        resid = np.max(np.abs(entries.T @ J @ entries - J))
        if resid > tol.residual_tol:
            raise InvariantViolation(
                "not symplectic: ||S^T J S - J||_inf = %.3e" % resid)
        object.__setattr__(self, "entries", _as_array(entries))
        object.__setattr__(self, "n", n)

    def __matmul__(self, other):
        if isinstance(other, SymplecticMatrix):
            return SymplecticMatrix(self.entries @ other.entries)
        return self.entries @ other

    def inverse(self) -> "SymplecticMatrix":
        J = standard_j(self.n)
        # S^{-1} = J^{-1} S^T J for symplectic S; avoids a linear solve
        return SymplecticMatrix(-J @ self.entries.T @ J)

    @property
    def blocks(self):
        """The (A, B, C, D) blocks of [[A, B], [C, D]]."""
        n = self.n
        S = self.entries
        return S[:n, :n], S[:n, n:], S[n:, :n], S[n:, n:]


def _unitarity_residuals(U: np.ndarray) -> np.ndarray:
    """max |U_k^* U_k - I| for every matrix of a stack."""
    Uh = np.conj(np.swapaxes(U, -1, -2))
    return np.max(np.abs(Uh @ U - np.eye(U.shape[-1])), axis=(-2, -1))


@dataclass(frozen=True)
class UnitaryComplex:
    """An n x n complex matrix U with U*U = I (within residual_tol)."""

    entries: np.ndarray

    def __init__(self, entries, tol: Tolerances = DEFAULT_TOLERANCES):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvariantViolation("unitary matrix must be square")
        resid = _unitarity_residuals(entries)
        if resid > tol.residual_tol:
            raise InvariantViolation("not unitary: ||U*U - I||_inf = %.3e" % resid)
        object.__setattr__(self, "entries", _as_array(entries, dtype=complex))

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
        n = columns.shape[1]
        iso = np.max(np.abs(omega_gram(columns, columns)))
        sv = np.linalg.svd(columns, compute_uv=False)
        if iso > tol.residual_tol * max(1.0, sv[0] ** 2):
            raise InvariantViolation("frame is not isotropic: residual %.3e" % iso)
        if sv[-1] < tol.rank_floor(2 * n):
            raise InvariantViolation("frame is rank deficient: sigma_min %.3e" % sv[-1])
        object.__setattr__(self, "columns", _as_array(columns))
        object.__setattr__(self, "n", n)

    def orthonormalized(self) -> "LagrangianFrame":
        Q, R = np.linalg.qr(self.columns)
        # keep a deterministic column orientation
        Q = Q * np.sign(np.diagonal(R))
        return LagrangianFrame(Q)


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
    return SymplecticMatrix(np.block([[A, -B], [B, A]]), tol)


def unitaries_from_symplectic(symp_path, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Stack of the U_k with embed_unitary(U_k) = S_k along a path of
    unitary-image symplectic matrices.  One batched block and unitarity check
    names the first sample outside the unitary image."""
    if not len(symp_path):
        raise InvariantViolation("empty symplectic path")
    S = np.array([s.entries for s in symp_path])
    n = S.shape[-1] // 2
    A, B, C, D = S[:, :n, :n], S[:, :n, n:], S[:, n:, :n], S[:, n:, n:]
    U = A + 1j * C
    block = np.maximum(np.max(np.abs(A - D), axis=(1, 2)),
                       np.max(np.abs(B + C), axis=(1, 2)))
    unit = _unitarity_residuals(U)
    bad = np.flatnonzero(~((block <= 10 * tol.residual_tol) & (unit <= tol.residual_tol)))
    if bad.size:
        k = bad[0]
        raise InvariantViolation(
            "sample %d is not in the unitary image: block residual %.3e, "
            "unitarity residual %.3e" % (k, block[k], unit[k]))
    return U


def unitary_from_symplectic(S: SymplecticMatrix,
                            tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Recover U with embed_unitary(U) = S; S must lie in the unitary image."""
    return unitaries_from_symplectic([S], tol)[0]


def souriau_images(F, tol: Tolerances = DEFAULT_TOLERANCES):
    """Souriau images of a stack of frames F of shape (N, 2n, n), as (V, w).

    V_k = X_k + iY_k is the unitary of the orthonormalized frame with blocks
    X (positions) and Y (momenta), and w_k = -V_k V_k^T; this is r r^T for
    the unitary r = Y - iX carrying L0 onto span(F_k).  One unitarity
    residual of V checks that every frame is Lagrangian of full rank and
    names the first that is not.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 3 or F.shape[1] != 2 * F.shape[2]:
        raise InvariantViolation("frames must form an (N, 2n, n) stack")
    n = F.shape[2]
    Q, R = np.linalg.qr(F)
    # keep a deterministic column orientation
    Q = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
    V = Q[:, :n] + 1j * Q[:, n:]
    resid = _unitarity_residuals(V)
    bad = np.flatnonzero(~(resid <= tol.residual_tol))  # NaN frames fail too
    if bad.size:
        raise InvariantViolation("frame %d is not Lagrangian: unitarity residual %.3e"
                                 % (bad[0], resid[bad[0]]))
    w = -(V @ np.swapaxes(V, 1, 2))
    w = (w + np.swapaxes(w, 1, 2)) / 2  # symmetric by construction; tidy roundoff
    return V, w


def souriau_map(L: LagrangianFrame, tol: Tolerances = DEFAULT_TOLERANCES) -> UnitaryComplex:
    """Souriau image of span(L), a symmetric unitary: the one-frame case of
    souriau_images."""
    return UnitaryComplex(souriau_images(L.columns[None], tol)[1][0], tol)


def souriau_sqrt(w: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Principal square root r of a symmetric unitary w, through a real
    orthonormal eigenbasis; r is symmetric unitary again, so r r^T = w."""
    V = _real_eigenbasis(w, tol)
    lam = np.diagonal(V.T @ w @ V)
    return V @ np.diag(np.exp(0.5j * np.angle(lam))) @ V.T


def lagrangian_from_souriau(w, tol: Tolerances = DEFAULT_TOLERANCES) -> LagrangianFrame:
    """Inverse of the Souriau map.

    Factors the symmetric unitary w as r r^T with r = souriau_sqrt(w) (w is
    normal with commuting real and imaginary parts), then returns the frame
    embed_unitary(r) L0.  Any admissible r yields the same subspace.
    """
    if isinstance(w, UnitaryComplex):
        w = w.entries
    w = np.asarray(w, dtype=complex)
    if np.max(np.abs(w - w.T)) > tol.residual_tol:
        raise InvariantViolation("Souriau matrix must be symmetric")
    UnitaryComplex(w, tol)
    r = souriau_sqrt(w, tol)
    return LagrangianFrame(np.vstack([-r.imag, r.real]), tol)


def _real_eigenbasis(w, tol):
    """Common real orthonormal eigenbasis of Re(w) and Im(w) for symmetric unitary w."""
    X, Y = w.real, w.imag
    ev, V = np.linalg.eigh(X)
    cols, start = [], 0
    n = w.shape[0]
    group_tol = max(1e-7, 100 * tol.residual_tol)
    for k in range(1, n + 1):
        if k == n or abs(ev[k] - ev[start]) > group_tol:
            Vg = V[:, start:k]
            _, W = np.linalg.eigh(Vg.T @ Y @ Vg)
            cols.append(Vg @ W)
            start = k
    return np.hstack(cols)


def intersection_dim(L1: LagrangianFrame, L2: LagrangianFrame,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """dim(span L1 intersect span L2), as 2n - rank([L1 | L2])."""
    if L1.n != L2.n:
        raise DimensionMismatch("frames have n = %d and n = %d" % (L1.n, L2.n))
    F = np.hstack([L1.orthonormalized().columns, L2.orthonormalized().columns])
    sv = np.linalg.svd(F, compute_uv=False)
    rank = int(np.sum(sv > tol.rank_floor(2 * L1.n)))
    return 2 * L1.n - rank


def souriau_intersection_dim(w1, w2, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Intersection dimension read off the Souriau images: the multiplicity of
    eigenvalue 1 of w1 w2^{-1} (cross-check of intersection_dim)."""
    if isinstance(w1, UnitaryComplex):
        w1 = w1.entries
    if isinstance(w2, UnitaryComplex):
        w2 = w2.entries
    lam = np.linalg.eigvals(w1 @ np.linalg.inv(w2))
    return int(np.sum(np.abs(lam - 1.0) < tol.rank_floor(w1.shape[0]) * 100))


def random_unitary(n: int, rng: np.random.Generator) -> UnitaryComplex:
    """Haar-like unitary from QR of a complex Gaussian matrix."""
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return UnitaryComplex(Q * (d / np.abs(d)).conj())


def random_lagrangian(n: int, rng: np.random.Generator) -> LagrangianFrame:
    """Random Lagrangian frame embed_unitary(random U) . L0; exact by construction."""
    S = embed_unitary(random_unitary(n, rng))
    return LagrangianFrame(S.entries @ l0_frame(n).columns)
