"""Exact metaplectic calculus on Gaussian amplitudes.

States are closed-form data c * poly(x) * exp(-<M x, x>/2) with complex
symmetric M, Re M positive definite.  The three generators act exactly:

* Chirp(B):      multiplication by e^{-i <B x, x>/2}        (M -> M + iB)
* Dilate(A, m):  f -> |det A|^{1/2} i^m f(A^T x)            (M -> A M A^T)
* JHat:          i^{-n/2} F with the unitary e^{-i<x,y>} Fourier transform
                 (M -> M^{-1}, c -> c det(M)^{-1/2} i^{-n/2})

Roots are fixed globally as i^{1/2} = e^{i pi/4}, i^{n/2} = (e^{i pi/4})^n.
det(M)^{-1/2} is the canonical branch on {Re M > 0}: the product of the
principal half-argument roots of the eigenvalues, continuous and positive on
real positive definite M.

A quadratic Fourier transform with data (P, L, Q, m) is the word

    Chirp(-P) o Dilate(L^T, m) o JHat o Chirp(-Q)

equal to the oscillatory integral operator

    f -> (2 pi i)^{-n/2} i^m |det L|^{1/2}
         Int  e^{i(<Px,x>/2 - <Lx,y> + <Qy,y>/2)} f(y) dy.

The minus signs and the transpose in the word are pinned by the round-trip
requirement against the block reconstruction below together with the
composition cocycle; the test suite checks both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (DEFAULT_TOLERANCES, SymplecticMatrix, Tolerances,
                   embed_unitary, unitaries_from_symplectic)
from .errors import (CaseError, ConditioningError, DimensionMismatch,
                     InvariantViolation, SamplingError, StateDomainError)

DELTA = "delta"
CONST = "const"

#: Per-step bound on max |eig(V) - 1| for unitary path steps.
MAX_UNITARY_STEP = 0.4


def quarter_turn(m: int) -> complex:
    """i^m for integer m."""
    return 1j ** (m % 4)


def root_i_power(k: int) -> complex:
    """i^{k/2} with the fixed root i^{1/2} = e^{i pi/4}."""
    return np.exp(0.25j * np.pi * k)


def det_branch_power(M: np.ndarray, power: float) -> complex:
    """det(M)^{power} on the canonical branch for Re M positive definite.

    Computed as the product of principal powers of the eigenvalues; all
    eigenvalues have positive real part on this domain, so the result is the
    unique continuous branch that is positive on real SPD matrices.
    """
    lam = np.linalg.eigvals(M)
    if np.min(lam.real) <= 0:
        raise StateDomainError("canonical determinant branch needs Re(eigenvalues) > 0")
    return complex(np.prod(np.abs(lam) ** power * np.exp(1j * power * np.angle(lam))))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Multivariate polynomial with complex coefficients, kept as a mapping
    from exponent tuples to coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict | None = None):
        self.n = n
        self.coeffs = {}
        for k, v in (coeffs or {}).items():
            if v != 0:
                self.coeffs[tuple(int(e) for e in k)] = complex(v)

    @classmethod
    def constant(cls, value, n: int) -> "Polynomial":
        return cls(n, {(0,) * n: value})

    @classmethod
    def coordinate(cls, j: int, n: int) -> "Polynomial":
        e = [0] * n
        e[j] = 1
        return cls(n, {tuple(e): 1.0})

    def is_constant(self):
        return all(sum(k) == 0 for k in self.coeffs)

    @property
    def degree(self):
        return max((sum(k) for k in self.coeffs), default=0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return Polynomial(self.n, out)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0) + v1 * v2
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def scale(self, a) -> "Polynomial":
        return Polynomial(self.n, {k: a * v for k, v in self.coeffs.items()})

    def conjugate(self) -> "Polynomial":
        return Polynomial(self.n, {k: np.conj(v) for k, v in self.coeffs.items()})

    def diff(self, j: int) -> "Polynomial":
        out = {}
        for k, v in self.coeffs.items():
            if k[j] > 0:
                kk = list(k)
                kk[j] -= 1
                out[tuple(kk)] = out.get(tuple(kk), 0) + v * k[j]
        return Polynomial(self.n, out)

    def compose_linear(self, T: np.ndarray) -> "Polynomial":
        """p(T x): substitute each coordinate by the linear form given by T's rows."""
        forms = [Polynomial(self.n, {tuple(int(i == c) for i in range(self.n)): T[j, c]
                                     for c in range(self.n) if T[j, c] != 0})
                 for j in range(self.n)]
        out = Polynomial(self.n)
        for k, v in self.coeffs.items():
            term = Polynomial.constant(v, self.n)
            for j, e in enumerate(k):
                for _ in range(e):
                    term = term * forms[j]
            out = out + term
        return out

    def __call__(self, x) -> complex:
        x = np.atleast_1d(np.asarray(x))
        total = 0j
        for k, v in self.coeffs.items():
            total += v * np.prod([x[j] ** e for j, e in enumerate(k)])
        return complex(total)


def _gaussian_moment(Sigma: np.ndarray, gamma: tuple, cache: dict) -> complex:
    """Centered Gaussian moment E[x^gamma] with (complex symmetric) covariance
    Sigma, by the Isserlis/Stein recursion."""
    if sum(gamma) == 0:
        return 1.0 + 0j
    if sum(gamma) % 2:
        return 0j
    if gamma in cache:
        return cache[gamma]
    i = next(j for j, e in enumerate(gamma) if e > 0)
    rest = list(gamma)
    rest[i] -= 1
    total = 0j
    for j in range(len(gamma)):
        if rest[j] > 0:
            red = list(rest)
            red[j] -= 1
            total += Sigma[i, j] * rest[j] * _gaussian_moment(Sigma, tuple(red), cache)
    cache[gamma] = total
    return total


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class GaussianAmplitude:
    """The state x -> c * poly(x) * exp(-<M x, x>/2)."""

    c: complex
    M: np.ndarray
    poly: Polynomial = None

    def __init__(self, c, M, poly: Polynomial | None = None,
                 tol: Tolerances = DEFAULT_TOLERANCES):
        M = np.asarray(M, dtype=complex)
        n = M.shape[0]
        if np.max(np.abs(M - M.T)) > tol.residual_tol:
            raise InvariantViolation("Gaussian matrix must be symmetric")
        M = (M + M.T) / 2
        ev = np.linalg.eigvalsh(M.real)
        if ev[0] < tol.rank_floor(n):
            raise StateDomainError("Re(M) must be positive definite; min eig %.3e" % ev[0])
        if poly is None:
            poly = Polynomial.constant(1.0, n)
        if poly.n != n:
            raise DimensionMismatch("polynomial arity does not match M")
        M.setflags(write=False)
        object.__setattr__(self, "c", complex(c))
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "poly", poly)

    @property
    def n(self):
        return self.M.shape[0]

    def __call__(self, x) -> complex:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.c * self.poly(x) * np.exp(-0.5 * x @ self.M @ x)

    def scaled(self, a) -> "GaussianAmplitude":
        return GaussianAmplitude(self.c * a, self.M, self.poly)


def ground_state(n: int) -> GaussianAmplitude:
    """u0(x) = exp(-<x, x>/2)."""
    return GaussianAmplitude(1.0, np.eye(n))


def gaussian_integral(s: GaussianAmplitude) -> complex:
    """Closed form of Int s(x) dx over R^n."""
    Sigma = np.linalg.inv(s.M)
    cache = {}
    mean = sum(v * _gaussian_moment(Sigma, k, cache) for k, v in s.poly.coeffs.items())
    return s.c * (2 * np.pi) ** (s.n / 2) * det_branch_power(s.M, -0.5) * mean


def l2_inner(s1: GaussianAmplitude, s2: GaussianAmplitude) -> complex:
    """Closed form of the L2 inner product Int s1(x) conj(s2(x)) dx."""
    if s1.n != s2.n:
        raise DimensionMismatch("states over different n")
    return gaussian_integral(GaussianAmplitude(
        s1.c * np.conj(s2.c), s1.M + s2.M.conj(), s1.poly * s2.poly.conjugate()))


def l2_norm_squared(s: GaussianAmplitude) -> float:
    return float(l2_inner(s, s).real)


@dataclass(frozen=True)
class DistributionState:
    """Distinguished dual states: DELTA is c * (evaluation at 0), CONST is
    c * (integration against the constant function 1)."""

    kind: str
    c: complex

    def __post_init__(self):
        if self.kind not in (DELTA, CONST):
            raise InvariantViolation("kind must be DELTA or CONST")
        if not np.isfinite(self.c) or self.c == 0:
            raise InvariantViolation("prefactor must be finite and nonzero")

    def pair(self, s: GaussianAmplitude) -> complex:
        """Evaluate the functional on a Gaussian amplitude."""
        if self.kind == DELTA:
            return self.c * s(np.zeros(s.n))
        return self.c * gaussian_integral(s)


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class Dilate:
    A: np.ndarray
    m: int

    def __init__(self, A, m: int, tol: Tolerances = DEFAULT_TOLERANCES):
        A = np.asarray(A, dtype=float)
        if abs(np.linalg.det(A)) < tol.rank_floor(A.shape[0]):
            raise InvariantViolation("dilation matrix must be invertible")
        A = A.copy()
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "m", int(m) % 4)


@dataclass(frozen=True)
class Chirp:
    B: np.ndarray

    def __init__(self, B, tol: Tolerances = DEFAULT_TOLERANCES):
        B = np.asarray(B, dtype=float)
        if np.max(np.abs(B - B.T)) > tol.residual_tol:
            raise InvariantViolation("chirp matrix must be symmetric")
        B = (B + B.T) / 2
        B.setflags(write=False)
        object.__setattr__(self, "B", B)


class JHat:
    """The fixed factor i^{-n/2} F."""

    def __repr__(self):
        return "JHat()"


def _fourier_poly(poly: Polynomial, N: np.ndarray) -> Polynomial:
    """Polynomial push-through of the Fourier transform.

    F[x^gamma u_M] = det(M)^{-1/2} (i d/dx)^gamma u_N with N = M^{-1}; each
    derivative conjugated by u_N acts on polynomials as
    R -> i (dR/dx_j - (N x)_j R), preserving degree.
    """
    n = poly.n
    nx = [Polynomial(n, {tuple(int(i == c) for i in range(n)): N[j, c]
                         for c in range(n) if N[j, c] != 0}) for j in range(n)]
    out = Polynomial(n)
    for gamma, a in poly.coeffs.items():
        term = Polynomial.constant(1.0, n)
        for j, e in enumerate(gamma):
            for _ in range(e):
                term = (term.diff(j) + nx[j] * term.scale(-1.0)).scale(1j)
        out = out + term.scale(a)
    return out


def apply_generator(gen, s: GaussianAmplitude,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> GaussianAmplitude:
    """Apply one generator to a state; exact on (c, M, poly) data."""
    if isinstance(gen, Dilate):
        A = gen.A
        c = s.c * np.sqrt(abs(np.linalg.det(A))) * quarter_turn(gen.m)
        M = A @ s.M @ A.T
        return GaussianAmplitude(c, M, s.poly.compose_linear(A.T), tol)
    if isinstance(gen, Chirp):
        return GaussianAmplitude(s.c, s.M + 1j * gen.B, s.poly, tol)
    if isinstance(gen, JHat):
        c = s.c * det_branch_power(s.M, -0.5) * root_i_power(-s.n)
        Minv = np.linalg.inv(s.M)
        Minv = (Minv + Minv.T) / 2
        return GaussianAmplitude(c, Minv, _fourier_poly(s.poly, Minv), tol)
    raise InvariantViolation("unknown generator %r" % (gen,))


# ---------------------------------------------------------------------------
# quadratic Fourier transforms


@dataclass(frozen=True)
class QuadraticFourier:
    """Generating data (P, L, Q) of a free quadratic form plus branch integer m."""

    P: np.ndarray
    L: np.ndarray
    Q: np.ndarray
    m: int

    def __init__(self, P, L, Q, m: int, tol: Tolerances = DEFAULT_TOLERANCES):
        P = np.asarray(P, dtype=float)
        L = np.asarray(L, dtype=float)
        Q = np.asarray(Q, dtype=float)
        if np.max(np.abs(P - P.T)) > tol.residual_tol or np.max(np.abs(Q - Q.T)) > tol.residual_tol:
            raise InvariantViolation("P and Q must be symmetric")
        if abs(np.linalg.det(L)) < tol.rank_floor(L.shape[0]):
            raise InvariantViolation("L must be invertible")
        for name, a in (("P", (P + P.T) / 2), ("L", L.copy()), ("Q", (Q + Q.T) / 2)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "m", int(m) % 4)

    @property
    def n(self):
        return self.L.shape[0]

    def with_branch(self, m: int) -> "QuadraticFourier":
        return QuadraticFourier(self.P, self.L, self.Q, m)


def quad_fourier_from_symplectic(S: SymplecticMatrix, m: int,
                                 tol: Tolerances = DEFAULT_TOLERANCES) -> QuadraticFourier:
    """Generating data of a symplectic matrix with invertible upper-right
    block: (P, L, Q) = (D B^{-1}, B^{-1}, B^{-1} A)."""
    A, B, C, D = S.blocks
    if abs(np.linalg.det(B)) < tol.rank_floor(S.n):
        raise CaseError(
            "B-block is singular: no free generating function; "
            "compose with the fixed Fourier factor first")
    Bi = np.linalg.inv(B)
    P, L, Q = D @ Bi, Bi, Bi @ A
    if np.max(np.abs(P - P.T)) > 1e3 * tol.residual_tol or \
       np.max(np.abs(Q - Q.T)) > 1e3 * tol.residual_tol:
        raise InvariantViolation("block data is not symmetric; input not symplectic?")
    return QuadraticFourier((P + P.T) / 2, L, (Q + Q.T) / 2, m, tol)


def symplectic_from_quad_fourier(qf: QuadraticFourier,
                                 tol: Tolerances = DEFAULT_TOLERANCES) -> SymplecticMatrix:
    """Block reconstruction [[L^{-1}Q, L^{-1}], [P L^{-1} Q - L^T, P L^{-1}]];
    inverse of quad_fourier_from_symplectic."""
    Li = np.linalg.inv(qf.L)
    top = np.hstack([Li @ qf.Q, Li])
    bot = np.hstack([qf.P @ Li @ qf.Q - qf.L.T, qf.P @ Li])
    return SymplecticMatrix(np.vstack([top, bot]), tol)


def apply_quad_fourier(qf: QuadraticFourier, s: GaussianAmplitude,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> GaussianAmplitude:
    """Apply the quadratic Fourier transform as its four-generator word."""
    s = apply_generator(Chirp(-qf.Q, tol), s, tol)
    s = apply_generator(JHat(), s, tol)
    s = apply_generator(Dilate(qf.L.T, qf.m, tol), s, tol)
    return apply_generator(Chirp(-qf.P, tol), s, tol)


def adjoint_quad_fourier(qf: QuadraticFourier) -> QuadraticFourier:
    """Adjoint (= inverse) transform: data (-Q, -L^T, -P) with branch n - m."""
    return QuadraticFourier(-qf.Q, -qf.L.T, -qf.P, (qf.n - qf.m) % 4)


def mu_hat(qf: QuadraticFourier) -> int:
    """The index 2m - n mod 8 of a quadratic Fourier transform."""
    return (2 * qf.m - qf.n) % 8


def mu_hat_composed(qf1: QuadraticFourier, qf2: QuadraticFourier,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Index of the product (qf1 applied after qf2) through the composition
    cocycle: mu_hat(qf1) + mu_hat(qf2) + sign(P_2 + Q_1) mod 8."""
    if qf1.n != qf2.n:
        raise DimensionMismatch("factors over different n")
    ev = np.linalg.eigvalsh(qf2.P + qf1.Q)
    cut = tol.rank_floor(qf1.n)
    sig = int(np.sum(ev > cut) - np.sum(ev < -cut))
    return (mu_hat(qf1) + mu_hat(qf2) + sig) % 8


# ---------------------------------------------------------------------------
# path lifting


def _step_bound(n: int) -> float:
    """Per-step size limit keeping every branch increment under a quarter
    turn: the scalar factor's phase is at most n times half the largest
    eigenphase of the step."""
    return min(MAX_UNITARY_STEP, 2.0 * np.sin(np.pi / (8.0 * n)))


def _unitary_sqrt(V: np.ndarray) -> np.ndarray:
    """Principal square root of a unitary matrix (complex Schur route)."""
    import scipy.linalg  # only here: importing it costs more than the rest of maslov
    T, Z = scipy.linalg.schur(V, output="complex")
    lam = np.diagonal(T)
    return Z @ np.diag(np.exp(0.5j * np.angle(lam))) @ Z.conj().T


def _step_word(V: np.ndarray, s: GaussianAmplitude,
               tol: Tolerances) -> GaussianAmplitude:
    """Apply the lift of a single near-identity unitary-image step, branch
    chosen by continuity.

    Pure Gaussian states use the closed fractional-linear law

        M -> (D M - i C)(A + i B M)^{-1},   c -> c det(A + i B M)^{-1/2}

    with the principal determinant branch, which is the continuous lift for
    steps within the size bound.  States with a polynomial factor go through
    the generator word instead: the step has a singular upper-right block
    near the identity, so it is composed with the fixed Fourier element
    J0 = embed(iI), S = (S J0) J0^{-1} with S J0 = embed(iV), every factor
    then having an invertible block, and the branch integer of the
    (S J0)-word is rounded so the scalar increment stays within a quarter
    turn of 1.  Both routes realize the same operator.
    """
    A, B = V.real, V.imag
    if s.poly.is_constant():
        # blocks of embed(V) are [[A, -B], [B, A]], so the law reads
        # M' = (A M - i B)(A - i B M)^{-1}, c' = c det(A - i B M)^{-1/2}
        Z = A - 1j * (B @ s.M)
        lam = np.linalg.eigvals(Z)
        fac = np.prod(np.abs(lam) ** -0.5 * np.exp(-0.5j * np.angle(lam)))
        Mn = ((A @ s.M) - 1j * B) @ np.linalg.inv(Z)
        Mn = (Mn + Mn.T) / 2
        return GaussianAmplitude(s.c * fac, Mn, s.poly, tol)
    qf = quad_fourier_from_symplectic(embed_unitary(1j * V, tol), 0, tol)
    out = apply_generator(JHat(), s, tol)
    out = apply_quad_fourier(qf, out, tol)
    ratio = out.c / s.c
    if not np.isfinite(ratio) or ratio == 0:
        raise StateDomainError("degenerate scalar increment along the path")
    m = int(round(-2.0 * np.angle(ratio) / np.pi)) % 4
    return out.scaled(quarter_turn(m))


def lift_frame_path_trace(Us: np.ndarray, s0: GaussianAmplitude,
                          tol: Tolerances = DEFAULT_TOLERANCES,
                          max_depth: int = 12) -> list[GaussianAmplitude]:
    """States of the continuous metaplectic lift at every sample of a path of
    unitaries Us, shape (N, n, n), starting at the identity."""
    Us = np.asarray(Us, dtype=complex)
    if Us.ndim != 3 or not len(Us):
        raise InvariantViolation("expected a nonempty (N, n, n) stack of unitaries")
    n = Us.shape[-1]
    if np.max(np.abs(Us[0] - np.eye(n))) > 100 * tol.residual_tol:
        raise InvariantViolation("path must start at the identity")
    if s0.n != n:
        raise DimensionMismatch("state dimension does not match the path")
    state = s0
    trace = [state]
    bound = _step_bound(n)
    for k in range(len(Us) - 1):
        stack = [(Us[k], Us[k + 1], 0)]
        while stack:
            Ua, Ub, depth = stack.pop()
            V = Ub @ Ua.conj().T
            if np.max(np.abs(np.linalg.eigvals(V) - 1.0)) > bound:
                if depth >= max_depth:
                    raise SamplingError("unitary path refinement exhausted")
                Um = _unitary_sqrt(V) @ Ua
                stack.append((Um, Ub, depth + 1))
                stack.append((Ua, Um, depth + 1))
                continue
            state = _step_word(V, state, tol)
        trace.append(state)
    return trace


def lift_frame_path(symp_path: Sequence[SymplecticMatrix], s0: GaussianAmplitude,
                    tol: Tolerances = DEFAULT_TOLERANCES,
                    max_depth: int = 12) -> GaussianAmplitude:
    """Transport a Gaussian state along a unitary-image symplectic path
    starting at the identity, with the metaplectic branch tracked continuously.

    Steps are subdivided (geodesically in U(n)) until each one is within
    MAX_UNITARY_STEP of the identity; the per-step branch is then unambiguous.
    The endpoint is sampling-independent within phase_tol.
    """
    Us = unitaries_from_symplectic(symp_path, tol)
    return lift_frame_path_trace(Us, s0, tol, max_depth)[-1]


# ---------------------------------------------------------------------------
# endpoint branches and the dual action


def pin_branch_transverse(S_end: SymplecticMatrix, lift_c: complex,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> QuadraticFourier:
    """Branch integer of the path lift at a unitary endpoint with invertible
    B-block: the m for which the quadratic Fourier word reproduces the lifted
    ground-state phase."""
    n = S_end.n
    qf0 = quad_fourier_from_symplectic(S_end, 0, tol)
    base = apply_quad_fourier(qf0, ground_state(n), tol).c
    ratio = lift_c / base
    m = int(round(2.0 * np.angle(ratio) / np.pi)) % 4
    resid = abs(ratio - quarter_turn(m))
    if resid > 100 * tol.phase_tol:
        raise ConditioningError(
            "lifted phase does not match any branch: residual %.3e" % resid)
    return qf0.with_branch(m)


def pin_branch_orthogonal(lift_c: complex,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Branch integer at an orthogonal-type endpoint, where the lifted
    ground-state phase is a fourth root of unity i^m."""
    m = int(round(2.0 * np.angle(lift_c) / np.pi)) % 4
    resid = abs(lift_c - quarter_turn(m))
    if resid > 100 * tol.phase_tol:
        raise ConditioningError(
            "lifted phase %.6g%+.6gj is not a fourth root of unity" %
            (lift_c.real, lift_c.imag))
    return m


def apply_to_delta(qf: QuadraticFourier) -> DistributionState:
    """Dual action of a quadratic Fourier transform on the Dirac functional.

    Returns the constant functional with prefactor

        (2 pi)^{-n/2} i^{n/2 - m} |det L|^{1/2},

    obtained by evaluating the adjoint word at the origin.  When P is nonzero
    the functional additionally carries the unit-modulus quadratic phase
    density e^{-i <P x, x>/2}, which this two-kind representation does not
    store; callers working at P = 0 endpoints get the exact dual state.
    """
    n = qf.n
    c = ((2 * np.pi) ** (-n / 2) * root_i_power(n) * quarter_turn(-qf.m)
         * np.sqrt(abs(np.linalg.det(qf.L))))
    return DistributionState(CONST, c)


def endpoint_positive_factor(qf: QuadraticFourier) -> float:
    """The positive constant (2 pi)^{-n/2} |det L|^{1/2} of the transverse
    dual-transport law."""
    return float((2 * np.pi) ** (-qf.n / 2) * np.sqrt(abs(np.linalg.det(qf.L))))


def apply_word_to_delta(A: np.ndarray, m: int,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> DistributionState:
    """Dual action of an orthogonal-endpoint word on the Dirac functional:
    i^{-m} times the Dirac functional again."""
    A = np.asarray(A, dtype=float)
    if np.max(np.abs(A.T @ A - np.eye(A.shape[0]))) > 100 * tol.residual_tol:
        raise CaseError("endpoint word is not orthogonal-type")
    return DistributionState(DELTA, quarter_turn(-m))


# ---------------------------------------------------------------------------
# oscillator eigenstates


def _hermite_coeffs(k: int) -> list:
    """Coefficients of the physicists' Hermite polynomial H_k."""
    h0, h1 = [1.0], [0.0, 2.0]
    if k == 0:
        return h0
    for j in range(1, k):
        nxt = [0.0] + [2.0 * c for c in h1]
        for i, c in enumerate(h0):
            nxt[i] -= 2.0 * j * c
        h0, h1 = h1, nxt
    return h1


def hermite_state(l, n: int) -> GaussianAmplitude:
    """Oscillator eigenstate at level l: a Hermite polynomial times the ground
    state, spanning a vector of the eigenspace with eigenvalue -(l + n/2).

    An integer level places H_l on the first coordinate; a multi-index gives
    the product state with total level sum(l).
    """
    if isinstance(l, (int, np.integer)):
        levels = (int(l),) + (0,) * (n - 1)
    else:
        levels = tuple(int(v) for v in l)
        if len(levels) != n:
            raise DimensionMismatch("multi-index length must equal n")
    if any(v < 0 for v in levels):
        raise InvariantViolation("levels must be nonnegative")
    poly = Polynomial.constant(1.0, n)
    for j, k in enumerate(levels):
        cj = _hermite_coeffs(k)
        pj = Polynomial(n, {tuple(d * (i == j) for i in range(n)): c
                            for d, c in enumerate(cj) if c != 0.0})
        poly = poly * pj
    return GaussianAmplitude(1.0, np.eye(n), poly)


def oscillator_level(s: GaussianAmplitude, tol: Tolerances = DEFAULT_TOLERANCES):
    """Level l if s is an eigenstate of the harmonic oscillator Hamiltonian
    -(1/2) sum_j (x_j^2 - d^2/dx_j^2) with eigenvalue -(l + n/2), else None.

    Acts symbolically: for s = P u_0 the Hamiltonian sends P to
    -(1/2) sum_j (-d_j^2 P + 2 x_j d_j P + P).
    """
    if np.max(np.abs(s.M - np.eye(s.n))) > tol.residual_tol:
        return None
    out = Polynomial(s.n)
    for j in range(s.n):
        dj = s.poly.diff(j)
        out = out + dj.diff(j).scale(-1.0) + Polynomial.coordinate(j, s.n) * dj.scale(2.0)
    # out must equal 2 l * poly for an eigenstate
    k0, v0 = max(s.poly.coeffs.items(), key=lambda kv: abs(kv[1]))
    cand = out.coeffs.get(k0, 0j) / (2.0 * v0)
    if abs(cand - round(cand.real)) > tol.phase_tol:
        return None
    l = int(round(cand.real))
    resid = out + s.poly.scale(-2.0 * l)
    if any(abs(v) > 1e-8 * abs(v0) for v in resid.coeffs.values()):
        return None
    return l
