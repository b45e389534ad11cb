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

A state or generator is one object: a scalar c, n x n matrices and one
coefficient vector, whose constructor checks them by one rule (``_matrix``).
The path lift alone works on stacks, one entry per sample.

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

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (_SCREEN_MARGIN, DEFAULT_TOLERANCES, SymplecticMatrix, Tolerances,
                   _det_phase_steps, _integer, _numbers, _set_fields, _trusted,
                   _unitarity_residuals, check_stack, unitaries_from_symplectic)
from .errors import (CaseError, ConditioningError, DimensionMismatch,
                     InvariantViolation, SamplingError, StateDomainError)

DELTA = "delta"
CONST = "const"

#: Cap on the bytes of one chunk of the lift's polynomial substitutions, a
#: (chunk, K, K) complex stack for K monomials: one operator per sample.
WORD_CHUNK_BYTES = 1 << 22


def quarter_turn(m: int) -> complex:
    """i^m for integer m."""
    return 1j ** (m % 4)


def _nearest_fourth_root(z: complex):
    """(m, |z - i^m|) for the fourth root of unity i^m nearest z; a NaN z gives
    a NaN residual, which every cut written as `not resid <= cut` rejects."""
    m = min(range(4), key=lambda j: abs(z - quarter_turn(j)))
    return m, abs(z - quarter_turn(m))


def root_i_power(k: int) -> complex:
    """i^{k/2} with the fixed root i^{1/2} = e^{i pi/4}."""
    return np.exp(0.25j * np.pi * k)


def _T(a: np.ndarray) -> np.ndarray:
    """The transpose of every matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def _matrix(A, what: str, tol: Tolerances, dtype=float, symmetric=False,
            invertible=False) -> np.ndarray:
    """A as a new finite square matrix, symmetrized if it must be symmetric
    (within residual_tol), with |det A| >= rank_floor if it must be
    invertible; else InvariantViolation naming what."""
    A = _numbers(A, "%s entries must be numbers", what, dtype=dtype)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvariantViolation("%s must be square, shape (n, n); got %s" % (what, A.shape))
    if not np.isfinite(A).all():
        raise InvariantViolation("%s must be finite" % what)
    if symmetric:
        if not abs(A - A.T).max() <= tol.residual_tol:
            raise InvariantViolation("%s must be symmetric" % what)
        A = (A + A.T) / 2
    if invertible and not abs(np.linalg.det(A)) >= tol.rank_floor(len(A)):
        raise InvariantViolation("%s must be invertible" % what)
    return A


def det_branch_power(M: np.ndarray, power: float) -> complex:
    """det(M)^{power} on the canonical branch for Re M positive definite.

    Computed as the product of principal powers of the eigenvalues; all
    eigenvalues have positive real part on this domain, so the result is the
    unique continuous branch that is positive on real SPD matrices.
    """
    M = _numbers(M, "determinant branch needs a matrix of numbers", dtype=None, copy=None)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvariantViolation("determinant branch needs a square matrix; got %s" % (M.shape,))
    if not len(M):
        raise InvariantViolation("determinant branch needs a matrix over n >= 1; got n = 0")
    if not np.isfinite(M).all():
        raise StateDomainError("canonical determinant branch needs a finite matrix")
    lam = np.linalg.eigvals(M)
    if not lam.real.min() > 0:
        raise StateDomainError("canonical determinant branch needs Re(eigenvalues) > 0")
    return (abs(lam) ** power * np.exp(1j * power * np.angle(lam))).prod()


# ---------------------------------------------------------------------------
# polynomials


class _MonomialBasis:
    """The monomials x^gamma in n variables of total degree at most D.

    They are graded by degree and, within a degree, in lexicographically
    descending exponent order, so the basis of degree D is a prefix of the
    basis of degree D + 1.  A monomial of degree d >= 1 is x_j times its
    parent of degree d - 1, with j its first nonzero coordinate (``steps``
    holds these j for every monomial past 1, and ``levels`` holds, per
    degree, the slice bounds, the parents, their exponents transposed and
    the positions of parent - e_c).  The shifts S_c (multiplication by x_c,
    truncated at degree D) and the derivatives D_j act on coefficient
    vectors as gathers: (S_c v)_gamma is v at gamma - e_c (``down``), and
    (D_j v)_gamma is (gamma_j + 1) times v at gamma + e_j (``up``); the
    tables point one past the basis, at a zero pad, where there is no such
    monomial.  ``second`` holds D_j^2 as the factors gamma_j + 1 and
    gamma_j + 2 and the position of gamma + 2 e_j.  Every table is built
    once, with the basis, and read-only.
    """

    def __init__(self, n: int, D: int):
        exps = [(0,) * n]
        for d in range(1, D + 1):
            for combo in itertools.combinations_with_replacement(range(n), d):
                exps.append(tuple(combo.count(j) for j in range(n)))
        K = len(exps)
        self.n, self.D, self.size = n, D, K
        self.index = {e: k for k, e in enumerate(exps)}
        self.exps = np.array(exps, dtype=int)
        self.deg = self.exps.sum(axis=1)
        unit = np.eye(n, dtype=int)
        self.down, self.up = (np.array([[self.index.get(tuple(e + s * unit[c]), K)
                                         for e in self.exps] for c in range(n)], dtype=int)
                              for s in (-1, 1))
        ext = np.hstack([self.up, np.full((n, 1), K)])
        self.second = (self.exps.T + 1, self.exps.T + 2, np.take_along_axis(ext, self.up, 1))
        bounds = np.searchsorted(self.deg, np.arange(D + 2))
        self.levels, steps = [], [np.zeros(0, dtype=int)]
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            steps.append(np.argmax(self.exps[lo:hi] > 0, axis=1))
            parent = self.down[steps[-1], np.arange(lo, hi)]
            self.levels.append((lo, hi, parent, self.exps[parent].T, self.down[:, parent]))
        self.steps = np.concatenate(steps)
        for a in (self.exps, self.deg, self.down, self.up, *self.second, self.steps,
                  *(t for lv in self.levels for t in lv[2:])):  # shared
            a.setflags(write=False)

    def laplacian(self, v: np.ndarray) -> np.ndarray:
        """sum_j D_j^2 v for a coefficient vector v over this basis."""
        f1, f2, up2 = self.second
        return sum(f1 * (f2 * np.append(v, 0)[up2]))

    def images(self, G: np.ndarray, H: np.ndarray | None = None) -> np.ndarray:
        """The matrices whose column gamma is X^gamma 1, shape (..., K, K),
        for the commuting operators X_j = sum_c (G_jc S_c + H_jc D_c) on this
        basis, G and H (None: 0) of shape (..., n, n).  Each degree is one
        gathered step from the degree below: the column of x_j x^gamma' is
        X_j applied to the column of x^gamma', one gather of the parents'
        columns per operand; the terms are summed over c in order, slice by
        slice, so that the rounding does not depend on the batch shape."""
        K, down, up = self.size, self.down[:, :, None], self.up[:, :, None]
        img = np.zeros(G.shape[:-2] + (K + 1, K), dtype=complex)  # last row: the pad
        img[..., 0, 0] = 1.0
        # the coefficients G_jc and H_jc of every monomial's j, shape (..., n, 1, K - 1)
        Gj = _T(G[..., self.steps, :])[..., None, :]
        if H is not None:  # with the factors gamma_c + 1 of D_c
            Hj, up_factor = _T(H[..., self.steps, :])[..., None, :], self.second[0][:, :, None]
        for lo, hi, parent, _, _ in self.levels:
            terms = Gj[..., lo - 1:hi - 1] * img[..., down, parent]
            new = sum(terms[..., c, :, :] for c in range(self.n))
            if H is not None:
                terms = Hj[..., lo - 1:hi - 1] * up_factor * img[..., up, parent]
                new = new + sum(terms[..., c, :, :] for c in range(self.n))
            img[..., :K, lo:hi] = new
        return img[..., :K, :]


@functools.lru_cache(maxsize=None)
def _basis(n: int, D: int) -> _MonomialBasis:
    return _MonomialBasis(n, D)


@functools.lru_cache(maxsize=None)
def _pair_table(n: int, D1: int, D2: int) -> np.ndarray:
    """The position of x^(gamma + delta) in the basis of degree D1 + D2, for
    gamma over the basis of degree D1 (rows) and delta over that of D2."""
    index = _basis(n, D1 + D2).index
    t = np.array([[index[tuple(g + d)] for d in _basis(n, D2).exps]
                  for g in _basis(n, D1).exps], dtype=int)
    t.setflags(write=False)
    return t


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Multivariate polynomial with complex coefficients: the dense vector
    ``vec`` over the graded monomial basis ``basis`` of its arity and a degree
    bound, with no algebra; the generators substitute into it.
    ``Polynomial(n, {exponent: coeff})`` builds one from a mapping, and
    ``coeffs`` gives the nonzero entries back as one."""

    basis: _MonomialBasis
    vec: np.ndarray

    def __init__(self, n: int, coeffs: dict | None = None):
        n, terms = _integer(n, "arity n must be a non-negative integer, got %r", low=0), {}
        for k, v in (coeffs or {}).items():
            k = tuple(_integer(e, "exponents must be nonnegative integers, got %r", low=0)
                      for e in k)
            if len(k) != n:
                raise DimensionMismatch("exponent %r is not a multi-index of length %d" % (k, n))
            v = complex(_numbers(v, "coefficients must be numbers, got %r", v, dtype=complex, ndim=0))
            if v != 0:
                terms[k] = v
        basis = _basis(n, max(map(sum, terms), default=0))
        vec = np.zeros(basis.size, dtype=complex)
        for k, v in terms.items():
            vec[basis.index[k]] = v
        _set_fields(self, basis=basis, vec=vec)

    @classmethod
    def constant(cls, value, n: int) -> "Polynomial":
        return cls(n, {(0,) * n: value})

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients, keyed by exponent tuple."""
        return {tuple(int(e) for e in self.basis.exps[k]): complex(self.vec[k])
                for k in np.flatnonzero(self.vec)}

    def is_constant(self):
        return not np.any(self.vec[1:])

    @property
    def degree(self):
        return int(self.basis.deg[self.vec != 0].max(initial=0))

    def compose_linear(self, T: np.ndarray) -> "Polynomial":
        """p(T x): substitute each coordinate x_j by the linear form (T x)_j,
        that is p(X) 1 with the commuting multiplications X_j = sum_c T_jc S_c."""
        return _push(self, np.asarray(T))

    def __call__(self, x) -> complex:
        x = np.atleast_1d(_numbers(x, "a point must be numbers", dtype=None, copy=None))
        if x.shape != (self.n,):
            raise DimensionMismatch("a point of shape %s for a polynomial over n = %d"
                                    % (x.shape, self.n))
        return complex(np.prod(x ** self.basis.exps, axis=1) @ self.vec)


def _push(poly: Polynomial, G: np.ndarray, H: np.ndarray | None = None) -> Polynomial:
    """p(X) 1 for the X of ``_MonomialBasis.images``."""
    return _trusted(Polynomial, basis=poly.basis, vec=poly.basis.images(G, H) @ poly.vec)


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
        M = _matrix(M, "Gaussian matrix", tol, complex, symmetric=True)
        n = len(M)
        poly = Polynomial.constant(1.0, n) if poly is None else poly
        if poly.n != n:
            raise DimensionMismatch("polynomial arity does not match M")
        if not np.isfinite(poly.vec).all():
            raise InvariantViolation("polynomial factor must be finite")
        c, low = _scalar(c), np.linalg.eigvalsh(M.real)[0]
        if not low >= tol.rank_floor(n):
            raise StateDomainError("Re(M) must be positive definite; min eig %.3e" % low)
        _set_fields(self, c=c, M=M, poly=poly)

    @property
    def n(self):
        return len(self.M)

    def __call__(self, x) -> complex:
        x = np.atleast_1d(_numbers(x, "a point must be real numbers", copy=None))
        return self.c * self.poly(x) * np.exp(-0.5 * x @ self.M @ x)

    def scaled(self, a) -> "GaussianAmplitude":
        # only c changes: M and poly are this checked state's
        return _trusted(GaussianAmplitude, c=_scalar(self.c * a), M=self.M, poly=self.poly)


def _scalar(c) -> complex:
    """c as one finite complex number, else InvariantViolation."""
    return complex(_numbers(c, "state scalar c must be finite and a single number",
                            dtype=complex, ndim=0, finite=True))


def _branch(m) -> int:
    """A branch integer m mod 4, else InvariantViolation."""
    return _integer(m, "branch integer m must be an integer, got %r") % 4


def ground_state(n: int) -> GaussianAmplitude:
    """u0(x) = exp(-<x, x>/2), the level-0 ``hermite_state``."""
    n = _integer(n, "dimension n must be a positive integer, got %r", low=1)
    return _hermite((0,) * n)


def gaussian_integral(s: GaussianAmplitude) -> complex:
    """Closed form of Int s(x) dx over R^n."""
    Sigma = np.linalg.inv(s.M)
    mean = _gaussian_moments(Sigma, s.poly.basis) @ s.poly.vec
    return s.c * (2 * np.pi) ** (s.n / 2) * det_branch_power(s.M, -0.5) * mean


def _gaussian_moments(Sigma: np.ndarray, basis: _MonomialBasis) -> np.ndarray:
    """Centered Gaussian moments E[x^gamma] over a monomial basis, with
    (complex symmetric) covariance Sigma, one degree at a time by the
    Isserlis/Stein recursion E[x_i x^g] = sum_j Sigma_ij g_j E[x^(g - e_j)];
    the odd degrees stay zero."""
    mom = np.zeros(basis.size + 1, dtype=complex)  # last entry: the zero pad
    mom[0] = 1.0
    for lo, hi, _, parent_exps, parent_down in basis.levels[1::2]:
        mom[lo:hi] = (Sigma[basis.steps[lo - 1:hi - 1]].T * parent_exps
                      * mom[parent_down]).sum(axis=0)
    return mom[:-1]


def l2_inner(s1: GaussianAmplitude, s2: GaussianAmplitude) -> complex:
    """Closed form of the L2 inner product Int s1(x) conj(s2(x)) dx: the
    two coefficient vectors paired through the Gram matrix
    G[gamma, delta] = E[x^(gamma + delta)] of the Gaussian moments of
    M1 + conj(M2), gathered from the moments over the summed-degree basis."""
    if s1.n != s2.n:
        raise DimensionMismatch("states over different n")
    n, D1, D2 = s1.n, s1.poly.basis.D, s2.poly.basis.D
    M = s1.M + s2.M.conj()
    mom = _gaussian_moments(np.linalg.inv(M), _basis(n, D1 + D2))
    mean = s1.poly.vec @ mom[_pair_table(n, D1, D2)] @ s2.poly.vec.conj()
    return s1.c * np.conj(s2.c) * (2 * np.pi) ** (n / 2) * det_branch_power(M, -0.5) * mean


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
        _set_fields(self, c=_scalar(self.c))
        if self.c == 0:
            raise InvariantViolation("prefactor must be nonzero")

    def pair(self, s: GaussianAmplitude) -> complex:
        """Evaluate the functional on a Gaussian amplitude."""
        if self.kind == DELTA:
            return self.c * s(np.zeros(s.n))
        return self.c * gaussian_integral(s)


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class Dilate:
    """f -> |det A|^{1/2} i^m f(A^T x)."""

    A: np.ndarray
    m: int

    def __init__(self, A, m: int, tol: Tolerances = DEFAULT_TOLERANCES):
        _set_fields(self, A=_matrix(A, "dilation matrix", tol, invertible=True), m=_branch(m))


@dataclass(frozen=True)
class Chirp:
    """Multiplication by e^{-i <B x, x>/2}."""

    B: np.ndarray

    def __init__(self, B, tol: Tolerances = DEFAULT_TOLERANCES):
        _set_fields(self, B=_matrix(B, "chirp matrix", tol, symmetric=True))


@dataclass(frozen=True)
class JHat:
    """The fixed factor i^{-n/2} F."""


def _fourier_poly(poly: Polynomial, N: np.ndarray) -> Polynomial:
    """Polynomial push-through of the Fourier transform.

    F[x^gamma u_M] = det(M)^{-1/2} (i d/dx)^gamma u_N with N = M^{-1}; each
    derivative conjugated by u_N acts on polynomials as
    X_j = i (D_j - sum_c N_jc S_c), preserving degree, so the image is
    p(X) 1.  The X_j commute because N is symmetric.
    """
    return _push(poly, -1j * N, 1j * np.eye(poly.n))


def apply_generator(gen, s: GaussianAmplitude,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> GaussianAmplitude:
    """Apply one generator to a state; exact on (c, M, poly) data."""
    n = len(gen.A if isinstance(gen, Dilate) else gen.B if isinstance(gen, Chirp) else s.M)
    if n != s.n:
        raise DimensionMismatch("generator over n = %d applied to a state over n = %d" % (n, s.n))
    if isinstance(gen, Dilate):
        c = s.c * np.sqrt(abs(np.linalg.det(gen.A))) * quarter_turn(gen.m)
        return GaussianAmplitude(c, gen.A @ s.M @ gen.A.T, s.poly.compose_linear(gen.A.T), tol)
    if isinstance(gen, Chirp):
        # Re(M + iB) = Re M, checked with s; M + iB is exactly symmetric as M and B are
        return _trusted(GaussianAmplitude, c=s.c, M=s.M + 1j * gen.B, poly=s.poly)
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
    """Generating data (P, L, Q) of a free quadratic form plus branch integer
    m."""

    P: np.ndarray
    L: np.ndarray
    Q: np.ndarray
    m: int

    def __init__(self, P, L, Q, m: int, tol: Tolerances = DEFAULT_TOLERANCES):
        P, Q = (_matrix(X, "P, L and Q", tol, symmetric=True) for X in (P, Q))
        L = _matrix(L, "P, L and Q", tol, invertible=True)
        if not len(P) == len(L) == len(Q):
            raise DimensionMismatch("P, L and Q must be over one n")
        _set_fields(self, P=P, L=L, Q=Q, m=_branch(m))

    @property
    def n(self):
        return len(self.L)

    def with_branch(self, m: int) -> "QuadraticFourier":
        # only the branch changes; P, L and Q stay as checked under their tolerance
        return _trusted(QuadraticFourier, P=self.P, L=self.L, Q=self.Q, m=_branch(m))


def quad_fourier_from_symplectic(S: SymplecticMatrix, m: int,
                                 tol: Tolerances = DEFAULT_TOLERANCES) -> QuadraticFourier:
    """Generating data of a symplectic matrix with invertible upper-right
    block: (P, L, Q) = (D B^{-1}, B^{-1}, B^{-1} A)."""
    A, B, C, D = S.blocks
    if not abs(np.linalg.det(B)) >= tol.rank_floor(S.n):
        raise CaseError("B-block is singular: no free generating function; "
                        "compose with the fixed Fourier factor first")
    Bi = np.linalg.inv(B)
    P, L, Q = D @ Bi, Bi, Bi @ A
    if not np.maximum(np.max(np.abs(P - P.T)), np.max(np.abs(Q - Q.T))) <= 1e3 * tol.residual_tol:
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
    # qf holds P and Q exactly symmetric and L invertible: the generators'
    # checks would pass and their symmetrization keep every bit
    s = apply_generator(_trusted(Chirp, B=-qf.Q), s, tol)
    s = apply_generator(JHat(), s, tol)
    s = apply_generator(_trusted(Dilate, A=qf.L.T.copy(), m=qf.m), s, tol)
    return apply_generator(_trusted(Chirp, B=-qf.P), s, tol)


def adjoint_quad_fourier(qf: QuadraticFourier) -> QuadraticFourier:
    """Adjoint (= inverse) transform: data (-Q, -L^T, -P) with branch n - m."""
    # negation and transposition keep finiteness, symmetry and |det L|
    return _trusted(QuadraticFourier, P=-qf.Q, L=-qf.L.T, Q=-qf.P, m=(qf.n - qf.m) % 4)


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


def _times(S: np.ndarray, M: np.ndarray) -> np.ndarray:
    """S_k M for every matrix of a stack, as one 2-D product: numpy runs a
    broadcast (N, n, n) @ (n, n) matmul one matrix at a time."""
    return (S.reshape(-1, S.shape[-1]) @ M).reshape(S.shape)


def _closed_matrices(W: np.ndarray, M0: np.ndarray) -> np.ndarray:
    """The Gaussian matrix at every sample of a unitary path U, given
    W_k = U_k U_0^*, by the closed fractional-linear law: embed(W) for
    W = A + iB has blocks [[A, -B], [B, A]], so the state there has
    M_k = (A M_0 - i B)(A - i B M_0)^{-1}, taken by one solve for M_k^T and
    symmetrized."""
    A, B = W.real, W.imag
    Mt = np.linalg.solve(_T(A - 1j * _times(B, M0)), _T(_times(A, M0) - 1j * B))
    return (Mt + _T(Mt)) / 2


def _closed_law(W: np.ndarray, theta: np.ndarray, s0: GaussianAmplitude,
                tol: Tolerances):
    """Scalars and matrices of a state at the samples of a unitary path with
    W_k = U_k U_0^* and det-phases theta_k, the same with or without a
    polynomial factor.

    With W = A + iB, the factor X = A - i B M_0 of the fractional-linear law
    is conj(W) (I + Z C)(I + M_0)/2 for Z = W^T W and the Cayley image
    C = (I - M_0)(I + M_0)^{-1}, and ||C||_2 < 1 as Re M_0 > 0.  So every
    eigenvalue of I + Z C has a positive real part, for every unitary W, and
    the continuous branch of det(X)^{-1/2} from W_0 = I is
    c_k / c_0 = e^{i theta_k / 2} f(Z_k) / f(Z_0), with f(Z) the product of the
    principal roots of the eigenvalues of I + Z C, each of argument at most
    arcsin ||C||_2: where n arcsin ||C||_2 < pi by the margin, f is the
    principal root of one batched det, and eigvals give it elsewhere.

    M_0 = I gives C = 0, f = 1 and M_k = I.  Any other M_0 takes its M_k from
    ``_closed_matrices``, checked to have min eig(Re M) at least rank_floor;
    the check takes no eigvalsh where the Gershgorin bound
    min_i (2 Re M_ii - sum_j |Re M_ij|) <= min eig(Re M) clears the floor by
    the margin."""
    n, c = s0.n, s0.c * np.exp(0.5j * theta)
    I = np.eye(n)
    if np.array_equal(s0.M, I):
        return c, np.repeat(I[None].astype(complex), len(W), axis=0)
    C = np.linalg.solve(I + s0.M, I - s0.M)
    Y = I + _times(_T(W) @ W, C)
    if n * np.arcsin(min(np.linalg.norm(C, 2), 1.0)) < (1 - _SCREEN_MARGIN) * np.pi:
        f = np.linalg.det(Y) ** -0.5  # complex powers take the principal branch
    else:
        f = np.prod(np.linalg.eigvals(Y) ** -0.5, axis=1)
    M = _closed_matrices(W, s0.M)
    R, floor = M.real, tol.rank_floor(n)
    low = (2 * np.diagonal(R, axis1=1, axis2=2) - abs(R).sum(axis=2)).min(axis=1)
    open_ = np.flatnonzero(~(low >= (1 + _SCREEN_MARGIN) * floor))
    if open_.size:
        low[open_] = np.linalg.eigvalsh(R[open_])[:, 0]
    check_stack(low >= floor, StateDomainError,
                "Re(M) must be positive definite; min eig %.3e", low, entry="sample")
    return c * (f / f[0]), M


def _factor_vectors(W: np.ndarray, M: np.ndarray, poly: Polynomial) -> np.ndarray:
    """The coefficient vectors (S, K) of the polynomial factor of the lifted
    state at S samples with W_k = U_k U_0^* = A + iB and Gaussian matrices
    M_k.  By Heisenberg covariance the lift sends q(x) u_{M_0} to
    c_k q(A^T x + B^T xi) 1 u_{M_k}, where the momentum xi = -i(D - M_k S)
    acts on r u_{M_k} as a derivative of r: one substitution
    q -> q(G S + H D) 1 from the start, with G = A^T + i B^T M_k and
    H = -i B^T, formed for at most WORD_CHUNK_BYTES of samples at a time."""
    basis, A, Bt = poly.basis, _T(W.real), _T(W.imag)
    chunk = max(1, WORD_CHUNK_BYTES // (16 * basis.size ** 2))
    return np.concatenate([
        basis.images(A[lo:lo + chunk] + 1j * (Bt[lo:lo + chunk] @ M[lo:lo + chunk]),
                     -1j * Bt[lo:lo + chunk]) @ poly.vec
        for lo in range(0, len(W), chunk)])


def lift_frame_path_trace(Us: np.ndarray, s0: GaussianAmplitude,
                          tol: Tolerances = DEFAULT_TOLERANCES):
    """States of the continuous metaplectic lift at every sample of a path of
    unitaries Us, shape (N, n, n), starting at the identity, as the arrays
    (c, M, polys): scalars of shape (N,), matrices of shape (N, n, n) and
    one polynomial factor per sample.

    The lift follows the geodesic of U(n) between consecutive samples and
    is taken at the samples alone: the scalar and matrix in closed form
    from the det-phases of the path (see ``core._det_phase_steps`` and
    ``_closed_law``), a polynomial factor as one substitution from the
    start at each sample (see ``_factor_vectors``).  A step with an
    eigenvalue within rank_floor of -1 has no preferred geodesic and raises
    SamplingError.
    """
    c, M, W = _lift(Us, s0, tol)
    if s0.poly.is_constant():
        return c, M, [s0.poly] * len(c)
    return c, M, [_trusted(Polynomial, basis=s0.poly.basis, vec=v)
                  for v in _factor_vectors(W, M, s0.poly)]


def _lift(Us, s0: GaussianAmplitude, tol: Tolerances):
    """Scalars, matrices and W_k = U_k U_0^* at the samples of Us, checked
    to be a nonempty (N, n, n) stack over the state's n, unitary and starting
    at the identity."""
    Us = _numbers(Us, "expected a nonempty (N, n, n) stack of unitaries", dtype=complex,
                  copy=None)
    if Us.ndim != 3 or not len(Us) or Us.shape[1] != Us.shape[2]:
        raise InvariantViolation("expected a nonempty (N, n, n) stack of unitaries")
    n = Us.shape[-1]
    if s0.n != n:
        raise DimensionMismatch("state dimension does not match the path")
    resid = _unitarity_residuals(Us)
    check_stack(resid <= tol.residual_tol, InvariantViolation,
                "not unitary: residual %.3e", resid, entry="sample")
    if abs(Us[0] - np.eye(n)).max() > 100 * tol.residual_tol:
        raise InvariantViolation("path must start at the identity")
    W = _times(Us, Us[0].conj().T)
    steps = _det_phase_steps(Us, tol, "sample %d to %d", np.arange(len(Us)))[1]
    return (*_closed_law(W, np.concatenate([[0.0], np.cumsum(steps)]), s0, tol), W)


def lift_frame_path(symp_path: Sequence[SymplecticMatrix], s0: GaussianAmplitude,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> GaussianAmplitude:
    """Transport a Gaussian state along a unitary-image symplectic path
    starting at the identity, with the metaplectic branch tracked continuously
    along the geodesics of U(n) between samples: the endpoint of
    ``lift_frame_path_trace``.  Its polynomial factor is the one endpoint
    substitution of ``_factor_vectors``.
    """
    c, M, W = _lift(unitaries_from_symplectic(symp_path, tol), s0, tol)
    poly = s0.poly
    if not poly.is_constant():
        poly = _trusted(Polynomial, basis=poly.basis, vec=_factor_vectors(W[-1:], M[-1:], poly)[0])
    # the lift checked every state; its M are exactly symmetric
    return _trusted(GaussianAmplitude, c=complex(c[-1]), M=M[-1], poly=poly)


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
    m, resid = _nearest_fourth_root(lift_c / base)
    if not resid <= 100 * tol.phase_tol:
        raise ConditioningError(
            "lifted phase does not match any branch: residual %.3e" % resid)
    return qf0.with_branch(m)


def pin_branch_orthogonal(lift_c: complex,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Branch integer at an orthogonal-type endpoint, where the lifted
    ground-state phase is a fourth root of unity i^m."""
    return _orthogonal_pin(lift_c, _nearest_fourth_root(lift_c), tol)


def _orthogonal_pin(lift_c: complex, root, tol: Tolerances) -> int:
    """The m of pin_branch_orthogonal, given root = (m, |lift_c - i^m|) of
    the fourth root of unity nearest lift_c."""
    m, resid = root
    if not resid <= 100 * tol.phase_tol:
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
    A = _matrix(A, "endpoint word matrix", tol)
    if np.max(np.abs(A.T @ A - np.eye(len(A)))) > 100 * tol.residual_tol:
        raise CaseError("endpoint word is not orthogonal-type")
    return DistributionState(DELTA, quarter_turn(-_branch(m)))


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

    An integer level places H_l on the first coordinate; a multi-index of
    non-negative integers gives the product state with total level sum(l),
    its coefficient at x^gamma the product of those of x_j^gamma_j in H_{l_j}.
    One read-only state is shared by every call with the same levels.
    """
    n = _integer(n, "dimension n must be a positive integer, got %r", low=1)
    levels = (l,) + (0,) * (n - 1) if np.ndim(l) == 0 else tuple(l)
    if len(levels) != n:
        raise DimensionMismatch("multi-index length must equal n")
    return _hermite(tuple(_integer(v, "levels must be nonnegative integers, got %r", low=0)
                          for v in levels))


@functools.lru_cache(maxsize=None)
def _hermite(levels: tuple) -> GaussianAmplitude:
    supports = [[(d, c) for d, c in enumerate(_hermite_coeffs(k)) if c != 0.0] for k in levels]
    poly = Polynomial(len(levels), {tuple(d for d, _ in terms): math.prod(c for _, c in terms)
                                    for terms in itertools.product(*supports)})
    return GaussianAmplitude(1.0, np.eye(len(levels)), poly)


def oscillator_level(s: GaussianAmplitude, tol: Tolerances = DEFAULT_TOLERANCES):
    """Level l if s is an eigenstate of the harmonic oscillator Hamiltonian
    -(1/2) sum_j (x_j^2 - d^2/dx_j^2) with eigenvalue -(l + n/2), else None.

    Acts symbolically: for s = P u_0 the Hamiltonian sends P to
    -(1/2) sum_j (-d_j^2 P + 2 x_j d_j P + P).
    """
    if abs(s.M - np.eye(s.n)).max() > tol.residual_tol:
        return None
    b, p = s.poly.basis, s.poly.vec
    # x_j d_j summed over j is the degree; out must equal 2 l * poly
    out = 2.0 * b.deg * p - b.laplacian(p)
    k0 = int(np.argmax(np.abs(p)))
    v0 = p[k0]
    if v0 == 0:
        return None
    cand = out[k0] / (2.0 * v0)
    if abs(cand - round(cand.real)) > tol.phase_tol:
        return None
    l = int(round(cand.real))
    if (abs(out - 2.0 * l * p) > 1e-8 * abs(v0)).any():
        return None
    return l
