"""Metaplectic calculus checks: generator actions, quadratic Fourier
transforms, branch tracking, the index cocycle, and the dual action.

The one-dimensional quadrature oracle below applies the oscillatory kernel

    (2 pi i)^{-1/2} i^m |L|^{1/2} Int e^{i(P x^2/2 - L x y + Q y^2/2)} f(y) dy

directly on a grid, independently of the generator-word implementation.
"""

import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lift_oracle import bisect_geodesics, reference_lift
from maslov import metaplectic
from maslov.core import (_SCREEN_MARGIN, DEFAULT_TOLERANCES, SymplecticMatrix,
                         embed_unitary, l0_frame, random_unitary,
                         unitaries_from_symplectic)
from maslov.errors import (CaseError, ConditioningError, DimensionMismatch,
                           InvariantViolation, StateDomainError)
from maslov.index import mu_hat_on_cover
from maslov.metaplectic import (CONST, DELTA, Chirp, Dilate, DistributionState,
                                GaussianAmplitude, JHat, Polynomial,
                                QuadraticFourier, _fourier_poly,
                                adjoint_quad_fourier, apply_generator,
                                apply_quad_fourier, apply_to_delta,
                                apply_word_to_delta, det_branch_power,
                                endpoint_positive_factor, gaussian_integral,
                                ground_state, hermite_state, l2_inner,
                                l2_norm_squared, lift_frame_path,
                                lift_frame_path_trace, mu_hat,
                                mu_hat_composed, oscillator_level,
                                pin_branch_orthogonal, pin_branch_transverse,
                                quad_fourier_from_symplectic, quarter_turn,
                                root_i_power, symplectic_from_quad_fourier)

GRID = np.linspace(-14.0, 14.0, 4001)


def sample(state):
    return np.array([state([x]) for x in GRID])


def kernel_apply_1d(qf, f_values):
    """Quadrature of the quadratic Fourier integral operator at n = 1."""
    P, L, Q, m = qf.P[0, 0], qf.L[0, 0], qf.Q[0, 0], qf.m
    dx = GRID[1] - GRID[0]
    pref = (2 * np.pi) ** -0.5 * np.exp(-0.25j * np.pi) * 1j ** m * np.sqrt(abs(L))
    out = np.empty_like(f_values, dtype=complex)
    inner = np.exp(0.5j * Q * GRID ** 2) * f_values
    for i, x in enumerate(GRID):
        out[i] = np.sum(np.exp(1j * (0.5 * P * x ** 2 - L * x * GRID)) * inner) * dx
    return pref * out


def grid_norm(values):
    return np.sqrt(np.sum(np.abs(values) ** 2) * (GRID[1] - GRID[0]))


def rotation(t):
    return SymplecticMatrix(np.array([[np.cos(t), -np.sin(t)],
                                      [np.sin(t), np.cos(t)]]))


def schur_sqrt(V):
    """Principal square root of a unitary matrix by a complex Schur form,
    independent of the library's geodesic midpoints."""
    T, Z = scipy.linalg.schur(V, output="complex")
    return Z @ np.diag(np.exp(0.5j * np.angle(np.diagonal(T)))) @ Z.conj().T


def random_unitary_path(n, rng, k=40, scale=None):
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = (X - X.conj().T) / 2
    scale = scale or rng.uniform(0.5, 5.0)
    return [SymplecticMatrix(embed_unitary(
        np.asarray(scipy.linalg.expm(scale * t * H))).entries)
        for t in np.linspace(0.0, 1.0, k)]


def random_state(n, rng, max_level=2):
    levels = tuple(int(rng.integers(0, max_level + 1)) for _ in range(n))
    s = hermite_state(levels, n)
    B = rng.normal(size=(n, n))
    s = apply_generator(Chirp((B + B.T) / 2), s)
    return s.scaled(np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.uniform(0.5, 2.0))


# ---------------------------------------------------------------------------
# generators


def test_jhat_on_ground_state():
    for n in (1, 2, 3):
        out = apply_generator(JHat(), ground_state(n))
        assert abs(out.c - root_i_power(-n)) < 1e-14
        assert np.allclose(out.M, np.eye(n))


def test_dilate_reflection_branch():
    out = apply_generator(Dilate(np.array([[-1.0]]), 1), ground_state(1))
    assert abs(out.c - 1j) < 1e-14
    assert np.allclose(out.M, np.eye(1))


def test_chirp_cancellation(rng):
    B = rng.normal(size=(2, 2))
    B = (B + B.T) / 2
    s = random_state(2, rng)
    back = apply_generator(Chirp(-B), apply_generator(Chirp(B), s))
    assert np.max(np.abs(back.M - s.M)) < 1e-12
    assert abs(back.c - s.c) < 1e-12


def test_jhat_hermite_eigenfunctions():
    # F h_k = (-i)^k h_k, so JHat h_k = i^{-1/2} (-i)^k h_k
    for k in range(4):
        h = hermite_state(k, 1)
        out = apply_generator(JHat(), h)
        expected = root_i_power(-1) * (-1j) ** k
        xs = np.array([0.3, 1.1, -0.7])
        for x in xs:
            assert abs(out([x]) - expected * h([x])) < 1e-10


def test_jhat_against_quadrature():
    s = apply_generator(Chirp(np.array([[0.7]])),
                        hermite_state(2, 1)).scaled(0.8 - 0.3j)
    out = apply_generator(JHat(), s)
    # JHat = quadratic Fourier with data (0, 1, 0) at branch 0
    ref = kernel_apply_1d(QuadraticFourier([[0.0]], [[1.0]], [[0.0]], 0), sample(s))
    assert np.max(np.abs(sample(out) - ref)) < 1e-8


def test_generator_unitarity(rng):
    for _ in range(20):
        n = int(rng.integers(1, 3))
        s = random_state(n, rng)
        norm = l2_norm_squared(s)
        for gen in (JHat(), Chirp(rng.normal() * np.eye(n)),
                    Dilate(scipy.linalg.expm(rng.normal(size=(n, n)) * 0.4), 2)):
            out = apply_generator(gen, s)
            assert abs(l2_norm_squared(out) - norm) < 1e-9 * max(1.0, norm)


def test_closed_form_norm_against_grid():
    s = random_state(1, np.random.default_rng(5))
    assert abs(np.sqrt(l2_norm_squared(s)) - grid_norm(sample(s))) < 1e-7


def test_state_validation():
    with pytest.raises(StateDomainError):
        GaussianAmplitude(1.0, np.array([[-1.0]]))
    with pytest.raises(InvariantViolation):
        GaussianAmplitude(1.0, np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_metaplectic_types_reject_nan():
    nan, inf, I = np.nan, np.inf, np.eye(1)
    for c, M, poly in ((1.0, [[nan]], None), (nan, I, None), (1.0, [[inf]], None),
                       (1.0, I, Polynomial(1, {(2,): nan})),
                       (1.0, I, Polynomial(1, {(1,): inf}))):
        with pytest.raises(InvariantViolation):
            GaussianAmplitude(c, M, poly)
    for make in (lambda: Chirp([[nan]]), lambda: Chirp([[inf]]),
                 lambda: Dilate([[nan]], 0), lambda: Dilate([[inf]], 0),
                 lambda: QuadraticFourier([[nan]], I, I, 0),
                 lambda: QuadraticFourier(I, [[nan]], I, 0),
                 lambda: QuadraticFourier(I, [[inf]], I, 0),
                 lambda: QuadraticFourier(I, I, [[inf]], 0)):
        with pytest.raises(InvariantViolation):
            make()
    with pytest.raises(StateDomainError):
        det_branch_power(np.array([[nan]]), -0.5)


I2 = np.eye(2)


@pytest.mark.parametrize("make, error, message", [
    (lambda: GaussianAmplitude(1, np.ones((2, 3))), InvariantViolation,
     r"^Gaussian matrix must be square, shape \(\.\.\., n, n\); got \(2, 3\)$"),
    (lambda: GaussianAmplitude(1, np.ones(3)), InvariantViolation,
     r"^Gaussian matrix must be square"),
    (lambda: GaussianAmplitude(np.ones(2), np.ones((2, 1, 3))), InvariantViolation,
     r"^Gaussian matrix must be square"),
    (lambda: Dilate(np.ones((2, 3)), 0), InvariantViolation, r"^dilation matrix must be square"),
    (lambda: Chirp(np.ones((2, 3))), InvariantViolation, r"^chirp matrix must be square"),
    (lambda: QuadraticFourier(I2, np.ones((2, 3)), I2, 0), InvariantViolation,
     r"^P, L and Q must be square"),
    (lambda: QuadraticFourier(I2, np.eye(3), I2, 0), DimensionMismatch,
     r"^P, L and Q must be over one n$"),
    (lambda: apply_generator(Dilate(np.eye(3), 0), ground_state(2)), DimensionMismatch,
     r"^generator over n = 3 applied to a state over n = 2$"),
    (lambda: apply_generator(Chirp(np.eye(1)), ground_state(2)), DimensionMismatch,
     r"^generator over n = 1 applied to a state over n = 2$"),
    (lambda: apply_generator(Chirp(np.stack([I2] * 3)), ground_state(3)), DimensionMismatch,
     r"^generator over n = 2 applied to a state over n = 3$"),
])
def test_mis_shaped_gaussian_data_raise_typed_errors(make, error, message):
    # the parent raised ValueError, AxisError or LinAlgError here, or
    # broadcast a 1 x 1 chirp over an n = 2 state
    with pytest.raises(error, match=message):
        make()


def test_polynomial_surface():
    p = Polynomial(2, {(2, 0): 1.5, (0, 1): -1j, (1, 1): 0})
    assert p.coeffs == {(2, 0): 1.5 + 0j, (0, 1): -1j}
    assert p.degree == 2 and not p.is_constant()
    assert Polynomial.constant(3.0, 2).is_constant() and Polynomial(2).degree == 0
    assert abs(p([0.5, 2.0]) - (0.375 - 2j)) < 1e-15
    assert (p * Polynomial.coordinate(1, 2)).coeffs == {(2, 1): 1.5 + 0j, (0, 2): -1j}
    assert p.diff(0).coeffs == {(1, 0): 3.0 + 0j}
    assert (p + p.scale(-1.0)).coeffs == {}
    with pytest.raises(DimensionMismatch):
        Polynomial(2, {(1,): 1.0})
    with pytest.raises(DimensionMismatch):
        p + Polynomial.constant(1.0, 3)


# ---------------------------------------------------------------------------
# polynomial push-through: dense operators against dict arithmetic


def _dict_add_to(out, k, v):
    out[k] = out.get(k, 0) + v


def _dict_times_linear(term, row):
    """term * sum_c row_c x_c, on exponent-tuple dicts."""
    out = {}
    for k, v in term.items():
        for c, r in enumerate(row):
            if r != 0:
                _dict_add_to(out, k[:c] + (k[c] + 1,) + k[c + 1:], r * v)
    return out


def dict_fourier_poly(coeffs, N, n):
    """Reference push-through of the Fourier transform in dict arithmetic:
    each x^gamma becomes prod_j (i (d_j - (N x)_j))^{gamma_j} applied to 1,
    one factor at a time."""
    out = {}
    for gamma, a in coeffs.items():
        term = {(0,) * n: 1.0 + 0j}
        for j, e in enumerate(gamma):
            for _ in range(e):
                new = _dict_times_linear(term, -1j * N[j])
                for k, v in term.items():
                    if k[j]:
                        _dict_add_to(new, k[:j] + (k[j] - 1,) + k[j + 1:], 1j * k[j] * v)
                term = new
        for k, v in term.items():
            _dict_add_to(out, k, a * v)
    return out


def dict_compose_linear(coeffs, T, n):
    """Reference p(T x) in dict arithmetic: each x_j of each monomial
    replaced by the linear form (T x)_j, one factor at a time."""
    out = {}
    for gamma, a in coeffs.items():
        term = {(0,) * n: complex(a)}
        for j, e in enumerate(gamma):
            for _ in range(e):
                term = _dict_times_linear(term, T[j])
        for k, v in term.items():
            _dict_add_to(out, k, v)
    return out


def coeff_drift(got, want):
    """max |got - want| over exponents, relative to the largest |want|."""
    keys = set(got) | set(want)
    scale = max((abs(v) for v in want.values()), default=0.0) or 1.0
    return max((abs(got.get(k, 0) - want.get(k, 0)) for k in keys), default=0.0) / scale


DIMS = st.integers(1, 4)
UNIT = st.floats(-1.0, 1.0)


@st.composite
def polynomials(draw, n, max_degree=4):
    """Up to eight monomials of degree <= max_degree with complex
    coefficients of modulus at most 2*sqrt(2), their parts never subnormal:
    a vector of subnormal coefficients has no relative accuracy to compare."""
    part = st.floats(-2.0, 2.0, allow_subnormal=False)
    terms = draw(st.lists(st.tuples(st.lists(st.integers(0, n - 1), max_size=max_degree),
                                    part, part),
                          min_size=1, max_size=8))
    coeffs = {}
    for idx, re, im in terms:
        coeffs[tuple(idx.count(j) for j in range(n))] = complex(re, im)
    return Polynomial(n, coeffs)


def square(n, elements=UNIT):
    return arrays(np.float64, (n, n), elements=elements)


@st.composite
def gaussian_matrices(draw, n):
    """Complex symmetric A A^T + I/2 + i (B + B^T)/2, so Re >= I/2."""
    A, B = draw(square(n)), draw(square(n))
    return A @ A.T + 0.5 * np.eye(n) + 0.5j * (B + B.T)


@given(st.data())
def test_push_through_matches_dict_reference(data):
    n = data.draw(DIMS)
    p = data.draw(polynomials(n))
    N = data.draw(gaussian_matrices(n))
    assert coeff_drift(_fourier_poly(p, N).coeffs, dict_fourier_poly(p.coeffs, N, n)) < 1e-12
    T = data.draw(square(n, st.floats(-2.0, 2.0)))
    assert coeff_drift(p.compose_linear(T).coeffs, dict_compose_linear(p.coeffs, T, n)) < 1e-12


@given(st.data())
def test_jhat_twice_is_reflection(data):
    # JHat^2 = i^{-n} F^2 and F^2 s(x) = s(-x)
    n = data.draw(DIMS)
    p = data.draw(polynomials(n))
    M = data.draw(gaussian_matrices(n))
    s = GaussianAmplitude(0.8 - 0.6j, M, p)
    out = apply_generator(JHat(), apply_generator(JHat(), s))
    assert np.max(np.abs(out.M - M)) < 1e-12 * np.max(np.abs(M))
    reflected = {k: root_i_power(-2 * n) * s.c * (-1) ** sum(k) * v for k, v in p.coeffs.items()}
    assert coeff_drift({k: out.c * v for k, v in out.poly.coeffs.items()}, reflected) < 1e-9


@given(st.data())
def test_compose_linear_is_a_right_action(data):
    # (p o A) o B = p o (A B) for the substitution p -> p(T x)
    n = data.draw(DIMS)
    p = data.draw(polynomials(n))
    A, B = data.draw(square(n)), data.draw(square(n))
    got = p.compose_linear(A).compose_linear(B).coeffs
    want = p.compose_linear(A @ B).coeffs
    norm = max(1.0, np.max(np.sum(np.abs(A), axis=1)) * np.max(np.sum(np.abs(B), axis=1)))
    scale = max((abs(v) for v in p.coeffs.values()), default=0.0) * norm ** p.degree
    assert max((abs(got.get(k, 0) - want.get(k, 0)) for k in set(got) | set(want)),
               default=0.0) <= 1e-12 * scale


@given(st.data())
def test_generators_preserve_norm(data):
    n = data.draw(DIMS)
    s = GaussianAmplitude(1.0, data.draw(gaussian_matrices(n)), data.draw(polynomials(n)))
    norm = l2_norm_squared(s)
    B = data.draw(square(n))
    A = np.eye(n) + 0.5 * data.draw(square(n))
    if abs(np.linalg.det(A)) < 0.1:
        A = np.eye(n) + 0.1 * A
    for gen in (Chirp(B + B.T), Dilate(A, data.draw(st.integers(0, 3))), JHat()):
        assert abs(l2_norm_squared(apply_generator(gen, s)) - norm) <= 1e-9 * norm


def dict_product(p, q, n):
    """Reference p q in dict arithmetic."""
    out = {}
    for g, a in p.items():
        for d, b in q.items():
            _dict_add_to(out, tuple(x + y for x, y in zip(g, d)), a * b)
    return out


@given(st.data())
def test_l2_inner_matches_product_route(data):
    # the Gram pairing against the integral of the product state
    n = data.draw(DIMS)
    s1 = GaussianAmplitude(0.9 - 0.4j, data.draw(gaussian_matrices(n)), data.draw(polynomials(n)))
    s2 = GaussianAmplitude(-0.3 + 1.2j, data.draw(gaussian_matrices(n)),
                           data.draw(polynomials(n)))
    conj2 = Polynomial._dense(s2.poly.basis, s2.poly.vec.conj())
    prod = Polynomial(n, dict_product(s1.poly.coeffs, conj2.coeffs, n))
    want = gaussian_integral(GaussianAmplitude(s1.c * np.conj(s2.c), s1.M + s2.M.conj(), prod))
    scale = norm_without_underflow(s1) * norm_without_underflow(s2)  # bounds |<s1, s2>|
    assert abs(l2_inner(s1, s2) - want) <= 1e-12 * scale


def norm_without_underflow(s):
    """The L2 norm of s as that of s with its coefficients divided by the
    largest modulus a, times a: the squared norm of a state with tiny
    coefficients underflows to 0."""
    a = np.max(np.abs(s.poly.vec))
    if a == 0:
        return 0.0
    unit = GaussianAmplitude(s.c, s.M, Polynomial._dense(s.poly.basis, s.poly.vec / a))
    return np.sqrt(l2_norm_squared(unit)) * a


def test_stacked_generators_act_entrywise(rng):
    # a stack of generators on a stack of states equals each generator on
    # its own state
    n, S = 2, 3
    basis = hermite_state(3, n).poly.basis
    vecs = rng.normal(size=(S, basis.size)) + 1j * rng.normal(size=(S, basis.size))
    cs = 0.5 + np.arange(S) - 0.3j
    Ms = np.array([(1.0 + k) * np.eye(n) + 0.2j * k for k in range(S)])
    stack = GaussianAmplitude(cs, Ms, Polynomial._dense(basis, vecs))
    B = rng.normal(size=(S, n, n))
    B = B + np.swapaxes(B, 1, 2)
    A = np.eye(n) + 0.3 * rng.normal(size=(S, n, n))
    for gen, singles in ((JHat(), [JHat()] * S), (Chirp(B), [Chirp(b) for b in B]),
                         (Dilate(A, 3), [Dilate(a, 3) for a in A])):
        out = apply_generator(gen, stack)
        for k, single in enumerate(singles):
            want = apply_generator(single, GaussianAmplitude(
                cs[k], Ms[k], Polynomial._dense(basis, vecs[k])))
            assert abs(out.c[k] - want.c) <= 1e-14 * abs(want.c)
            assert np.max(np.abs(out.M[k] - want.M)) <= 1e-14 * np.max(np.abs(want.M))
            assert np.max(np.abs(out.poly.vec[k] - want.poly.vec)) \
                <= 1e-13 * np.max(np.abs(want.poly.vec))


def test_stacks_name_their_bad_entry():
    I = np.eye(2)
    B = np.stack([I] * 4)
    B[2, 0, 1] = 0.5
    with pytest.raises(InvariantViolation, match="symmetric at stack entry 2$"):
        Chirp(B)
    A = np.stack([I] * 4)
    A[1] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(InvariantViolation, match="invertible at stack entry 1$"):
        Dilate(A, 0)
    M = np.stack([I] * 4).astype(complex)
    M[3] = np.diag([1.0, -0.5])
    with pytest.raises(StateDomainError, match="min eig -5.000e-01 at stack entry 3$"):
        GaussianAmplitude(np.ones(4), M)


# ---------------------------------------------------------------------------
# quadratic Fourier transforms


def test_tuple_of_unitary_image(rng):
    # for [[A, -B], [B, A]] the data is (-A B^{-1}, -B^{-1}, -B^{-1} A)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        U = random_unitary(n, rng).entries
        A, B = U.real, U.imag
        if abs(np.linalg.det(B)) < 1e-6:
            continue
        S = embed_unitary(U)
        qf = quad_fourier_from_symplectic(S, 0)
        Bi = np.linalg.inv(B)
        assert np.max(np.abs(qf.P + A @ Bi)) < 1e-9
        assert np.max(np.abs(qf.L + Bi)) < 1e-9
        assert np.max(np.abs(qf.Q + Bi @ A)) < 1e-9


def test_tuple_of_sigma_form():
    S = SymplecticMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    qf = quad_fourier_from_symplectic(S, 1)
    assert np.allclose(qf.L, [[-1.0]])
    assert np.allclose(qf.P, 0) and np.allclose(qf.Q, 0)
    back = symplectic_from_quad_fourier(qf)
    assert np.max(np.abs(back.entries - S.entries)) < 1e-12


def test_tuple_rejects_singular_block():
    S = SymplecticMatrix(np.array([[1.0, 0.0], [0.7, 1.0]]))
    with pytest.raises(CaseError):
        quad_fourier_from_symplectic(S, 0)


def test_round_trip_random(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        P = rng.normal(size=(n, n))
        Q = rng.normal(size=(n, n))
        L = rng.normal(size=(n, n)) + 3 * np.eye(n)
        qf = QuadraticFourier((P + P.T) / 2, L, (Q + Q.T) / 2, int(rng.integers(0, 4)))
        S = symplectic_from_quad_fourier(qf)
        qf2 = quad_fourier_from_symplectic(S, qf.m)
        assert np.max(np.abs(qf2.P - qf.P)) < 1e-8
        assert np.max(np.abs(qf2.L - qf.L)) < 1e-8
        assert np.max(np.abs(qf2.Q - qf.Q)) < 1e-8


def test_apply_orthogonal_pair_phase(rng):
    # word(0, A^T, 0; m) o word(0, -I, 0; n) is the scalar i^m on the ground state
    for n in (1, 2):
        th = 0.6
        A = np.eye(n)
        if n == 2:
            A = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        for m in range(4):
            w1 = QuadraticFourier(np.zeros((n, n)), A.T, np.zeros((n, n)), m)
            w2 = QuadraticFourier(np.zeros((n, n)), -np.eye(n), np.zeros((n, n)), n)
            out = apply_quad_fourier(w1, apply_quad_fourier(w2, ground_state(n)))
            assert abs(out.c - quarter_turn(m)) < 1e-12
            assert np.allclose(out.M, np.eye(n))


def test_apply_against_quadrature():
    t = 1.1
    qf = quad_fourier_from_symplectic(rotation(t), 1)
    for s in (ground_state(1).scaled(0.9 + 0.2j), hermite_state(2, 1)):
        out = apply_quad_fourier(qf, s)
        ref = kernel_apply_1d(qf, sample(s))
        assert np.max(np.abs(sample(out) - ref)) < 1e-7


def test_apply_squared_consistent_with_matrix_square():
    # applying the word twice agrees with the word of the squared matrix
    t = 0.9
    qf = quad_fourier_from_symplectic(rotation(t), 1)
    twice = apply_quad_fourier(qf, apply_quad_fourier(qf, ground_state(1)))
    S2 = SymplecticMatrix(rotation(t).entries @ rotation(t).entries)
    qf2 = pin_branch_transverse(S2, twice.c)
    direct = apply_quad_fourier(qf2, ground_state(1))
    assert abs(direct.c - twice.c) < 1e-10
    assert np.max(np.abs(direct.M - twice.M)) < 1e-10


def test_quad_fourier_unitarity(rng):
    for _ in range(15):
        n = int(rng.integers(1, 3))
        path = random_unitary_path(n, rng, k=3)
        S = path[-1]
        if abs(np.linalg.det(S.blocks[1])) < 1e-3:
            continue
        qf = quad_fourier_from_symplectic(S, int(rng.integers(0, 4)))
        s = random_state(n, rng)
        assert abs(l2_norm_squared(apply_quad_fourier(qf, s)) - l2_norm_squared(s)) \
            < 1e-9 * max(1.0, l2_norm_squared(s))


# ---------------------------------------------------------------------------
# the index and its cocycle


def test_mu_hat_values():
    assert mu_hat(QuadraticFourier([[0.0]], [[1.0]], [[0.0]], 0)) == 7
    assert mu_hat(QuadraticFourier(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), 1)) == 0


def test_mu_hat_jhat_word_consistency():
    # JHat itself is the (0, 1, 0) word at branch 0; composing two of them
    # through the cocycle matches the direct index of the composite word
    j = QuadraticFourier([[0.0]], [[1.0]], [[0.0]], 0)
    assert mu_hat_composed(j, j) == (7 + 7 + 0) % 8
    # composite J^2 = lift of -I; factor it differently and compare
    s = apply_quad_fourier(j, apply_quad_fourier(j, ground_state(1)))
    alt2 = QuadraticFourier([[0.0]], [[-1.0]], [[0.0]], 1)  # sigma-type factor
    base = apply_quad_fourier(alt2, apply_quad_fourier(alt2, ground_state(1)))
    # pick branches so both composites act identically on the ground state
    for m in range(4):
        trial = alt2.with_branch(m)
        out = apply_quad_fourier(trial, apply_quad_fourier(alt2, ground_state(1)))
        if abs(out.c - s.c) < 1e-10:
            assert mu_hat_composed(trial, alt2) == mu_hat_composed(j, j)
            break
    else:
        pytest.fail("no branch reproduced the composite")


def test_mu_hat_composed_zero_signature():
    q1 = QuadraticFourier([[0.3]], [[2.0]], [[0.5]], 1)
    q2 = QuadraticFourier([[-0.5]], [[1.0]], [[0.9]], 2)  # P2 + Q1 = 0
    assert mu_hat_composed(q1, q2) == (mu_hat(q1) + mu_hat(q2)) % 8


def test_mu_hat_metalinear_pair():
    # the orthogonal-endpoint pair W = (0, A^T, 0), W' = (0, -I, 0) with
    # branch n on the right factor: total index 2m mod 8
    for n in (1, 2):
        A = np.eye(n)
        for m in range(4):
            w1 = QuadraticFourier(np.zeros((n, n)), A.T, np.zeros((n, n)), m)
            w2 = QuadraticFourier(np.zeros((n, n)), -np.eye(n), np.zeros((n, n)), n)
            assert mu_hat_composed(w1, w2) == (2 * m) % 8


def _pin_pair_to_target(S1, qf2, target_c, n):
    """Branch of tuple(S1) making word(S1) o word(qf2) act as target on u0."""
    qf1 = quad_fourier_from_symplectic(S1, 0)
    out = apply_quad_fourier(qf1, apply_quad_fourier(qf2, ground_state(n)))
    ratio = target_c / out.c
    m = int(round(2 * np.angle(ratio) / np.pi)) % 4
    assert abs(ratio - quarter_turn(m)) < 1e-8
    return qf1.with_branch(m)


def test_cocycle_well_defined_random(rng):
    # two factorizations of the same operator give the same composed index
    done = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        path = random_unitary_path(n, rng, k=30)
        S = path[-1]
        if abs(np.linalg.det(S.blocks[1])) < 1e-2:
            continue
        target = lift_frame_path(path, ground_state(n))
        factorizations = []
        tries = 0
        while len(factorizations) < 2 and tries < 40:
            tries += 1
            P = rng.normal(size=(n, n))
            Q = rng.normal(size=(n, n))
            L = rng.normal(size=(n, n)) + 3 * np.eye(n)
            qf2 = QuadraticFourier((P + P.T) / 2, L, (Q + Q.T) / 2,
                                   int(rng.integers(0, 4)))
            S2 = symplectic_from_quad_fourier(qf2)
            S1 = SymplecticMatrix(S.entries @ S2.inverse().entries)
            if abs(np.linalg.det(S1.blocks[1])) < 1e-2:
                continue
            qf1 = _pin_pair_to_target(S1, qf2, target.c, n)
            factorizations.append((qf1, qf2))
        if len(factorizations) < 2:
            continue
        vals = {mu_hat_composed(a, b) for a, b in factorizations}
        assert len(vals) == 1
        done += 1


# ---------------------------------------------------------------------------
# path lifting


def test_lift_constant_path():
    s = random_state(2, np.random.default_rng(0))
    path = [SymplecticMatrix(np.eye(4))] * 4
    out = lift_frame_path(path, s)
    assert abs(out.c - s.c) < 1e-12
    assert np.max(np.abs(out.M - s.M)) < 1e-12


def test_lift_rotation_loop_ground_state():
    path = [rotation(t) for t in np.linspace(0, 2 * np.pi, 240)]
    out = lift_frame_path(path, ground_state(1))
    assert abs(out.c + 1.0) < 1e-9
    assert np.max(np.abs(out.M - np.eye(1))) < 1e-9
    # index route: the endpoint phase is i^m with m = mu_CLM = 2
    m = pin_branch_orthogonal(out.c)
    assert m == 2


def test_branch_pins_reject_a_nan_phase_with_a_typed_error():
    from maslov.geometry import fourth_root_label
    nan = complex("nan")
    with pytest.raises(ConditioningError):
        pin_branch_orthogonal(nan)
    with pytest.raises(ConditioningError):
        pin_branch_transverse(rotation(1.0), nan)
    label, resid = fourth_root_label(nan)
    assert label == "none" and np.isnan(resid)


def test_lift_orthogonal_endpoint_phases(rng):
    # closed unitary loops land on fourth roots of unity
    for loop_scale in (1.0, 2.0):
        path = [rotation(t) for t in np.linspace(0, 2 * np.pi * loop_scale, int(300 * loop_scale))]
        out = lift_frame_path(path, ground_state(1))
        assert min(abs(out.c - r) for r in (1, 1j, -1, -1j)) < 1e-9


def test_lift_rejects_non_unitary_sample_and_names_it():
    path = [rotation(t) for t in np.linspace(0, 1.0, 10)]
    path[6] = SymplecticMatrix(np.diag([2.0, 0.5]))  # symplectic, not unitary
    with pytest.raises(InvariantViolation, match="at sample 6$"):
        lift_frame_path(path, ground_state(1))


def test_lift_branch_stability_under_doubling(rng):
    for _ in range(20):
        n = int(rng.integers(1, 3))
        base = random_unitary_path(n, rng, k=30)
        out1 = lift_frame_path(base, ground_state(n))
        # same path with geodesic midpoints inserted (doubled density)
        mid = []
        for a, b in zip(base[:-1], base[1:]):
            mid.append(a)
            Ua, Ub = unitaries_from_symplectic([a, b])
            Um = schur_sqrt(Ub @ Ua.conj().T) @ Ua
            mid.append(SymplecticMatrix(embed_unitary(Um).entries))
        mid.append(base[-1])
        out2 = lift_frame_path(mid, ground_state(n))
        assert abs(out1.c - out2.c) < 1e-6
        assert np.max(np.abs(out1.M - out2.M)) < 1e-8


def test_lift_factorization_consistency(rng):
    # lifted phase matches a quadratic-Fourier branch, and 2m - n agrees with
    # the cover route mod 8
    done = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        path = random_unitary_path(n, rng, k=50)
        S = path[-1]
        if abs(np.linalg.det(S.blocks[1])) < 1e-2:
            continue
        lift = lift_frame_path(path, ground_state(n))
        qf = pin_branch_transverse(S, lift.c)
        assert mu_hat(qf) == mu_hat_on_cover(path, l0_frame(n)) % 8
        done += 1


def test_lift_preserves_eigenspaces(rng):
    for _ in range(10):
        n = int(rng.integers(1, 3))
        path = random_unitary_path(n, rng, k=40)
        for l in (0, 1, 2):
            psi = hermite_state(l, n)
            out = lift_frame_path(path, psi)
            assert oscillator_level(out) == l
            assert abs(l2_norm_squared(out) - l2_norm_squared(psi)) < 1e-9 * max(
                1.0, l2_norm_squared(psi))


def test_lift_polynomial_state_against_word(rng):
    # endpoint word applied directly must match transporting the state
    n = 1
    path = [rotation(t) for t in np.linspace(0, 1.1, 60)]
    psi = hermite_state(2, 1)
    moved = lift_frame_path(path, psi)
    lift0 = lift_frame_path(path, ground_state(1))
    qf = pin_branch_transverse(path[-1], lift0.c)
    direct = apply_quad_fourier(qf, psi)
    xs = [(0.0,), (0.7,), (-1.3,)]
    for x in xs:
        assert abs(moved(x) - direct(x)) < 1e-9


def test_lift_closed_law_matches_sequential_reference(rng):
    # paths t -> expm(t H) sampled at k points, with a complex M_0, against
    # the reference lift, which bisects and steps one at a time
    cases = []
    for n in (1, 2, 3):
        Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        X, B = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        cases.append((2.0 * (Z - Z.conj().T), 12, GaussianAmplitude(
            0.7 * np.exp(0.4j), np.eye(n) + 0.3 * X @ X.T + 0.5j * (B + B.T))))
    # M_0 = (1 - 10i) I at n = 2 with one step e^{0.19i} I: each eigenvalue
    # of A - iBM has argument -2.94, the two add up past -pi, and the
    # principal root of the determinant of that factor would flip the sign
    cases.append((0.19j * np.eye(2), 2, GaussianAmplitude(1.0, (1.0 - 10.0j) * np.eye(2))))
    for H, k, s in cases:
        Us = np.array([scipy.linalg.expm(t * H) for t in np.linspace(0.0, 1.0, k)])
        cs, Ms, polys = lift_frame_path_trace(Us, s)
        c_ref, M_ref = reference_lift(Us, s)
        assert len(cs) == len(Ms) == len(polys) == len(c_ref) == len(Us)
        assert np.max(np.abs(cs - c_ref)) < 1e-12 and np.max(np.abs(Ms - M_ref)) < 1e-12
        end = lift_frame_path([embed_unitary(U) for U in Us], s)
        assert abs(end.c - cs[-1]) < 1e-12 and np.max(np.abs(end.M - Ms[-1])) < 1e-12
        # the same path in 400 steps: the lift does not depend on the sampling
        fine = np.array([scipy.linalg.expm(t * H) for t in np.linspace(0.0, 1.0, 401)])
        assert abs(lift_frame_path_trace(fine, s)[0][-1] - cs[-1]) < 1e-10


def cayley_norm(M0):
    """||C||_2 of the Cayley image C = (I - M_0)(I + M_0)^{-1}."""
    I = np.eye(len(M0))
    return np.linalg.norm((I - M0) @ np.linalg.inv(I + M0), 2)


@example(n=3, seed=1, k=6, turn=3.0, im=5.0, low=0.05)
@example(n=4, seed=2, k=4, turn=2.5, im=4.0, low=0.1)
@given(n=DIMS, seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 6),
       turn=st.floats(0.1, 3.0), im=st.floats(0.0, 5.0), low=st.floats(0.05, 1.0))
def test_lift_matches_the_reference_lift(n, seed, k, turn, im, low):
    # k samples joined by random steps whose largest eigenphase is turn, a
    # chirped M_0 = low I + A A^T / n + i im (B + B^T) / max|B + B^T|: the
    # closed form at the samples against the reference, which bisects until
    # every step's factor is near I and advances the state step by step;
    # at n >= 3 a small low takes n arcsin ||C||_2 past pi
    rng = np.random.default_rng(seed)
    Us = [np.eye(n, dtype=complex)]
    for _ in range(k - 1):
        Q = random_unitary(n, rng).entries
        lam = rng.uniform(-1.0, 1.0, n)
        Us.append((Q * np.exp(1j * turn * lam / np.max(np.abs(lam)))) @ Q.conj().T @ Us[-1])
    Us = np.array(Us)
    A, B = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    M0 = low * np.eye(n) + A @ A.T / n + 1j * im * (B + B.T) / np.max(np.abs(B + B.T))
    s0 = GaussianAmplitude(0.6 - 0.8j, M0)
    c, M, _ = lift_frame_path_trace(Us, s0)
    c_ref, M_ref = reference_lift(Us, s0, max_depth=30)
    assert np.max(np.abs(c - c_ref) / np.abs(c_ref)) <= 1e-12
    assert rel_drift(M, M_ref) <= 1e-12


def reference_step_word(V, s, tol=DEFAULT_TOLERANCES, near=None):
    """Lift of one near-identity dense step V applied to the state s through
    the generator word, from the public single-state API alone.  The step
    has a singular upper-right block, so the word is JHat followed by the
    quadratic Fourier word of embed(iV) at branch 0, and the branch integer
    m is rounded so that the moved scalar stays within a quarter turn of
    near, by default of s.c.  Returns the moved state and m."""
    qf = quad_fourier_from_symplectic(embed_unitary(1j * V, tol), 0, tol)
    out = apply_quad_fourier(qf, apply_generator(JHat(), s, tol), tol)
    m = int(round(-2.0 * np.angle(out.c / (s.c if near is None else near)) / np.pi)) % 4
    return out.scaled(quarter_turn(m)), m


def principal_power(V, a):
    """V^a for a unitary V, with the principal arguments of its eigenvalues,
    by a complex Schur form."""
    T, Z = scipy.linalg.schur(V, output="complex")
    return Z @ np.diag(np.exp(1j * a * np.angle(np.diagonal(T)))) @ Z.conj().T


def continuous_step_word(V, s, tol=DEFAULT_TOLERANCES):
    """reference_step_word with m fixed by continuity along the step.  On a
    strongly chirped state one dense step can turn the scalar by more than
    pi / 4, where rounding to within a quarter turn of s.c is a quarter turn
    off.  So V is cut into 2^j equal geodesic sub-steps, j the least for
    which every sub-step's word turns the scalar by under pi / 8, and m
    takes the one-step word to within a quarter turn of their composite."""
    for j in range(11):
        W, fine, turn = principal_power(V, 2.0 ** -j), s, 0.0
        for _ in range(2 ** j):
            moved = reference_step_word(W, fine, tol)[0]
            turn, fine = max(turn, abs(np.angle(moved.c / fine.c))), moved
        if turn < np.pi / 8:
            break
    return reference_step_word(V, s, tol, near=fine.c)


@st.composite
def unitary_paths(draw, n):
    """t -> expm(t s H) at 3..5 samples, H anti-Hermitian with spectral
    radius 1 and s in [2, 4]: the fastest eigenvalue turns by 0.5 to 2 per
    input step, above word_step_bound, and below pi, so the geodesic steps
    follow the path."""
    Z = draw(square(n)) + 1j * draw(square(n))
    H = (Z - Z.conj().T) / 2 + 0.5j * np.eye(n)
    radius = np.max(np.abs(np.linalg.eigvals(H)))
    assume(radius > 0.1)
    H = H / radius
    scale = draw(st.floats(2.0, 4.0))
    k = draw(st.integers(3, 5))
    return np.array([scipy.linalg.expm(t * scale * H) for t in np.linspace(0.0, 1.0, k)]), H * scale


def rel_drift(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def word_steps(Us, n):
    """Us bisected geodesically until every step V has max |eig(V) - 1| at
    most word_step_bound(n): the dense path, its steps and the dense
    positions of the samples."""
    t = np.arange(len(Us), dtype=float)
    U, td = bisect_geodesics(
        Us, t, lambda U: np.max(np.abs(np.linalg.eigvals(steps_of(U)) - 1.0), axis=1),
        word_step_bound(n), 12)
    return U, steps_of(U), np.searchsorted(td, t)


def steps_of(U):
    return U[1:] @ np.conj(np.swapaxes(U[:-1], 1, 2))


def word_step_bound(n):
    """A step size under which the word's branch is rounded per dense step:
    max |eig - 1| <= min(0.4, 2 sin(pi / 8n))."""
    return min(0.4, 2.0 * np.sin(np.pi / (8.0 * n)))


@given(st.data())
def test_word_lift_matches_reference_step_word(data):
    # the closed-form lift, at the samples, against the word applied one
    # dense step at a time along the path bisected for the word
    n = data.draw(DIMS)
    p = data.draw(polynomials(n))
    assume(not p.is_constant())
    s0 = GaussianAmplitude(0.8 + 0.5j, data.draw(gaussian_matrices(n)), p)
    Us, _ = data.draw(unitary_paths(n))
    U, V, keep = word_steps(Us, n)
    assert len(U) > len(Us)  # the lift takes the coarse steps whole
    ref, ms = [s0], []
    for step in V:
        s, m = continuous_step_word(step, ref[-1])
        ref.append(s)
        ms.append(m)
    cs, Ms, polys = lift_frame_path_trace(Us, s0)
    for j, k in enumerate(keep):
        assert abs(cs[j] - ref[k].c) <= 1e-12 * abs(ref[k].c)
        assert rel_drift(Ms[j], ref[k].M) <= 1e-12
        assert rel_drift(polys[j].vec, ref[k].poly.vec) <= 1e-12
    # per-step branch integers: on the dense path every sample is an input,
    # and the lift's increment c_{k+1} / c_k against the unrounded word factor
    # of the step is i^{m_k}
    cd = lift_frame_path_trace(U, s0)[0]
    raw = [r1.c / (r0.c * quarter_turn(m)) for r0, r1, m in zip(ref, ref[1:], ms)]
    got = [int(round(2.0 * np.angle(cd[k + 1] / (cd[k] * raw[k])) / np.pi)) % 4
           for k in range(len(V))]
    assert got == ms


def fock_bargmann_image(gamma, T):
    """p(X) 1 for p = z^gamma and the creation operators
    X_j = sum_c T_jc (2 x_c - d_c), in dict arithmetic."""
    n = len(gamma)
    term = {(0,) * n: 1.0 + 0j}
    for j, e in enumerate(gamma):
        for _ in range(e):
            new = {}
            for k, v in term.items():
                for c in range(n):
                    up = k[:c] + (k[c] + 1,) + k[c + 1:]
                    _dict_add_to(new, up, 2.0 * T[j, c] * v)
                    if k[c]:
                        down = k[:c] + (k[c] - 1,) + k[c + 1:]
                        _dict_add_to(new, down, -k[c] * T[j, c] * v)
            term = new
    return term


@given(st.data())
def test_hermite_lift_matches_fock_bargmann(data):
    # U(n) commutes with the oscillator: along t -> U(t) = expm(t H) the lift
    # of H_gamma e^{-|x|^2/2} is det(U)^{1/2} = e^{t tr(H) / 2} times p(X) 1
    # with X_j = sum_c (U^T)_jc (2 x_c - d_c) and p = z^gamma
    n = data.draw(DIMS)
    gamma = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=4)).count(j)
                  for j in range(n))
    Us, H = data.draw(unitary_paths(n))
    cs, Ms, polys = lift_frame_path_trace(Us, hermite_state(gamma, n))
    for t, U, c, M, poly in zip(np.linspace(0.0, 1.0, len(Us)), Us, cs, Ms, polys):
        assert np.max(np.abs(M - np.eye(n))) <= 1e-12
        want = {k: np.exp(0.5 * t * np.trace(H)) * v
                for k, v in fock_bargmann_image(gamma, U.T).items()}
        got = {k: c * v for k, v in poly.coeffs.items()}
        assert coeff_drift(got, want) <= 1e-12


def rotating_path(n, rng, lam, t_end, k):
    """U(t) = Q diag(e^{i t lam}) Q^* at k evenly spaced t in [0, t_end],
    with Q a random unitary."""
    Q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    return np.array([Q @ np.diag(np.exp(1j * t * np.asarray(lam))) @ Q.conj().T
                     for t in np.linspace(0.0, t_end, k)])


def closed_law_perturbed(at, delta):
    """The closed-law matrices with delta added at sample at."""
    closed = metaplectic._closed_matrices

    def law(U, M0):
        M = closed(U, M0)
        M[at] += delta
        return M
    return law


def test_lift_names_the_sample_of_a_bad_state(rng, monkeypatch):
    # 13 samples, the polynomial factor formed in chunks of 3 samples, so
    # sample 7 lies inside the third chunk: a pure and a polynomial state
    # alike fail the closed law's check there, and the error names the sample
    n = 2
    poly = hermite_state((1, 2), n).poly
    M0 = np.eye(n) + 0.5j
    states = (GaussianAmplitude(1.0, M0), GaussianAmplitude(1.0, M0, poly))
    Us = rotating_path(n, rng, [0.1, -0.2], 12.0, 13)
    monkeypatch.setattr(metaplectic, "WORD_CHUNK_BYTES", 3 * 16 * poly.basis.size ** 2)
    for s in states:
        lift_frame_path_trace(Us, s)
    monkeypatch.setattr(metaplectic, "_closed_matrices",
                        closed_law_perturbed(7, -10.0 * np.eye(n)))
    for s in states:
        with pytest.raises(StateDomainError, match="positive definite; .* at sample 7$"):
            lift_frame_path_trace(Us, s)


def test_re_m_check_past_the_gershgorin_screen(rng, monkeypatch):
    # samples with min eig(Re M) at 2x and at 0.5x rank_floor, rotated
    # so that the off-diagonal mass leaves the Gershgorin bound under the
    # floor: the screen leaves both to eigvalsh, which passes the first and
    # names the second, with its eigenvalue, as the check without the screen
    # does; the other samples have Re M = I, inside the screen
    tol = DEFAULT_TOLERANCES
    for n in (2, 3, 4):
        floor = tol.rank_floor(n)
        U = rotating_path(n, rng, rng.uniform(-0.1, 0.1, n), 1.0, 9)
        Ms = np.array([np.eye(n, dtype=complex)] * len(U))
        for at, scale in ((3, 2.0), (6, 0.5)):
            Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            Ms[at] = (Q * np.r_[scale * floor, np.ones(n - 1)]) @ Q.T
            R = Ms[at].real
            assert np.min(2 * np.diag(R) - np.sum(np.abs(R), axis=1)) < floor
        monkeypatch.setattr(metaplectic, "_closed_matrices", lambda W, M0: Ms.copy())
        low = np.linalg.eigvalsh(Ms.real)[:, 0]
        assert low[3] >= floor > low[6]
        s0, theta = GaussianAmplitude(1.0, 2.0 * np.eye(n)), np.zeros(len(U))
        with pytest.raises(StateDomainError,
                           match=r"positive definite; min eig %.3e at sample 6$" % low[6]):
            metaplectic._closed_law(U, theta, s0, tol)
        Ms[6] = np.eye(n)
        metaplectic._closed_law(U, theta, s0, tol)


def chirped_cases(rng, dims=(2, 3, 4)):
    """(M_0, polynomial factor, unitary path t -> U(t)) of strongly chirped
    states, where a dense step's factor can turn by more than pi / 4:
    x e^{-M x^2/2} with M_0 = 1 + 2i along e^{it}, then Hermite states at
    the given n with |Im M_0| up to 5 along rotations."""
    def rotations(Q, lam):
        return lambda t: (Q * np.exp(1j * np.multiply.outer(t, lam))[:, None, :]) @ Q.conj().T

    cases = [(np.array([[1.0 + 2.0j]]), Polynomial.coordinate(0, 1),
              rotations(np.eye(1), [1.0]))]
    for n in dims:
        B = rng.normal(size=(n, n))
        B = 5.0 * (B + B.T) / np.max(np.abs(B + B.T))
        Q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        cases.append((np.eye(n) + 1j * B, hermite_state((2, 1) + (0,) * (n - 2), n).poly,
                      rotations(Q, rng.uniform(-1.0, 1.0, n))))
    return cases


def test_polynomial_lift_keeps_the_ground_state_scalar(rng):
    # a polynomial factor changes neither c nor M of the lift, and the
    # endpoint does not depend on the sampling, also on strongly chirped
    # states sampled at t = 0, 1.5, 3
    for M0, poly, path in chirped_cases(rng):
        s0 = GaussianAmplitude(0.6 - 0.8j, M0, poly)
        coarse, fine = path(np.linspace(0.0, 3.0, 3)), path(np.linspace(0.0, 3.0, 3001))
        c, M, polys = lift_frame_path_trace(coarse, s0)
        c0, M0s, _ = lift_frame_path_trace(coarse, GaussianAmplitude(s0.c, M0))
        assert np.max(np.abs(c - c0)) <= 1e-12 and np.array_equal(M, M0s)
        cf, Mf, pf = lift_frame_path_trace(fine, s0)
        assert abs(cf[-1] - c[-1]) <= 1e-9 and np.max(np.abs(Mf[-1] - M[-1])) <= 1e-9
        assert rel_drift(pf[-1].vec, polys[-1].vec) <= 1e-9


def test_chirped_polynomial_lift_matches_the_fine_step_word(rng):
    # an oracle outside the closed law for the chirped scalar: the generator
    # word applied one step at a time on 1,001 samples of t in [0, 3], where
    # every step's factor turns by far less than pi / 4, so its per-step
    # rounding picks the right quarter turn; the lift takes 3 samples
    for M0, poly, path in chirped_cases(rng, dims=(2,)):
        s0 = GaussianAmplitude(0.6 - 0.8j, M0, poly)
        c, _, polys = lift_frame_path_trace(path(np.linspace(0.0, 3.0, 3)), s0)
        fine = path(np.linspace(0.0, 3.0, 1001))
        ref, turn = s0, 0.0
        for V in fine[1:] @ np.conj(np.swapaxes(fine[:-1], 1, 2)):
            moved = reference_step_word(V, ref)[0]
            turn, ref = max(turn, abs(np.angle(moved.c / ref.c))), moved
        assert turn < np.pi / 8
        assert abs(c[-1] - ref.c) <= 1e-9
        assert rel_drift(polys[-1].vec, ref.poly.vec) <= 1e-9


def cayley_factor(W, M0, by_det=False):
    """f(W^T W) / f(I) for f(Z) the product of the principal roots
    lambda_j(I + Z C)^{-1/2}, C the Cayley image of M_0, or the principal
    root of det(I + Z C) in place of f."""
    n = len(M0)
    C = (np.eye(n) - M0) @ np.linalg.inv(np.eye(n) + M0)

    def f(Z):
        Y = np.eye(n) + Z @ C
        if by_det:
            return np.linalg.det(Y) ** -0.5
        return np.prod(np.linalg.eigvals(Y) ** -0.5)
    return f(W.T @ W) / f(np.eye(n))


@given(st.data())
def test_cayley_factor_by_determinant_inside_the_screen(data):
    # where n arcsin ||C||_2 < pi, f is the principal root of one det: the
    # eigenvalue product within rounding, for any unitary W
    n = data.draw(DIMS)
    M0 = data.draw(gaussian_matrices(n))
    assume(n * np.arcsin(cayley_norm(M0)) < (1 - _SCREEN_MARGIN) * np.pi)
    Z = data.draw(square(n)) + 1j * data.draw(square(n))
    W = scipy.linalg.expm(Z - Z.conj().T)
    c = lift_frame_path_trace(np.array([np.eye(n), W]), GaussianAmplitude(1.0, M0))[0]
    want = np.exp(0.5j * np.sum(np.angle(np.linalg.eigvals(W)))) * cayley_factor(W, M0)
    assert abs(c[1] - want) <= 1e-14 * abs(want)


def test_cayley_factor_by_eigenvalues_where_the_arguments_pass_pi(rng):
    # chirped states (|Im M| = 5, Re M near 0.1 I) and steps turning by up to
    # 3 rad, drawn until the eigenvalue arguments of I + Z C add up past pi:
    # such a state is past the screen, its lift matches the reference, and
    # the principal root of det(I + Z C) has the opposite sign
    for n in (3, 4):
        for _ in range(200):
            B = rng.normal(size=(n, n))
            M0 = 0.1 * np.eye(n) + 5j * (B + B.T) / np.max(np.abs(B + B.T))
            Q = random_unitary(n, rng).entries
            W = (Q * np.exp(3j * rng.uniform(-1.0, 1.0, n))) @ Q.conj().T
            C = (np.eye(n) - M0) @ np.linalg.inv(np.eye(n) + M0)
            if abs(np.sum(np.angle(np.linalg.eigvals(np.eye(n) + W.T @ W @ C)))) > np.pi:
                break
        else:
            pytest.fail("no step with arguments past pi at n = %d" % n)
        assert n * np.arcsin(cayley_norm(M0)) >= np.pi
        fac = cayley_factor(W, M0)
        assert abs(cayley_factor(W, M0, by_det=True) + fac) <= 1e-12 * abs(fac)
        Us, s0 = np.array([np.eye(n), W]), GaussianAmplitude(1.0, M0)
        c = lift_frame_path_trace(Us, s0)[0]
        c_ref = reference_lift(Us, s0, max_depth=30)[0]
        assert abs(c[1] - c_ref[1]) <= 1e-12 * abs(c_ref[1])
        assert abs(c[1] - np.exp(0.5j * np.sum(np.angle(np.linalg.eigvals(W)))) * fac) <= (
            1e-14 * abs(fac))


def test_word_lift_does_not_depend_on_the_chunks(rng, monkeypatch):
    n = 2
    s0 = random_state(n, rng)
    Us = rotating_path(n, rng, [1.0, -0.7], 3.0, 5)
    c, M, polys = lift_frame_path_trace(Us, s0)
    monkeypatch.setattr(metaplectic, "WORD_CHUNK_BYTES", 1)  # one step a chunk
    c1, M1, polys1 = lift_frame_path_trace(Us, s0)
    assert np.array_equal(c, c1) and np.array_equal(M, M1)
    assert all(np.array_equal(p.vec, q.vec) for p, q in zip(polys, polys1))


def test_word_lift_memory_is_bounded(rng):
    # degree-8 states at n = 3 (K = 165) over 400 dense steps and at n = 4
    # (K = 495) over 40, none refined; the substitution holds the operators
    # of one chunk of samples at a time
    for lam, k in (([1.0, -0.6, 0.3], 401), ([1.0, -0.6, 0.3, 0.8], 41)):
        n = len(lam)
        s0 = hermite_state(8, n)
        Us = rotating_path(n, rng, lam, 0.1 * (k - 1), k)
        tracemalloc.start()
        try:
            c, M, polys = lift_frame_path_trace(Us, s0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * 2 ** 20
        out = GaussianAmplitude(c[-1], M[-1], polys[-1])
        assert oscillator_level(out) == 8
        norm, norm0 = np.sqrt(l2_norm_squared(out)), np.sqrt(l2_norm_squared(s0))
        assert abs(norm - norm0) <= 1e-9 * norm0


def test_word_lift_returns_a_chirped_state_round_a_loop(rng):
    # M_0 = I/2 + iJ (J all ones) at n = 3 with a degree-4 factor, along
    # t -> expm(2.5 t H) out and back: the lifted state returns to its start
    n = 3
    s0 = GaussianAmplitude(1.0, 0.5 * np.eye(n) + 1j * np.ones((n, n)),
                           hermite_state((2, 1, 1), n).poly)
    t = np.linspace(0.0, 1.0, 21)
    t = np.concatenate([t, t[-2::-1]])
    for _ in range(6):
        Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        H = (Z - Z.conj().T) / 2
        H /= np.max(np.abs(np.linalg.eigvals(H)))
        Us = np.array([scipy.linalg.expm(2.5 * s * H) for s in t])
        c, M, polys = lift_frame_path_trace(Us, s0)
        assert abs(c[-1] - s0.c) <= 1e-12 and np.max(np.abs(M[-1] - s0.M)) <= 1e-12
        assert rel_drift(polys[-1].vec, s0.poly.vec) <= 1e-12


@st.composite
def chirped_matrices(draw, n):
    """Complex symmetric A A^T + I/2 + 10 i (B + B^T)/2: Re >= I/2 and
    |Im| up to 10."""
    A, B = draw(square(n)), draw(square(n))
    return A @ A.T + 0.5 * np.eye(n) + 5j * (B + B.T)


@given(st.data())
def test_factor_substitution_matches_the_generator_words(data):
    # the lift's substitution q -> q(A^T x + B^T xi) 1 for W = A + iB, xi the
    # momentum, against the factor of the generator word of embed(W): the
    # quadratic Fourier word where B is invertible, Dilate where W is real
    # orthogonal
    n = data.draw(DIMS)
    p = data.draw(polynomials(n))
    assume(np.any(p.vec))
    s = GaussianAmplitude(1.0, data.draw(chirped_matrices(n)), p)
    Z = data.draw(square(n)) + 1j * data.draw(square(n))
    W = scipy.linalg.expm(2.0 * (Z - Z.conj().T))
    assume(abs(np.linalg.det(W.imag)) >= 0.05)
    out = apply_quad_fourier(quad_fourier_from_symplectic(embed_unitary(W), 0), s)
    got = metaplectic._factor_vectors(W[None], out.M[None], p)[0]
    assert rel_drift(got, out.poly.vec) <= 1e-12
    A = np.linalg.qr(data.draw(square(n)))[0]
    out = apply_generator(Dilate(A, 0), s)
    got = metaplectic._factor_vectors(A[None].astype(complex), out.M[None], p)[0]
    assert rel_drift(got, out.poly.vec) <= 1e-12


@given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1), spread=st.booleans())
def test_det_phase_steps_past_pi_take_the_eigenvalues(n, seed, spread):
    # single steps whose eigenphases, all of one sign, add up to (1 + rel) pi:
    # the lifted ground state gains e^{i sum / 2}, where the wrapped
    # difference of the det phases would read sum - 2 pi past pi; the
    # eigenphases are equal or spread
    rng = np.random.default_rng(seed)
    for rel in (-0.5, -1e-3, -2e-6, -1e-9, 1e-9, 2e-6, 1e-3, 0.5):
        phi = rng.uniform(0.5, 1.0, n) if spread else np.ones(n)
        phi *= (1 + rel) * np.pi / np.sum(phi) * rng.choice([-1.0, 1.0])
        E = random_unitary(n, rng).entries
        Us = np.stack([np.eye(n), (E * np.exp(1j * phi)) @ E.conj().T])
        c = lift_frame_path_trace(Us, ground_state(n))[0]
        assert abs(c[1] - np.exp(0.5j * np.sum(phi))) <= 1e-14


def test_lift_takes_a_three_radian_step_whole():
    # one step of angle 3, lifted whole: the ground state gains e^{1.5i}
    Us = np.exp(1j * np.array([0.0, 3.0]))[:, None, None]
    cs, _, _ = lift_frame_path_trace(Us, ground_state(1))
    assert abs(cs[-1] - np.exp(1.5j)) < 1e-12


@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_states_lifted_along_one_path_match_their_endpoint_lifts(n, seed):
    # levels 0..4 and a chirped state lifted in turn along one path: the
    # trace's last state is bit for bit the endpoint lift, lifted before or
    # after a lift along another path
    rng = np.random.default_rng(seed)
    Us, other = (rotating_path(n, rng, rng.uniform(-1.0, 1.0, n), 4.0, 7) for _ in range(2))
    Us[0] = np.eye(n)
    M0, poly, _ = chirped_cases(rng, dims=(n,) if n > 1 else ())[-1]
    states = [hermite_state(level, n) for level in range(5)]
    states.append(GaussianAmplitude(0.6 - 0.8j, M0, poly))
    path = [embed_unitary(U) for U in Us]
    for s in states:
        c, M, polys = lift_frame_path_trace(Us, s)
        lift_frame_path_trace(other, s)
        end = lift_frame_path(path, s)
        assert (c[-1], M[-1].tobytes(), polys[-1].vec.tobytes()) == (
            end.c, end.M.tobytes(), end.poly.vec.tobytes())


def trace_bytes(trace):
    c, M, polys = trace
    return c.tobytes(), M.tobytes(), [p.vec.tobytes() for p in polys]


def test_threads_lifting_along_their_own_paths_get_their_own_traces(rng):
    # four threads, more than the cores, each lifting three levels along its
    # own path over and over with a short switch interval: a lift that kept
    # state between calls and read another thread's would give another trace
    paths = [rotating_path(2, rng, rng.uniform(-1.0, 1.0, 2), 4.0, 7) for _ in range(4)]
    for Us in paths:
        Us[0] = np.eye(2)
    states = [hermite_state(level, 2) for level in range(3)]
    want = [[trace_bytes(lift_frame_path_trace(Us, s)) for s in states] for Us in paths]
    same = [0] * len(paths)

    def work(i):
        for _ in range(15):
            for s, w in zip(states, want[i]):
                same[i] += trace_bytes(lift_frame_path_trace(paths[i], s)) == w
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(paths))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert same == [45] * len(paths)


def test_metaplectic_imports_nothing_from_index():
    # the lift and the cover route stay independent: importing the lift
    # loads no module of the cover route
    code = "import sys, maslov.metaplectic; print('maslov.index' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)), timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_lift_takes_no_linalg_call_on_an_empty_stack(rng, monkeypatch):
    # a one-sample path, steps inside and past the det-phase screen, the
    # ground state and chirped states inside and past the Cayley screen
    def nonempty(fn):
        def call(a, *args, **kwargs):
            assert np.size(a), fn.__name__
            return fn(a, *args, **kwargs)
        return call
    for name in ("det", "eigvals", "eigvalsh", "solve", "norm", "inv"):
        monkeypatch.setattr(np.linalg, name, nonempty(getattr(np.linalg, name)))
    for n in (1, 3, 4):
        B = rng.normal(size=(n, n))
        for M0 in (np.eye(n), np.eye(n) + 0.5j, 0.1 * np.eye(n) + 5j * (B + B.T)):
            s0 = GaussianAmplitude(1.0, M0, hermite_state(1, n).poly)
            for Us in (np.eye(n)[None], rotating_path(n, rng, np.linspace(0.1, 3.0, n), 1.0, 2),
                       rotating_path(n, rng, np.full(n, 0.01), 1.0, 3)):
                lift_frame_path_trace(Us, s0)


# ---------------------------------------------------------------------------
# dual action


def test_apply_to_delta_sigma_form_example():
    # endpoint [[0, 1], [-1, 0]] with branch 0: prefactor (1/2pi)^{1/2} i^{1/2}
    S = SymplecticMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    qf = quad_fourier_from_symplectic(S, 0)
    out = apply_to_delta(qf)
    assert out.kind == CONST
    assert abs(out.c - (2 * np.pi) ** -0.5 * root_i_power(1)) < 1e-12
    assert abs(endpoint_positive_factor(qf) - (2 * np.pi) ** -0.5) < 1e-15


def test_apply_word_to_delta_identity():
    out = apply_word_to_delta(np.eye(2), 0)
    assert out.kind == DELTA and abs(out.c - 1.0) < 1e-15
    with pytest.raises(CaseError):
        apply_word_to_delta(np.array([[2.0]]), 0)


def test_delta_pairing_returns_value_at_zero():
    # delta applied to a transported eigenstate gives i^m times its value at 0
    for l in (0, 1, 2):
        for m in range(4):
            psi = hermite_state(l, 1)
            moved = apply_generator(Dilate(np.array([[-1.0]]), m), psi)
            val = DistributionState(DELTA, 1.0).pair(moved)
            assert abs(val - quarter_turn(m) * psi([0.0])) < 1e-12


def test_const_pairing_matches_integral():
    s = random_state(1, np.random.default_rng(7))
    c = 0.3 - 0.8j
    assert abs(DistributionState(CONST, c).pair(s) - c * gaussian_integral(s)) < 1e-12
    # and the closed-form integral matches the grid
    assert abs(gaussian_integral(s) - np.sum(sample(s)) * (GRID[1] - GRID[0])) < 1e-7


def test_adjoint_relation(rng):
    # <S u, v> = <u, S* v> with S* the adjoint data (-Q, -L^T, -P, n - m)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        P = rng.normal(size=(n, n))
        Q = rng.normal(size=(n, n))
        L = rng.normal(size=(n, n)) + 3 * np.eye(n)
        qf = QuadraticFourier((P + P.T) / 2, L, (Q + Q.T) / 2, int(rng.integers(0, 4)))
        u = random_state(n, rng)
        v = random_state(n, rng)
        lhs = l2_inner(apply_quad_fourier(qf, u), v)
        rhs = l2_inner(u, apply_quad_fourier(adjoint_quad_fourier(qf), v))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# oscillator eigenstates


def test_hermite_ground_state():
    h = hermite_state(0, 2)
    assert h.poly.is_constant()
    assert abs(h([0.1, -0.2]) - ground_state(2)([0.1, -0.2])) < 1e-14


def test_hermite_level_one_vanishes_at_zero():
    h = hermite_state(1, 1)
    assert abs(h([0.0])) == 0.0
    # recursion oracle: H_1(x) = 2x
    assert abs(h([0.7]) - 2 * 0.7 * np.exp(-0.245)) < 1e-12


def test_hermite_against_numpy(rng):
    from numpy.polynomial.hermite import hermval
    for k in range(5):
        h = hermite_state(k, 1)
        for x in rng.uniform(-2, 2, size=5):
            coeffs = [0.0] * k + [1.0]
            assert abs(h([x]) - hermval(x, coeffs) * np.exp(-x * x / 2)) < 1e-9


def test_hermite_eigenvalue_check():
    # symbolic differentiation oracle on H2: the oscillator acts by -(l + n/2)
    h2 = hermite_state(2, 1)
    assert oscillator_level(h2) == 2
    p = h2.poly
    lhs = Polynomial(1)
    lhs = lhs + p.diff(0).diff(0).scale(-1.0) \
        + Polynomial.coordinate(0, 1) * p.diff(0).scale(2.0)
    resid = lhs + p.scale(-4.0)
    assert all(abs(v) < 1e-12 for v in resid.coeffs.values())
    assert oscillator_level(hermite_state((1, 1), 2)) == 2
    assert oscillator_level(hermite_state(1, 2)) == 1


def test_eigenspace_dimension_bookkeeping():
    # rank of the level-k space is C(n + k - 1, k): enumerate multi-indices
    from math import comb
    for n in (1, 2):
        for k in range(5):
            states = [lv for lv in _multi_indices(n, k)]
            assert len(states) == comb(n + k - 1, k)


def _multi_indices(n, total):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _multi_indices(n - 1, total - first):
            yield (first,) + rest
