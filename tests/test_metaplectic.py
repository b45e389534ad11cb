"""Metaplectic calculus checks: generator actions, quadratic Fourier
transforms, branch tracking, the index cocycle, and the dual action.

The one-dimensional quadrature oracle below applies the oscillatory kernel

    (2 pi i)^{-1/2} i^m |L|^{1/2} Int e^{i(P x^2/2 - L x y + Q y^2/2)} f(y) dy

directly on a grid, independently of the generator-word implementation.
"""

import numpy as np
import pytest
import scipy.linalg

from maslov.core import (SymplecticMatrix, embed_unitary, l0_frame,
                         random_unitary)
from maslov.errors import CaseError, InvariantViolation, StateDomainError
from maslov.index import mu_hat_on_cover
from maslov.metaplectic import (CONST, DELTA, Chirp, Dilate, DistributionState,
                                GaussianAmplitude, JHat, Polynomial,
                                QuadraticFourier, adjoint_quad_fourier,
                                apply_generator, apply_quad_fourier,
                                apply_to_delta, apply_word_to_delta,
                                endpoint_positive_factor, gaussian_integral,
                                ground_state, hermite_state, l2_inner,
                                l2_norm_squared, lift_frame_path, mu_hat,
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


def test_lift_orthogonal_endpoint_phases(rng):
    # closed unitary loops land on fourth roots of unity
    for loop_scale in (1.0, 2.0):
        path = [rotation(t) for t in np.linspace(0, 2 * np.pi * loop_scale, int(300 * loop_scale))]
        out = lift_frame_path(path, ground_state(1))
        assert min(abs(out.c - r) for r in (1, 1j, -1, -1j)) < 1e-9


def test_lift_rejects_non_unitary_sample_and_names_it():
    path = [rotation(t) for t in np.linspace(0, 1.0, 10)]
    path[6] = SymplecticMatrix(np.diag([2.0, 0.5]))  # symplectic, not unitary
    with pytest.raises(InvariantViolation, match="sample 6 "):
        lift_frame_path(path, ground_state(1))


def test_lift_branch_stability_under_doubling(rng):
    from maslov.core import unitary_from_symplectic
    from maslov.metaplectic import _unitary_sqrt
    for _ in range(20):
        n = int(rng.integers(1, 3))
        base = random_unitary_path(n, rng, k=30)
        out1 = lift_frame_path(base, ground_state(n))
        # same path with geodesic midpoints inserted (doubled density)
        mid = []
        for a, b in zip(base[:-1], base[1:]):
            mid.append(a)
            Ua = unitary_from_symplectic(a)
            Ub = unitary_from_symplectic(b)
            Um = _unitary_sqrt(Ub @ Ua.conj().T) @ Ua
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
