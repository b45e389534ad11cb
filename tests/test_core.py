"""Substrate checks: the unitary embedding, the Souriau identification and its
inverse, and intersection dimensions."""

import numpy as np
import pytest

from maslov.core import (LagrangianFrame, SymplecticMatrix, Tolerances,
                         embed_unitary, intersection_dim, l0_frame,
                         lagrangian_from_souriau, line_frame, omega_gram,
                         random_lagrangian, random_unitary,
                         souriau_images, souriau_intersection_dim,
                         souriau_map, standard_j, unitary_from_symplectic)
from maslov.errors import DimensionMismatch, InvariantViolation


def same_span(F1, F2):
    return intersection_dim(F1, F2) == F1.n


def test_embed_identity():
    S = embed_unitary(np.eye(1, dtype=complex))
    assert np.allclose(S.entries, np.eye(2))


def test_embed_i_is_j0():
    S = embed_unitary(np.array([[1j]]))
    assert np.allclose(S.entries, np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_embed_eighth_turn():
    S = embed_unitary(np.array([[np.exp(0.25j * np.pi)]]))
    r = np.sqrt(0.5)
    assert np.allclose(S.entries, np.array([[r, -r], [r, r]]))
    # oracle: symplectic residual directly
    J = standard_j(1)
    assert np.max(np.abs(S.entries.T @ J @ S.entries - J)) < 1e-12


def test_embed_rejects_non_unitary():
    with pytest.raises(InvariantViolation):
        embed_unitary(np.array([[1.0 + 0j, 0.5], [0.0, 1.0]]))


def test_embed_random_symplectic_orthogonal(rng):
    J3 = {n: standard_j(n) for n in (1, 2, 3)}
    for _ in range(100):
        n = int(rng.integers(1, 4))
        S = embed_unitary(random_unitary(n, rng)).entries
        assert np.max(np.abs(S.T @ J3[n] @ S - J3[n])) < 1e-12
        assert np.max(np.abs(S.T @ S - np.eye(2 * n))) < 1e-12


def test_souriau_basepoint_and_axes():
    assert np.allclose(souriau_map(l0_frame(1)).entries, [[1.0]])
    assert np.allclose(souriau_map(line_frame(0.0)).entries, [[-1.0]])


def test_souriau_line_angle(rng):
    # w(line at alpha) = -e^{2 i alpha}; oracle: the fitted unitary really
    # carries the basepoint frame onto the line
    for alpha in rng.uniform(0, np.pi, size=10):
        L = line_frame(alpha)
        w = souriau_map(L).entries
        assert abs(w[0, 0] + np.exp(2j * alpha)) < 1e-12
        r = np.array([[np.exp(1j * (alpha - np.pi / 2))]])
        image = embed_unitary(r).entries @ l0_frame(1).columns
        assert same_span(LagrangianFrame(image), L)


def test_souriau_equivariance(rng):
    # F(R L) = r F(L) r^T
    for _ in range(25):
        n = int(rng.integers(1, 4))
        L = random_lagrangian(n, rng)
        r = random_unitary(n, rng).entries
        moved = LagrangianFrame(embed_unitary(r).entries @ L.columns)
        lhs = souriau_map(moved).entries
        rhs = r @ souriau_map(L).entries @ r.T
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_souriau_frame_choice_invariance(rng):
    # same subspace, different frame => same w
    for _ in range(10):
        n = int(rng.integers(1, 4))
        L = random_lagrangian(n, rng)
        G = rng.normal(size=(n, n)) + np.eye(n) * 2
        L2 = LagrangianFrame(L.columns @ G)
        assert np.max(np.abs(souriau_map(L).entries - souriau_map(L2).entries)) < 1e-9


def test_souriau_images_stack_matches_single_frames(rng):
    for n in (1, 2, 3):
        Ls = [random_lagrangian(n, rng) for _ in range(5)]
        V, w = souriau_images(np.array([L.columns for L in Ls]))
        assert V.shape == w.shape == (5, n, n)
        for L, wk in zip(Ls, w):
            assert np.array_equal(souriau_map(L).entries, wk)
        assert np.max(np.abs(w + V @ np.swapaxes(V, 1, 2))) < 1e-15


def test_souriau_images_name_the_first_bad_frame(rng):
    F = np.array([random_lagrangian(2, rng).columns for _ in range(4)])
    F[2] = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]  # q1 and p1: not isotropic
    with pytest.raises(InvariantViolation, match="frame 2 "):
        souriau_images(F)
    F[2], F[3, 0, 0] = F[0], np.nan
    with pytest.raises(InvariantViolation, match="frame 3 "):
        souriau_images(F)


def test_inverse_souriau_examples():
    assert same_span(lagrangian_from_souriau(np.array([[1.0 + 0j]])), l0_frame(1))
    assert same_span(lagrangian_from_souriau(np.array([[-1.0 + 0j]])), line_frame(0.0))
    assert same_span(lagrangian_from_souriau(np.eye(2, dtype=complex)), l0_frame(2))


def test_inverse_souriau_round_trip(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        L = random_lagrangian(n, rng)
        w = souriau_map(L)
        back = lagrangian_from_souriau(w)
        assert same_span(back, L)
        assert np.max(np.abs(souriau_map(back).entries - w.entries)) < 1e-9


def test_inverse_souriau_rejects_bad_input():
    with pytest.raises(InvariantViolation):
        lagrangian_from_souriau(np.array([[0.0 + 0j, 1.0], [0.5, 0.0]]))


def test_intersection_dim_examples():
    assert intersection_dim(l0_frame(1), l0_frame(1)) == 1
    assert intersection_dim(l0_frame(1), line_frame(0.0)) == 0
    L1 = l0_frame(2)
    L2 = LagrangianFrame(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    assert intersection_dim(L1, L2) == 1
    # oracle: nullspace of the stacked frame via SVD
    F = np.hstack([L1.columns, L2.columns])
    sv = np.linalg.svd(F, compute_uv=False)
    assert 4 - int(np.sum(sv > 1e-10)) == 1


def test_intersection_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        intersection_dim(l0_frame(1), l0_frame(2))


def test_intersection_dim_symmetry_and_gl_invariance(rng):
    for _ in range(25):
        n = int(rng.integers(1, 4))
        L1, L2 = random_lagrangian(n, rng), random_lagrangian(n, rng)
        d = intersection_dim(L1, L2)
        assert d == intersection_dim(L2, L1)
        G = rng.normal(size=(n, n)) + 3 * np.eye(n)
        assert d == intersection_dim(LagrangianFrame(L1.columns @ G), L2)


def test_transversality_criterion_cross_check(rng):
    # dim of the intersection equals the multiplicity of eigenvalue 1 of w1 w2^{-1}
    for _ in range(30):
        n = int(rng.integers(1, 4))
        L1, L2 = random_lagrangian(n, rng), random_lagrangian(n, rng)
        d1 = intersection_dim(L1, L2)
        d2 = souriau_intersection_dim(souriau_map(L1), souriau_map(L2))
        assert d1 == d2
    # and in a degenerate configuration
    assert souriau_intersection_dim(souriau_map(l0_frame(2)),
                                    souriau_map(l0_frame(2))) == 2


def test_frame_validation():
    with pytest.raises(InvariantViolation):
        # 2-plane in R^4 that is not isotropic
        LagrangianFrame(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(InvariantViolation):
        LagrangianFrame(np.zeros((2, 1)))


def test_symplectic_wrapper():
    with pytest.raises(InvariantViolation):
        SymplecticMatrix(np.diag([2.0, 1.0]))
    S = SymplecticMatrix(np.diag([2.0, 0.5]))
    assert S.n == 1
    assert np.allclose(S.inverse().entries, np.diag([0.5, 2.0]))


def test_unitary_from_symplectic_round_trip(rng):
    U = random_unitary(3, rng).entries
    S = embed_unitary(U)
    assert np.max(np.abs(unitary_from_symplectic(S) - U)) < 1e-12
    with pytest.raises(InvariantViolation):
        unitary_from_symplectic(SymplecticMatrix(np.diag([2.0, 0.5])))


def test_kahler_pair_and_tolerances():
    # g0(u, v) = omega(u, J0 v) is the standard inner product
    I4 = np.eye(4)
    assert np.max(np.abs(omega_gram(I4, standard_j(2) @ I4) - I4)) < 1e-15
    with pytest.raises(InvariantViolation):
        Tolerances(residual_tol=0.0)
    assert Tolerances().rank_floor(4) >= 4 * np.finfo(float).eps
