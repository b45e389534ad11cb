"""Substrate checks: the unitary embedding, the Souriau identification and its
inverse, and intersection dimensions."""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import maslov
from maslov.core import (LagrangianFrame, SymplecticMatrix, Tolerances,
                         UnitaryComplex, _unitarity_residuals, embed_unitary, intersection_dim,
                         l0_frame, lagrangian_from_souriau, line_frame,
                         omega_gram, random_lagrangian, random_unitary,
                         souriau_images, souriau_map, standard_j,
                         unitaries_from_symplectic)
from maslov.errors import DimensionMismatch, InvariantViolation
from maslov.index import LagrangianPath
from maslov.metaplectic import ground_state, lift_frame_path_trace


def same_span(F1, F2):
    return intersection_dim(F1, F2) == F1.n


def souriau_intersection_dim(w1, w2, tol=Tolerances()):
    """Intersection dimension read off the Souriau images: the multiplicity of
    eigenvalue 1 of w1 w2^{-1} (cross-check of intersection_dim)."""
    lam = np.linalg.eigvals(w1.entries @ np.linalg.inv(w2.entries))
    return int(np.sum(np.abs(lam - 1.0) < tol.rank_floor(w1.n) * 100))


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
        F = np.array([L.columns for L in Ls])
        w = souriau_images(F)
        assert w.shape == (5, n, n)
        for L, wk in zip(Ls, w):
            assert np.array_equal(souriau_map(L).entries, wk)
        V = F[:, :n] + 1j * F[:, n:]  # random_lagrangian frames are orthonormal
        assert np.max(np.abs(w + V @ np.swapaxes(V, 1, 2))) < 1e-15
        # the unitaries of the same orthonormal frames enter with no QR
        assert np.max(np.abs(souriau_images(V) - w)) < 1e-15


def test_souriau_images_name_the_first_bad_frame(rng):
    F = np.array([random_lagrangian(2, rng).columns for _ in range(4)])
    F[2] = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]  # q1 and p1: not isotropic
    with pytest.raises(InvariantViolation, match="at frame 2$"):
        souriau_images(F)
    F[2], F[3, 0, 0] = F[0], np.nan
    with pytest.raises(InvariantViolation, match="at frame 3$"):
        souriau_images(F)


def test_souriau_images_check_frame_unitaries(rng):
    V = np.array([random_unitary(2, rng).entries for _ in range(5)])
    for bad in (np.concatenate([V, V], axis=1), V[0], V[..., None]):  # not (N, n, n)
        with pytest.raises(InvariantViolation, match=r"^frame unitaries must form"):
            souriau_images(bad)
    W = V.copy()
    W[3, 1, 0] += 1e-6  # off unitary: neither orthonormal nor isotropic
    with pytest.raises(InvariantViolation,
                       match=r"^not Lagrangian: unitarity residual \d\.\d{3}e-0[67] at frame 3$"):
        souriau_images(W)
    W[3], W[1, 0, 1] = V[3], np.nan
    for route in (souriau_images, LagrangianPath):
        with pytest.raises(InvariantViolation,
                           match=r"^not Lagrangian: unitarity residual nan at frame 1$"):
            route(W)


def near_unitary_stack(n, size, rng):
    """Random unitaries, each scaled off U(n) by up to 1e-3."""
    V = np.array([random_unitary(n, rng).entries for _ in range(size)])
    return V * (1 + rng.uniform(-1e-3, 1e-3, size))[:, None, None]


@given(n=st.integers(1, 4), size=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_products_match_one_matrix_at_a_time(n, size, seed):
    # the single-pass products are the 2-D ones up to summation order: a few
    # ulp of the entries, which are about 1
    V = near_unitary_stack(n, size, np.random.default_rng(seed))
    direct = [np.abs(Vk.conj().T @ Vk - np.eye(n)).max() for Vk in V]
    assert np.max(np.abs(_unitarity_residuals(V) - direct)) <= 4 * n * np.finfo(float).eps
    w = souriau_images(V, Tolerances(residual_tol=1e-2))
    direct = [-(Vk @ Vk.T + (Vk @ Vk.T).T) / 2 for Vk in V]
    assert np.max(np.abs(w - direct)) <= 4 * n * np.finfo(float).eps


def test_stacked_unitarity_residual_keeps_a_nan_entry(rng):
    V = near_unitary_stack(3, 6, rng)
    V[4, 2, 1] = complex(np.nan, 0.0)
    resid = _unitarity_residuals(V)
    assert np.isnan(resid[4]) and np.all(np.isfinite(np.delete(resid, 4)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_boundary_checks_name_the_one_non_unitary_sample(n, rng):
    # LagrangianPath and the lift each check their whole stack at the public
    # boundary: one bad sample, off by 1e-7 or NaN, is named
    V = np.array([random_unitary(n, rng).entries for _ in range(7)])
    Us = V @ V[0].conj().T  # starts at I
    for bad in (1 + 1e-7, np.nan):
        W, U = V.copy(), Us.copy()
        W[5] *= bad
        U[5] *= bad
        with pytest.raises(InvariantViolation,
                           match=r"^not Lagrangian: unitarity residual .* at frame 5$"):
            LagrangianPath(W)
        with pytest.raises(InvariantViolation, match=r"^not unitary: residual .* at sample 5$"):
            lift_frame_path_trace(U, ground_state(n))
    lift_frame_path_trace(Us, ground_state(n))
    LagrangianPath(V)


@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize("name", ["residual_tol", "rank_tol", "phase_tol"])
def test_tolerances_must_be_finite_and_positive(name, value):
    with pytest.raises(InvariantViolation, match="%s must be finite" % name):
        Tolerances(**{name: value})


def test_infinite_phase_tol_no_longer_admits_a_wrong_lift():
    # theta = 2.9 is no lift of arg det(i) = pi/2; with phase_tol = inf the
    # cover point was accepted and the Leray index came out as -1
    from maslov.index import CoverPoint
    with pytest.raises(InvariantViolation):
        CoverPoint(np.array([[1j]]), 2.9, Tolerances(phase_tol=np.inf))
    with pytest.raises(InvariantViolation, match="not a lift"):
        CoverPoint(np.array([[1j]]), 2.9)


@pytest.mark.parametrize("columns", [[[np.nan], [0.0]], [[np.inf], [0.0]],
                                     [[1.0, 0.0], [0.0, -np.inf], [0.0, 0.0], [0.0, 1.0]]])
def test_frame_rejects_non_finite_columns(columns):
    with pytest.raises(InvariantViolation, match="frame entries must be finite"):
        LagrangianFrame(columns)


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


def symmetric_unitary(seed, phases):
    """Q diag(e^{i phases}) Q^T for a seeded real orthogonal Q."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(phases),) * 2))
    return (Q * np.exp(1j * np.asarray(phases))) @ Q.T


@pytest.mark.parametrize("phases", [
    # cos a - cos b = 1.05e-7: nearly coincident real parts
    [0.6, -(0.6 - 1.05e-7 / np.sin(0.6)), 2.0],
    # e^{i(1 + 0.8)} and e^{i(1 - 0.8)}: a double eigenvalue of every
    # combination cos 1 Re w + sin 1 Im w
    [1.8, 0.2, 2.5],
    [0.7, 0.7, -1.1],
])
def test_inverse_souriau_round_trip_on_clustered_spectra(phases):
    for seed in range(20):
        w = symmetric_unitary(seed, phases)
        F = lagrangian_from_souriau(w).columns
        assert np.max(np.abs(F.T @ F - np.eye(3))) < 1e-13
        assert np.max(np.abs(souriau_map(LagrangianFrame(F)).entries - w)) < 1e-13


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


def test_matrix_types_reject_nan():
    with pytest.raises(InvariantViolation):
        UnitaryComplex(np.array([[np.nan]]))
    with pytest.raises(InvariantViolation):
        SymplecticMatrix(np.full((2, 2), np.nan))
    with pytest.raises(InvariantViolation):
        SymplecticMatrix(np.diag([1.0, np.nan]))


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


def test_symplectic_product_and_inverse_keep_the_tolerance():
    # a matrix accepted under a loose residual_tol, or a product of entries
    # checked under it, is inverted under it, not under the defaults;
    # equality ignores it
    loose, a = Tolerances(residual_tol=1e-6), 1 + 1e-7
    S = SymplecticMatrix(np.diag([a, 1.0, 1.0, 1.0]), loose)
    SS = SymplecticMatrix(S.entries @ S.entries, loose)
    assert np.array_equal(S.inverse().entries, np.diag([1.0, 1.0, a, 1.0]))
    SSS = SymplecticMatrix(SS.entries @ S.entries, loose)
    assert np.array_equal(SSS.inverse().entries, np.diag([1.0, 1.0, a * a * a, 1.0]))
    with pytest.raises(InvariantViolation, match="2.000e-07"):
        SymplecticMatrix(SS.entries)
    with pytest.raises(InvariantViolation, match="1.000e-07"):
        SymplecticMatrix(S.inverse().entries)
    assert [f.name for f in dataclasses.fields(S)] == ["entries", "n"]


def test_unitary_from_symplectic_round_trip(rng):
    U = random_unitary(3, rng).entries
    S = embed_unitary(U)
    assert np.max(np.abs(unitaries_from_symplectic([S])[0] - U)) < 1e-12
    with pytest.raises(InvariantViolation):
        unitaries_from_symplectic([SymplecticMatrix(np.diag([2.0, 0.5]))])


def test_kahler_pair_and_tolerances():
    # g0(u, v) = omega(u, J0 v) is the standard inner product
    I4 = np.eye(4)
    assert np.max(np.abs(omega_gram(I4, standard_j(2) @ I4) - I4)) < 1e-15
    with pytest.raises(InvariantViolation):
        Tolerances(residual_tol=0.0)
    assert Tolerances().rank_floor(4) >= 4 * np.finfo(float).eps


def test_only_core_converts_outside_numbers():
    # core._numbers and core._integer are the one place that turns numpy's
    # TypeError and ValueError into typed errors; a module catching either
    # (or everything) would hold a converter of its own
    broad = {"TypeError", "ValueError", "Exception", "BaseException"}
    catchers = set()
    for path in pathlib.Path(maslov.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and (node.type is None or broad & {
                    n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}):
                catchers.add(path.stem)
    assert catchers == {"core"}
