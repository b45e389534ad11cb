"""Index checks: triple signature, Leray index, path lifting, CLM index."""

import numpy as np
import pytest
import scipy.linalg

from maslov.core import (DEFAULT_TOLERANCES, LagrangianFrame, SymplecticMatrix,
                         embed_unitary, intersection_dim, l0_frame, line_frame,
                         random_lagrangian, random_unitary, souriau_map)
from maslov.errors import InvariantViolation, TransversalityError
from maslov.index import (CoverPoint, DeckAction, LagrangianPath, clm_index,
                          cover_action, induced_lagrangian_path,
                          kashiwara_signature, leray_index, leray_transverse,
                          lift_path, mu_hat_on_cover, random_cover_point,
                          _auxiliary_transverse)


# ---------------------------------------------------------------------------
# independent oracles


def kashiwara_oracle(F1, F2, F3):
    """Brute-force assembly of the triple form matrix via explicit loops
    (the implemented convention ends the sum with omega(z1, z3))."""
    n = F1.n
    J = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    omega = lambda a, b: float((J @ a) @ b)
    cols = [F.orthonormalized().columns for F in (F1, F2, F3)]
    M = np.zeros((3 * n, 3 * n))
    for i in range(3 * n):
        for j in range(3 * n):
            zi = [np.zeros(2 * n)] * 3
            zj = [np.zeros(2 * n)] * 3
            zi[i // n] = cols[i // n][:, i % n]
            zj[j // n] = cols[j // n][:, j % n]
            val = 0.0
            for a, b in ((zi, zj), (zj, zi)):
                val += omega(a[0], b[1]) + omega(a[1], b[2]) + omega(a[0], b[2])
            M[i, j] = val / 2.0
    ev = np.linalg.eigvalsh(M)
    return int(np.sum(ev > 1e-8) - np.sum(ev < -1e-8))


def circle_tangent_path(turns=1.0, k=300, start=0.0):
    ts = np.linspace(start, start + 2 * np.pi * turns, k)
    return LagrangianPath([line_frame(t + np.pi / 2) for t in ts]), ts


# ---------------------------------------------------------------------------
# kashiwara signature


def test_kashiwara_degenerate_triple():
    L = line_frame(0.7)
    assert kashiwara_signature(L, L, L) == 0


def test_kashiwara_reference_triple():
    # coboundary-pinned sign convention: this triple evaluates to -1
    t = kashiwara_signature(line_frame(0.0), line_frame(np.pi / 4),
                            line_frame(np.pi / 2))
    assert t == kashiwara_oracle(line_frame(0.0), line_frame(np.pi / 4),
                                 line_frame(np.pi / 2))
    assert t == -1


def test_kashiwara_matches_oracle_random(rng):
    for _ in range(15):
        n = int(rng.integers(1, 4))
        Ls = [random_lagrangian(n, rng) for _ in range(3)]
        assert kashiwara_signature(*Ls) == kashiwara_oracle(*Ls)


def test_kashiwara_dimension_mismatch():
    from maslov.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        kashiwara_signature(line_frame(0.0), line_frame(1.0), l0_frame(2))


def test_kashiwara_swap_antisymmetry(rng):
    for _ in range(20):
        Ls = [random_lagrangian(1, rng) for _ in range(3)]
        t = kashiwara_signature(*Ls)
        assert kashiwara_signature(Ls[1], Ls[0], Ls[2]) == -t
        assert kashiwara_signature(Ls[0], Ls[2], Ls[1]) == -t


# ---------------------------------------------------------------------------
# Leray index


def test_leray_transverse_hand_value():
    x = CoverPoint(np.array([[-1.0 + 0j]]), np.pi)
    y = CoverPoint(np.array([[1.0 + 0j]]), 0.0)
    assert leray_transverse(x, y) == 1


def test_leray_transverse_rejects_intersecting():
    x = CoverPoint(np.array([[1.0 + 0j]]), 0.0)
    with pytest.raises(TransversalityError):
        leray_transverse(x, x)


def test_leray_deck_shift_example(rng):
    alpha, alpha2 = 0.3, 1.1
    x = CoverPoint(np.array([[-np.exp(2j * alpha)]]), 2 * alpha - np.pi + 2 * np.pi)
    y = CoverPoint(np.array([[-np.exp(2j * alpha2)]]), 2 * alpha2 - np.pi)
    base = CoverPoint(np.array([[-np.exp(2j * alpha)]]), 2 * alpha - np.pi)
    assert leray_transverse(x, y) == leray_transverse(base, y) + 2


def test_leray_generator_shifts(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        x = random_cover_point(n, rng)
        y = random_cover_point(n, rng)
        mu = leray_index(x, y)
        for r in range(-2, 3):
            for rp in range(-2, 3):
                assert leray_index(DeckAction(r)(x), DeckAction(rp)(y)) == mu + 2 * (r - rp)


def test_leray_equal_arguments(rng):
    for n in (1, 2, 3):
        x = random_cover_point(n, rng)
        assert leray_index(x, x) == 0


def test_leray_auxiliary_lift_independence(rng):
    # the coboundary formula gives the same value for any lift of the
    # auxiliary Lagrangian
    for _ in range(50):
        n = int(rng.integers(1, 3))
        x = random_cover_point(n, rng)
        y = random_cover_point(n, rng)
        z = _auxiliary_transverse(x, y, DEFAULT_TOLERANCES)
        zs = DeckAction(3)(z)
        tau = kashiwara_signature(x.frame(), y.frame(), z.frame())
        v1 = leray_transverse(x, z) - leray_transverse(y, z) + tau
        v2 = leray_transverse(x, zs) - leray_transverse(y, zs) + tau
        assert v1 == v2 == leray_index(x, y)


def test_leray_coboundary(rng):
    for n in (1, 2, 3):
        for _ in range(40):
            x, y, z = (random_cover_point(n, rng) for _ in range(3))
            lhs = leray_index(x, y) - leray_index(x, z) + leray_index(y, z)
            assert lhs == kashiwara_signature(x.frame(), y.frame(), z.frame())


def test_leray_antisymmetry_transverse(rng):
    done = 0
    while done < 20:
        n = int(rng.integers(1, 4))
        x, y = random_cover_point(n, rng), random_cover_point(n, rng)
        try:
            mu = leray_transverse(x, y)
        except TransversalityError:
            continue
        assert leray_transverse(y, x) == -mu
        done += 1


def test_leray_symplectic_invariance(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        x, y = random_cover_point(n, rng), random_cover_point(n, rng)
        r = random_unitary(n, rng).entries
        phi = float(np.angle(np.linalg.det(r))) + 2 * np.pi * int(rng.integers(-2, 3))
        assert leray_index(cover_action(r, phi, x), cover_action(r, phi, y)) \
            == leray_index(x, y)


def test_leray_parity(rng):
    for _ in range(40):
        n = int(rng.integers(1, 4))
        x, y = random_cover_point(n, rng), random_cover_point(n, rng)
        d = intersection_dim(x.frame(), y.frame())
        assert (leray_index(x, y) - (n - d)) % 2 == 0


def test_leray_local_constancy(rng):
    for _ in range(20):
        n = int(rng.integers(1, 3))
        x, y = random_cover_point(n, rng), random_cover_point(n, rng)
        try:
            mu = leray_transverse(x, y)
        except TransversalityError:
            continue
        # small Souriau-space perturbation of x, theta continued
        H = rng.normal(size=(n, n)) * 1e-4
        r = np.asarray(scipy.linalg.expm(1j * (H + H.T) / 2))
        w2 = r @ x.w @ r.T
        dtheta = np.angle(np.linalg.det(w2)) - np.angle(np.linalg.det(x.w))
        dtheta = (dtheta + np.pi) % (2 * np.pi) - np.pi
        x2 = CoverPoint(w2, x.theta + dtheta)
        assert leray_transverse(x2, y) == mu


def test_cover_point_validation():
    with pytest.raises(InvariantViolation):
        CoverPoint(np.array([[1.0 + 0j]]), 0.5)
    with pytest.raises(InvariantViolation):
        CoverPoint(np.array([[0.0 + 0j, 1.0], [0.5, 0.0]]), 0.0)


# ---------------------------------------------------------------------------
# path lifting and the CLM index


def test_lift_constant_path():
    path = LagrangianPath([line_frame(0.4)] * 5)
    lifts = lift_path(path, np.angle(np.linalg.det(path.souriau[0])))
    assert np.allclose([p.theta for p in lifts], lifts[0].theta)


def test_lift_circle_tangent_loop_winding():
    path, ts = circle_tangent_path(1.0, 300)
    lifts = lift_path(path, 0.0)
    assert abs((lifts[-1].theta - lifts[0].theta) - 4 * np.pi) < 1e-9
    # oracle: dense accumulation of principal steps of arg det w
    alphas = ts + np.pi / 2
    dets = -np.exp(2j * alphas)
    fine = np.linspace(0, 2 * np.pi, 10 ** 4)
    dets = -np.exp(2j * (fine + np.pi / 2))
    args = np.angle(dets)
    steps = (np.diff(args) + np.pi) % (2 * np.pi) - np.pi
    assert abs(steps.sum() - 4 * np.pi) < 1e-6


def test_lift_product_path_multiplicative():
    # circle-tangent loop times a fixed line: same total winding
    ts = np.linspace(0, 2 * np.pi, 400)
    frames = []
    fixed = line_frame(1.0).columns
    for t in ts:
        a = t + np.pi / 2
        F = np.zeros((4, 2))
        F[0, 0], F[2, 0] = np.cos(a), np.sin(a)
        F[1, 1], F[3, 1] = fixed[0, 0], fixed[1, 0]
        frames.append(LagrangianFrame(F))
    path = LagrangianPath(frames)
    lifts = lift_path(path, float(np.angle(np.linalg.det(path.souriau[0]))))
    assert abs((lifts[-1].theta - lifts[0].theta) - 4 * np.pi) < 1e-9


def test_lift_rejects_wrong_theta0():
    path, _ = circle_tangent_path(1.0, 100)
    with pytest.raises(InvariantViolation):
        lift_path(path, 1.0)


def test_clm_constant_path():
    assert clm_index(LagrangianPath([line_frame(0.4)] * 4)) == 0


def test_clm_circle_loop_with_crossing_oracle():
    path, ts = circle_tangent_path(1.0, 400)
    assert clm_index(path) == 2
    assert clm_index(path) % 4 == 2
    # oracle: transversal crossings of the tangent-angle path with the
    # reference line (the endpoint tangent), each counted with the sign of
    # the angular velocity; the loop crosses twice, positively
    alphas = ts + np.pi / 2
    ref = alphas[-1]
    rel = np.mod(alphas - ref, np.pi)
    crossings = 0
    for k in range(len(rel) - 1):
        d = rel[k + 1] - rel[k]
        if d < -np.pi / 2:   # wrapped through 0 with positive velocity
            crossings += 1
        elif d > np.pi / 2:  # wrapped with negative velocity
            crossings -= 1
    assert crossings == 2


def test_clm_concatenated_loop():
    path, _ = circle_tangent_path(2.0, 700)
    assert clm_index(path) == 4


def test_clm_homotopy_invariance(rng):
    # fixed-endpoint reparametrizations and small admissible perturbations
    for _ in range(20):
        k = 300
        s = np.linspace(0, 1, k)
        bump = rng.uniform(0.02, 0.2) * np.sin(np.pi * s * int(rng.integers(1, 4))) ** 2
        ts = 2 * np.pi * np.clip(s + bump * s * (1 - s), 0, 1)
        ts = np.sort(ts)
        ts[0], ts[-1] = 0.0, 2 * np.pi
        frames = [line_frame(t + np.pi / 2) for t in ts]
        assert clm_index(LagrangianPath(frames)) == 2


def test_mu_hat_on_cover_constant():
    path = [SymplecticMatrix(np.eye(2))] * 3
    assert mu_hat_on_cover(path, l0_frame(1)) == 0


def rotation_path(t_end, k):
    return [SymplecticMatrix(np.array([[np.cos(t), -np.sin(t)],
                                       [np.sin(t), np.cos(t)]]))
            for t in np.linspace(0.0, t_end, k)]


def test_mu_hat_on_cover_rotation_loop():
    path = rotation_path(2 * np.pi, 200)
    mu = mu_hat_on_cover(path, l0_frame(1))
    assert abs(mu) == 4
    assert mu % 8 == 4
    # consistency with the CLM route
    tangent = induced_lagrangian_path(path, l0_frame(1))
    assert (2 * clm_index(tangent)) % 8 == 4


def test_mu_hat_on_cover_matches_clm_random(rng):
    for _ in range(50):
        n = int(rng.integers(1, 3))
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        H = (X - X.conj().T) / 2
        scale = rng.uniform(0.5, 5.0)
        K = 40
        path = [SymplecticMatrix(embed_unitary(
            np.asarray(scipy.linalg.expm(scale * t * H))).entries)
            for t in np.linspace(0, 1, K)]
        L = random_lagrangian(n, rng)
        mu = mu_hat_on_cover(path, L)
        induced = induced_lagrangian_path(path, L)
        d = intersection_dim(induced.frames[0], induced.frames[-1])
        assert mu % 8 == (2 * clm_index(induced) + (n - d)) % 8


def test_path_from_frame_stack_matches_frame_list():
    ts = np.linspace(0.0, 2 * np.pi, 12)  # coarse: refinement inserts midpoints
    frames = [line_frame(t + np.pi / 2) for t in ts]
    from_list = LagrangianPath(frames)
    from_stack = LagrangianPath(np.array([f.columns for f in frames]))
    assert np.array_equal(from_list.souriau, from_stack.souriau)
    assert len(from_stack.frames) == len(from_stack) == len(from_stack.params) > 12
    # every sample's frame, midpoints included, spans the Lagrangian of its image
    for k in range(len(from_stack)):
        L = from_stack.frames[k]
        assert isinstance(L, LagrangianFrame)
        assert np.max(np.abs(souriau_map(L).entries - from_stack.souriau[k])) < 1e-12


def test_path_refinement_kicks_in():
    # deliberately coarse loop still lifts correctly after auto-refinement
    path, _ = circle_tangent_path(1.0, 12)
    assert clm_index(path) == 2
    assert len(path) > 12
