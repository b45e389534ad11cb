"""Index checks: triple signature, Leray index, path lifting, CLM index."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from maslov.core import (DEFAULT_TOLERANCES, LagrangianFrame, SymplecticMatrix,
                         Tolerances, UnitaryComplex, embed_unitary, intersection_dim,
                         l0_frame, lagrangian_from_souriau, line_frame,
                         random_lagrangian, random_unitary, souriau_map)
from maslov.errors import (ConditioningError, DimensionMismatch, InvariantViolation,
                           TransversalityError)
from maslov.index import (CoverPoint, DeckAction, LagrangianPath, _leray,
                          clm_index, cover_action, induced_lagrangian_path,
                          kashiwara_signature, leray_index, leray_transverse,
                          lift_path, mu_hat_on_cover, random_cover_point)


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


def reference_transverse(x, y, tol=DEFAULT_TOLERANCES):
    """The closed Souriau form of a transverse pair, on its own eigenvalues."""
    lam = np.linalg.eigvals(x.w @ np.linalg.inv(y.w))
    assert np.min(np.abs(lam - 1.0)) >= tol.rank_floor(x.n) * 100
    val = (x.theta - y.theta - np.sum(np.angle(-lam))) / np.pi
    mu = round(val)
    assert abs(val - mu) <= tol.phase_tol and (mu - x.n) % 2 == 0
    return mu


def reference_leray_index(x, y, tol=DEFAULT_TOLERANCES):
    """The cocycle as a sweep over 32 candidate lifts z = (e^{2 i phi} I,
    2 n phi), two eigvals per candidate, and five frames: x and y twice
    each, z once."""
    n = x.n
    lam = np.linalg.eigvals(x.w @ np.linalg.inv(y.w))
    if np.min(np.abs(lam - 1.0)) > tol.rank_floor(n) * 100:
        return reference_transverse(x, y, tol)
    best_phi, best_gap = None, 0.0
    for k in range(32):
        phi = np.pi * (k + 0.414) / 32.0
        gap = min(np.min(np.abs(np.linalg.eigvals(x.w * np.exp(-2j * phi)) - 1.0)),
                  np.min(np.abs(np.linalg.eigvals(y.w * np.exp(-2j * phi)) - 1.0)))
        if gap > best_gap:
            best_phi, best_gap = phi, gap
    assert best_phi is not None and best_gap >= tol.rank_floor(n) * 100
    z = CoverPoint(np.exp(2j * best_phi) * np.eye(n), 2.0 * n * best_phi, tol)
    tau = kashiwara_signature(x.frame(), y.frame(), z.frame(), tol)
    mu = reference_transverse(x, z, tol) - reference_transverse(y, z, tol) + tau
    assert (mu - (n - intersection_dim(x.frame(), y.frame(), tol))) % 2 == 0, \
        "cocycle parity"
    return mu


def numpy_leray(wx, wy, dtheta, tol):
    """(mu, k, s) of _leray in its earlier all-numpy form: every step after
    the eigensolve a numpy call on the eigenvalue array."""
    lam = np.linalg.eigvals(wx @ np.linalg.inv(wy))
    g = np.abs(lam - 1.0)
    s = (g / 2) / np.sqrt(1 + np.sqrt(np.maximum(1 - g ** 2 / 4, 0.0)))
    k = int(np.sum(s <= tol.rank_floor(2 * len(s))))
    trlog = np.sum(np.log(-lam[np.argsort(g)[k:]]))
    val = (dtheta + (1j * trlog).real) / np.pi
    mu = round(val)
    if abs(val - mu) > tol.phase_tol:
        raise ConditioningError(
            "Leray index = %.12g is not within phase_tol of an integer" % val)
    if (mu - len(lam) + k) % 2:
        raise ConditioningError("Leray parity violated: mu = %d with %d eigenvalues "
                                "away from 1" % (mu, len(lam) - k))
    return int(mu), k, np.sort(s)


def cover_pair_meeting_in(n, k, rng, shifts, near=False):
    """Cover points x, y over n whose planes meet in dimension k: w_y = r r^T
    and w_x = r D r^T for a random unitary r and D = diag(1 (k times),
    e^{i a_j}) with a_j away from 0, so w_x w_y^{-1} = r D r^* has the
    eigenvalue 1 k times.  With near, each of those k eigenvalues is moved
    to e^{+-i eps} with eps = 10^U(-12, -5), across the rank cuts.  Each
    theta is the principal one plus a deck shift."""
    r = random_unitary(n, rng).entries
    a = rng.uniform(0.3, 2 * np.pi - 0.3, size=n - k)
    at_one = np.ones(k)
    if near:
        eps = rng.choice([-1.0, 1.0], size=k) * 10.0 ** rng.uniform(-12, -5, size=k)
        at_one = np.exp(1j * eps)
    D = np.diag(np.concatenate([at_one, np.exp(1j * a)]))
    ws = [r @ D @ r.T, r @ r.T]
    return [CoverPoint(w, float(np.angle(np.linalg.det(w))) + 2 * np.pi * s)
            for w, s in zip(ws, shifts)]


def frame_stack(frames):
    """The (N, 2n, n) stack of the columns of LagrangianFrame objects."""
    return np.array([F.columns for F in frames])


def circle_tangent_path(turns=1.0, k=300, start=0.0):
    ts = np.linspace(start, start + 2 * np.pi * turns, k)
    return LagrangianPath(frame_stack([line_frame(t + np.pi / 2) for t in ts])), ts


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_kashiwara_is_blind_to_the_basis_of_each_frame(n, seed, data):
    # planes 1 and 2 share k lines; each frame is also given in a scaled and
    # sheared basis G (upper triangular, diagonal in [0.1, 10])
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(0, n))
    r = random_unitary(n, rng).entries
    a = np.concatenate([np.zeros(k), rng.uniform(0.3, 2 * np.pi - 0.3, n - k)])
    ws = [r @ r.T, (r * np.exp(1j * a)) @ r.T, random_cover_point(n, rng).w]
    frames = [lagrangian_from_souriau(w) for w in ws]
    skewed = []
    for F in frames:
        G = np.triu(rng.normal(size=(n, n)), 1) + np.diag(10.0 ** rng.uniform(-1, 1, n))
        skewed.append(LagrangianFrame(F.columns @ G))
    tau = kashiwara_signature(*frames)
    assert kashiwara_signature(*skewed) == tau == kashiwara_oracle(*skewed)
    x, y, z = (CoverPoint(w, float(np.angle(np.linalg.det(w)))) for w in ws)
    assert leray_index(x, y) - leray_index(x, z) + leray_index(y, z) == tau


def test_kashiwara_dimension_mismatch():
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
    # the coboundary through any z transverse to both planes, and through
    # any lift of it, gives the Leray index of a pair that meets in any k
    for _ in range(50):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(0, n + 1))
        x, y = cover_pair_meeting_in(n, k, rng, rng.integers(-3, 4, size=2))
        z = random_cover_point(n, rng)  # generic: transverse to both planes
        zs = DeckAction(int(rng.integers(-3, 4)))(z)
        tau = kashiwara_signature(x.frame(), y.frame(), z.frame())
        v1 = reference_transverse(x, z) - reference_transverse(y, z) + tau
        v2 = reference_transverse(x, zs) - reference_transverse(y, zs) + tau
        assert v1 == v2 == leray_index(x, y)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(n + 1)])
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shifts=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       near=st.booleans())
def test_leray_index_matches_the_reference_cocycle(n, k, seed, shifts, near):
    x, y = cover_pair_meeting_in(n, k, np.random.default_rng(seed), shifts, near)
    d = intersection_dim(x.frame(), y.frame())
    assert near or d == k
    mu = leray_index(x, y)
    # the s_j of the eigenvalues are the n small singular values of the
    # stacked orthonormal frames, and k is intersection_dim away from its cut
    mu_s, k_s, s = _leray(x.w, y.w, x.theta - y.theta, DEFAULT_TOLERANCES)
    sv = np.linalg.svd(np.hstack([x.frame().columns, y.frame().columns]), compute_uv=False)
    assert mu_s == mu and np.max(np.abs(s - np.sort(sv)[:n])) <= 1e-12
    floor = DEFAULT_TOLERANCES.rank_floor(2 * n)
    if np.all(np.abs(s - floor) > 1e-6 * floor):
        assert k_s == d
    # leray_transverse decides transversality by the same k
    if k_s == 0:
        assert leray_transverse(x, y) == mu
    else:
        with pytest.raises(TransversalityError):
            leray_transverse(x, y)
    try:
        ref = reference_leray_index(x, y)
    except AssertionError as err:
        # an eigenvalue near the rank cut, where the cocycle's Kashiwara cut
        # and the singular-value cut of intersection_dim disagree
        assert near and "cocycle parity" in str(err)
        assert (mu - (n - d)) % 2 == 0
        assert leray_index(DeckAction(2)(x), DeckAction(-1)(y)) == mu + 6
    else:
        assert mu == ref
    assert leray_index(y, x) == -mu


#: eigenvalue angles a (lam = e^{i a}) of w_x w_y^{-1} that the kernel
#: property draws: exactly 1, half and twice the rank cut on either side
#: (s ~ |a| / (2 sqrt 2)), -1, and a pool of generic angles that repeat
_CUT_ANGLE = 2 * math.sqrt(2) * DEFAULT_TOLERANCES.rank_floor(2)
_ANGLES = st.one_of(
    st.sampled_from([0.0, math.pi]),
    st.sampled_from([0.5, 2.0]).flatmap(
        lambda c: st.sampled_from([-c * _CUT_ANGLE, c * _CUT_ANGLE])),
    st.sampled_from([0.7, -0.7, 2.9]),
    st.floats(-math.pi, math.pi))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data(),
       shifts=st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_leray_kernel_matches_the_numpy_form(n, seed, data, shifts):
    # the scalar tail of _leray makes the decisions of the all-numpy form:
    # the same (mu, k) or the same error, and s within 1e-15
    a = np.array(data.draw(st.lists(_ANGLES, min_size=n, max_size=n)))
    r = random_unitary(n, np.random.default_rng(seed)).entries
    x, y = (CoverPoint(w, float(np.angle(np.linalg.det(w))) + 2 * np.pi * s)
            for w, s in zip([(r * np.exp(1j * a)) @ r.T, r @ r.T], shifts))
    outcomes = []
    for kernel in (_leray, numpy_leray):
        try:
            outcomes.append(kernel(x.w, y.w, x.theta - y.theta, DEFAULT_TOLERANCES))
        except ConditioningError as err:
            outcomes.append(str(err))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
    else:
        assert got[:2] == want[:2] and type(got[0]) is int
        assert np.max(np.abs(got[2] - want[2])) <= 1e-15


def test_leray_index_follows_intersection_dim_at_the_rank_cut():
    # n = 1, w_x = e^{i eps}, w_y = 1: below the singular-value cut of
    # intersection_dim (|lam - 1| near 2.8e-8) the lines meet, d = 1, and mu
    # is the deck shift; above it the eigenvalue is kept and adds sign(eps),
    # the one-sided limit of the transverse form
    y = CoverPoint(np.array([[1.0 + 0j]]), 0.0)
    seen = set()
    for eps in (1e-9, 2e-8, 4e-8, 1e-7, 1e-5):
        for sign in (-1, 1):
            for s in (-1, 0, 2):
                x = CoverPoint(np.array([[np.exp(1j * sign * eps)]]),
                               sign * eps + 2 * np.pi * s)
                d = intersection_dim(x.frame(), y.frame())
                seen.add(d)
                assert leray_index(x, y) == 2 * s + sign * (1 - d) == -leray_index(y, x)
    assert seen == {0, 1}


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


def test_cover_action_rejects_a_nan_phi_by_name():
    # the phase check fails on NaN rather than letting it reach theta
    x = CoverPoint(np.eye(2), 0.0)
    with pytest.raises(InvariantViolation, match="^phi is not a lift of arg det r$"):
        cover_action(np.eye(2), float("nan"), x)


def test_cover_action_rejects_a_misshapen_r_by_type():
    # a non-square r and an r of another n are named before any det or product
    x = CoverPoint(np.eye(2), 0.0)
    for r in (np.ones((2, 3)), np.eye(3), np.eye(2)[0]):
        with pytest.raises(DimensionMismatch, match="acts on points of shape"):
            cover_action(r, 0.0, x)


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


@pytest.mark.parametrize("build, asymmetric", [
    (lambda w: CoverPoint(w, 0.0), "cover point needs a symmetric w"),
    (lagrangian_from_souriau, "Souriau matrix must be symmetric"),
    (UnitaryComplex, "not unitary: ||U*U - I||_inf = 7.500e-01")])
@pytest.mark.parametrize("w, message", [
    ([[0.0, 1.0], [0.5, 0.0]], None),
    (2 * np.eye(2), "not unitary: ||U*U - I||_inf = 3.000e+00"),
    (np.ones((2, 3)), "unitary matrix must be square"),
    (np.ones(3), "unitary matrix must be square"),
    ([[np.nan]], "not unitary: ||U*U - I||_inf = nan")])
def test_souriau_matrix_checks_name_the_failure(build, asymmetric, w, message):
    # one check serves CoverPoint, lagrangian_from_souriau and UnitaryComplex
    # (which does not ask for symmetry); a non-square w is an
    # InvariantViolation before any symmetry test
    message = message or asymmetric
    with pytest.raises(InvariantViolation) as err:
        build(np.array(w, dtype=complex))
    assert str(err.value) == message


def test_deck_action_keeps_the_tolerances():
    loose = Tolerances(phase_tol=0.5)
    x = CoverPoint([[1j]], 1.4, loose)
    assert DeckAction(1)(x, loose).theta == 1.4 + 2 * np.pi
    with pytest.raises(InvariantViolation):
        DeckAction(1)(x)


def test_cover_point_rejects_nan():
    with pytest.raises(InvariantViolation):
        CoverPoint(np.array([[1.0 + 0j]]), np.nan)
    with pytest.raises(InvariantViolation):
        CoverPoint(np.array([[np.nan + 0j]]), 0.0)


# ---------------------------------------------------------------------------
# path lifting and the CLM index


def test_lift_constant_path():
    path = LagrangianPath(frame_stack([line_frame(0.4)] * 5))
    theta = lift_path(path)
    assert theta.shape == (5,)
    assert np.allclose(theta, theta[0])


def test_lift_circle_tangent_loop_winding():
    path, ts = circle_tangent_path(1.0, 300)
    theta = lift_path(path)
    assert abs((theta[-1] - theta[0]) - 4 * np.pi) < 1e-9
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
    path = LagrangianPath(frame_stack(frames))
    theta = lift_path(path)
    assert abs((theta[-1] - theta[0]) - 4 * np.pi) < 1e-9


def test_clm_constant_path():
    assert clm_index(LagrangianPath(frame_stack([line_frame(0.4)] * 4))) == 0


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
        assert clm_index(LagrangianPath(frame_stack(frames))) == 2


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


def test_path_takes_a_frame_stack_not_a_frame_list():
    ts = np.linspace(0.0, 2 * np.pi, 12)
    frames = [line_frame(t + np.pi / 2) for t in ts]
    with pytest.raises(InvariantViolation, match=r"^frames must form an \(N, 2n, n\) stack$"):
        LagrangianPath(frames)
    from_stack = LagrangianPath(frame_stack(frames))
    assert len(from_stack.frames) == len(from_stack) == len(from_stack.params) == 12
    # every sample's frame spans the Lagrangian of its image
    for k in range(len(from_stack)):
        L = from_stack.frames[k]
        assert isinstance(L, LagrangianFrame)
        assert np.max(np.abs(souriau_map(L).entries - from_stack.souriau[k])) < 1e-12


@pytest.mark.parametrize("params", [[0.0, np.nan, 1.0], [0.0, 0.5, np.inf],
                                    [-np.inf, 0.0, 1.0], [0.0, 0.5, 0.5], [0.0, 1.0]])
def test_path_params_must_be_finite_and_increasing(params):
    frames = frame_stack([line_frame(a) for a in (0.0, 0.3, 0.6)])
    with pytest.raises(InvariantViolation,
                       match="^params must be finite and strictly increasing, one per frame$"):
        LagrangianPath(frames, params=params)


def test_path_refinement_kicks_in():
    # a deliberately coarse loop lifts correctly from its samples alone
    path, _ = circle_tangent_path(1.0, 12)
    assert clm_index(path) == 2
