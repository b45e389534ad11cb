"""Chart, transport and verifier checks."""

import re
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

from lift_oracle import reference_lift
from maslov import geometry, metaplectic
from maslov.core import (_SCREEN_MARGIN, DEFAULT_TOLERANCES,
                         embed_unitary, intersection_dim, line_frame,
                         random_lagrangian, random_unitary)
from maslov.errors import (CaseError, ConditioningError, ImmersionError,
                           InvariantViolation, SamplingError, StateDomainError)
from maslov.geometry import (FRAME_INCREMENT_BOUND, LagrangianChart, ParamPath,
                             TransportResult, circle_chart, curve_chart_from_series,
                             flat_plane_chart, fourth_root_label, gradient_graph_chart,
                             product_torus_chart, tangent_lagrangian_path,
                             transport_frame, verify_corollary1,
                             verify_theorem1, verify_theorem2,
                             _gram_schmidt, _running_products,
                             _screened_transfers, _tangent_bases, _transfers)
from maslov.index import LagrangianPath, clm_index, lift_path
from maslov.metaplectic import ground_state, lift_frame_path_trace, pin_branch_orthogonal


def phase_of(report):
    return complex(report["phase"][0], report["phase"][1])


def induced_metric(chart, u):
    """Pullback metric Jac^T Jac of the ambient inner product at u."""
    J = chart.jac(u)
    return J.T @ J


# ---------------------------------------------------------------------------
# charts and metric


def test_induced_metric_circle():
    assert np.allclose(induced_metric(circle_chart(), [0.7]), [[1.0]])
    assert np.allclose(induced_metric(circle_chart(2.0), [0.7]), [[4.0]])


def test_induced_metric_gradient_graph():
    chart = gradient_graph_chart(phi_coeffs=[0.0, 0.0, 0.5])  # phi = u^2/2
    assert np.allclose(induced_metric(chart, [1.3]), [[2.0]])
    # oracle: finite-difference Jacobian route
    from maslov.geometry import LagrangianChart
    fd = LagrangianChart(1, point=chart.point, jacobian=None, tag="custom")
    assert np.allclose(induced_metric(fd, [1.3]), [[2.0]], atol=1e-8)


def test_induced_metric_torus_identity():
    chart = product_torus_chart()
    assert np.allclose(induced_metric(chart, [0.2, 1.1]), np.eye(2))


def test_chart_lagrangian_validation():
    chart = product_torus_chart()
    chart.check([0.3, 0.4])
    # a non-Lagrangian surface: (u1, u2, u2, 0) has dq2 ^ dp1 = du2 ^ du2 ... use
    # (u1, u2) -> (u1, u2, u2, u1): omega pullback = du1^du2 + du2^du1 = 0; make
    # it fail with (u1, u2, u2, 2 u1)
    from maslov.geometry import LagrangianChart
    bad = LagrangianChart(2, point=lambda us: us[:, [0, 1, 1, 0]] * [1.0, 1.0, 1.0, 2.0],
                          jacobian=None, tag="custom")
    with pytest.raises(InvariantViolation):
        bad.check([0.1, 0.2])


def test_custom_series_chart_matches_circle():
    chart = curve_chart_from_series({"cos": [[1.0, 1.0]]}, {"sin": [[1.0, 1.0]]})
    ref = circle_chart()
    for u in (0.0, 0.4, 2.2):
        assert np.allclose(chart.at([u]), ref.at([u]))
        assert np.allclose(chart.jac([u]), ref.jac([u]))


def builtin_charts(n, rng):
    """Every built-in chart of dimension n, with seeded parameters."""
    A = rng.normal(size=(n, n))
    charts = [gradient_graph_chart(hessian=A + A.T),
              flat_plane_chart(random_lagrangian(n, rng))]
    if n == 1:
        a, b, c = rng.uniform(0.2, 1.5, 3)
        charts += [circle_chart(rng.uniform(0.5, 3.0)),
                   gradient_graph_chart(phi_coeffs=rng.normal(size=5)),
                   curve_chart_from_series({"cos": [[1, a], [3, b]], "poly": [0.1, c]},
                                           {"sin": [[1, a], [2, -b]], "cos": [[2, c]]}),
                   curve_chart_from_series({}, {"sin": [[2, a]]})]
    if n == 2:
        charts.append(product_torus_chart(rng.uniform(0.5, 2.0, 2)))
    return charts


@given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_jacobian_matches_differences_of_stacked_point(n, seed):
    rng = np.random.default_rng(seed)
    us = rng.uniform(-3.0, 3.0, size=(7, n))
    h = 1e-5
    for chart in builtin_charts(n, rng):
        J, X = chart.jacobians(us), chart.points(us)
        assert J.shape == (7, 2 * n, n) and X.shape == (7, 2 * n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd = (chart.point(us + e) - chart.point(us - e)) / (2 * h)
            assert np.max(np.abs(J[:, :, j] - fd)) < 1e-6, chart.tag
        # the finite-difference fallback differentiates the stacked point
        fallback = LagrangianChart(n, point=chart.point, tag="custom")
        assert np.max(np.abs(fallback.jacobians(us) - J)) < 1e-6, chart.tag
        for k, u in enumerate(us):
            assert np.array_equal(J[k], chart.jac(u)), chart.tag
            assert np.allclose(chart.at(u), X[k], rtol=0, atol=1e-12)


def reference_transfers(Ba, Bb):
    """Polar factor and spectral step norm ||Bb P - Ba||_2, two SVDs."""
    U, _, Wh = np.linalg.svd(np.swapaxes(Bb, 1, 2) @ Ba)
    P = U @ Wh
    return P, np.linalg.norm(Bb @ P - Ba, ord=2, axis=(1, 2))


def as_basis(V):
    return np.concatenate([V.real, V.imag], axis=-2)


def rotated_bases(n, angle, rng):
    """Segments from the plane of V to that of exp(i a H) V, ||H||_2 = 1, one
    per angle a, with a random orthogonal change of basis at the end: the
    largest principal angle of each segment is a."""
    k = len(angle)
    V = np.array([random_unitary(n, rng).entries for _ in range(k)])
    X = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    H = X + np.conj(np.swapaxes(X, 1, 2))
    H /= np.linalg.norm(H, ord=2, axis=(1, 2))[:, None, None]
    lam, E = np.linalg.eigh(H)
    W = (E * np.exp(1j * angle[:, None] * lam)[:, None, :]) @ np.conj(np.swapaxes(E, 1, 2))
    O = np.linalg.qr(rng.normal(size=(k, n, n)))[0]
    return as_basis(V), as_basis(W @ V @ O)


@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_transfers_match_two_svd_reference(n, seed):
    # up to the screen's edge, the largest angle whose segment it can leave
    # open (every 1 - s_i^2 <= n (1 + margin)^2 bound^2), the Newton-Schulz
    # transfer and the Gram step are the SVD ones to rounding; past it, up
    # to 0.5, the step still exceeds the bound, which is all bisection reads
    rng = np.random.default_rng(seed)
    edge = np.arcsin(np.sqrt(n) * (1 + _SCREEN_MARGIN) * FRAME_INCREMENT_BOUND)
    angle = 10.0 ** np.linspace(-7.0, np.log10(edge), 8)
    Ba, Bb = rotated_bases(n, angle, rng)
    P, step = _transfers(Ba, Bb)
    P_ref, step_ref = reference_transfers(Ba, Bb)
    assert np.max(np.abs(P - P_ref)) <= 1e-14
    assert np.max(np.abs(step - step_ref)) <= 1e-14
    past = np.linspace(edge, 0.5, 5)[1:]
    assert np.all(_transfers(*rotated_bases(n, past, rng))[1] > FRAME_INCREMENT_BOUND)
    # identical bases: zero to machine precision (sqrt(2 (1 - s_min)) gives ~3e-8)
    assert np.max(_transfers(Ba, Ba)[1]) <= 1e-14


# a measure at (1 + rel) times its threshold: on both sides of the screens'
# margin (1e-6), and within 1e-9 of the threshold
RELS = (-0.5, -1e-3, -2e-6, -5e-7, -1e-9, 0.0, 1e-9, 5e-7, 2e-6, 1e-3, 0.5)


@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), equal=st.booleans())
def test_transfer_bound_screens_only_bisected_segments(n, seed, equal):
    # segments whose largest step sqrt(2 (1 - cos theta_i)) is (1 + rel) times
    # FRAME_INCREMENT_BOUND, the other principal angles equal to it or smaller
    rng = np.random.default_rng(seed)
    k = len(RELS)
    share = np.ones((k, n)) if equal else rng.uniform(0.0, 1.0, (k, n))
    share[:, 0] = 1.0
    theta = 2 * np.arcsin(FRAME_INCREMENT_BOUND * (1 + np.array(RELS))[:, None] * share / 2)
    Q = np.linalg.qr(rng.normal(size=(k, 2 * n, 2 * n)))[0]
    O = np.linalg.qr(rng.normal(size=(k, n, n)))[0]
    Ba = Q[:, :, :n]
    Bb = (Ba * np.cos(theta)[:, None, :] + Q[:, :, n:] * np.sin(theta)[:, None, :]) @ O
    P, step = _screened_transfers(Ba, Bb)
    P_ref, step_ref = _transfers(Ba, Bb)
    screened = np.all(np.isnan(P), axis=(1, 2))
    settled = ~screened & (np.linalg.norm(Bb @ P_ref - Ba, axis=(1, 2))
                           <= (1 - _SCREEN_MARGIN) * FRAME_INCREMENT_BOUND)
    # a screened segment is bisected on its exact step too, and its bound is
    # a lower bound of that step; the others carry the exact transfer, and
    # the exact step unless the upper bound ||D||_F settled them unbisected
    assert np.all(step_ref[screened] > FRAME_INCREMENT_BOUND)
    assert np.all(step[screened] <= step_ref[screened])
    assert np.all(step_ref[settled] <= FRAME_INCREMENT_BOUND)
    assert np.array_equal(P[~screened], P_ref[~screened])
    assert np.array_equal(step[~screened & ~settled], step_ref[~screened & ~settled])
    if n == 1:  # the bound is sqrt((1 + s)/2) times the step: 1 - 1.25e-5 here
        assert np.array_equal(screened, np.array(RELS) >= 1e-3)


@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), equal=st.booleans())
def test_step_norm_screen_settles_only_unbisected_segments(n, seed, equal):
    # segments whose step matrices D = Bb P - Ba have ||D||_F = (1 + rel)
    # FRAME_INCREMENT_BOUND, the chords 2 sin(theta_i / 2) of the principal
    # angles in the proportions of a unit vector: the upper bound
    # ||D||_F >= ||D||_2 settles exactly the segments under the bound by the
    # margin (rel <= -2e-6), on that bound and with no eigensolve, and leaves
    # the rest to the exact step; every bisection decision is the exact one
    rng = np.random.default_rng(seed)
    k, rel = len(RELS), np.array(RELS)
    share = np.ones((k, n)) if equal else rng.uniform(0.1, 1.0, (k, n))
    share /= np.linalg.norm(share, axis=1, keepdims=True)
    theta = 2 * np.arcsin(FRAME_INCREMENT_BOUND * (1 + rel)[:, None] * share / 2)
    Q = np.linalg.qr(rng.normal(size=(k, 2 * n, 2 * n)))[0]
    O = np.linalg.qr(rng.normal(size=(k, n, n)))[0]
    Ba = Q[:, :, :n]
    Bb = (Ba * np.cos(theta)[:, None, :] + Q[:, :, n:] * np.sin(theta)[:, None, :]) @ O
    P, step = _screened_transfers(Ba, Bb)
    P_ref, step_ref = _transfers(Ba, Bb)
    assert np.array_equal(step <= FRAME_INCREMENT_BOUND, step_ref <= FRAME_INCREMENT_BOUND)
    lower = np.all(np.isnan(P), axis=(1, 2))
    settled, exact = rel < -_SCREEN_MARGIN, ~(rel < -_SCREEN_MARGIN) & ~lower
    assert not np.any(lower[settled])
    assert np.array_equal(P[~lower], P_ref[~lower])
    assert np.allclose(step[settled], FRAME_INCREMENT_BOUND * (1 + rel[settled]),
                       rtol=1e-12, atol=0.0)
    assert np.all(step_ref[settled] <= step[settled] * (1 + 1e-15))
    assert np.array_equal(step[exact], step_ref[exact])


@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_start_relative_and_lift_products_match_the_broadcast_ones(n, seed):
    # V_0^* V_k and the lift's W_k = U_k U_0^*, each one 2-D product over the
    # stack, against numpy's broadcast matmul of one matrix at a time
    rng = np.random.default_rng(seed)
    V = np.array([random_unitary(n, rng).entries for _ in range(40)])
    U = TransportResult(np.linspace(0.0, 1.0, 40), V, None, 0, 0.0, 0.0, 0.0).start_relative
    assert U.flags.c_contiguous and np.max(np.abs(U - V[0].conj().T @ V)) <= 1e-15
    H = random_unitary(n, rng).entries
    lam = rng.uniform(-2.0, 2.0, n)
    Us = np.array([(H * np.exp(1j * t * lam)) @ H.conj().T for t in np.linspace(0.0, 1.0, 5)])
    W = metaplectic._lift(Us, ground_state(n), DEFAULT_TOLERANCES)[2]
    assert np.max(np.abs(W - Us @ Us[0].conj().T)) <= 1e-15


def q_plane_chart(As):
    """A chart whose Jacobian at the parameter (j, 0, ..., 0) is [A_j; 0]:
    the q-plane, isotropic for every A_j."""
    J = np.concatenate([As, np.zeros_like(As)], axis=1)
    return LagrangianChart(As.shape[-1], point=lambda us: us @ J[0].T,
                           jacobian=lambda us: J[us[:, 0].astype(int)])


def householder_q(J):
    """The Q of LAPACK's Householder QR of a stack, column signs fixed by
    sign(diag R)."""
    Q, R = np.linalg.qr(J)
    return Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]


@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_chart_check_screen_keeps_the_rank_decision(n, seed):
    # triangular factors scaled to sigma_min = (1 + rel) rank_floor; the
    # bound certifies the far ones at every n, and near ones at n = 1 only
    rng = np.random.default_rng(seed)
    floor = DEFAULT_TOLERANCES.rank_floor(2 * n)
    rels = np.array(RELS + (1e2, 1e4))
    As = np.triu(rng.normal(size=(len(rels), n, n))) + 2 * np.eye(n)
    As *= (floor * (1 + rels) / np.linalg.svd(As, compute_uv=False)[:, -1])[:, None, None]
    chart = q_plane_chart(As)
    us = np.zeros((len(As), n))
    us[:, 0] = np.arange(len(As))
    J = chart.jacobians(us)
    full = np.linalg.svd(J, compute_uv=False)[:, -1] >= floor
    for j in range(len(As)):
        if full[j]:
            chart.check(us[j])
        else:
            with pytest.raises(ImmersionError, match="rank deficient"):
                chart.check(us[j])
    # on the stack, the first rank-deficient parameter is named
    with pytest.raises(ImmersionError, match=r"at u = \[%d\.( 0\.)*\]$" % np.argmin(full)):
        _tangent_bases(chart, us, DEFAULT_TOLERANCES)
    B = _tangent_bases(chart, us[full], DEFAULT_TOLERANCES)
    assert np.array_equal(B, _gram_schmidt(J[full])[0])
    assert np.max(np.abs(B - householder_q(J[full]))) <= 2e-15


@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_gram_schmidt_matches_the_householder_q(n, seed):
    # random Jacobians: each Q is exact to rounding times cond(J), so they
    # agree within 2e-15 cond(J); the curved charts' Jacobians within 2e-15
    rng = np.random.default_rng(seed)
    J = rng.normal(size=(64, 2 * n, n))
    Q, r = _gram_schmidt(J)
    assert np.max(np.abs(np.swapaxes(Q, 1, 2) @ Q - np.eye(n))) <= 1e-15
    scale = 2e-15 * np.linalg.cond(J)
    assert np.all(np.max(np.abs(Q - householder_q(J)), axis=(1, 2)) <= scale)
    d = np.abs(np.diagonal(np.linalg.qr(J)[1], axis1=1, axis2=2))
    assert np.all(np.max(np.abs(r - d), axis=1) <= scale * np.linalg.norm(J, axis=(1, 2)))
    if n in CURVED_LOOPS:
        waves, loop = CURVED_LOOPS[n]
        J = cosine_gradient_chart(waves).jacobians(loop(rng.uniform(0.0, 2 * np.pi, 64)))
        Q = _gram_schmidt(J)[0]
        assert np.max(np.abs(np.swapaxes(Q, 1, 2) @ Q - np.eye(n))) <= 1e-15
        assert np.max(np.abs(Q - householder_q(J))) <= 2e-15


@pytest.mark.parametrize("n, kind", [(n, kind) for n in (1, 2, 3, 4)
                                     for kind in ("zero", "parallel", "nan")
                                     if n > 1 or kind != "parallel"])
def test_chart_check_names_a_degenerate_jacobian_without_warnings(n, kind, rng):
    # a zero first column, a last column parallel to the first up to 1e-12,
    # or a NaN entry at parameter 3 of 5 full-rank Lagrangian Jacobians: the
    # same error and parameter as with the Householder QR
    J = np.array([random_lagrangian(n, rng).columns @ (rng.normal(size=(n, n)) + 3 * np.eye(n))
                  for _ in range(5)])
    if kind == "zero":
        J[3, :, 0] = 0.0
    elif kind == "parallel":
        J[3, :, n - 1] = 2 * J[3, :, 0] + 1e-12 * J[3, :, 1]
    else:
        J[3, 1, 0] = np.nan
    chart = LagrangianChart(n, point=lambda us: np.zeros((len(us), 2 * n)),
                            jacobian=lambda us: J[us[:, 0].astype(int)])
    us = np.zeros((5, n))
    us[:, 0] = np.arange(5)
    message = "not finite" if kind == "nan" else "rank deficient"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ImmersionError, match=r"%s at u = \[3\.( 0\.)*\]$" % message):
            _tangent_bases(chart, us, DEFAULT_TOLERANCES)
        _tangent_bases(chart, us[:3], DEFAULT_TOLERANCES)


def reference_dense_transport(chart, path, tol=DEFAULT_TOLERANCES, max_depth=30):
    """The dense parameters and frames of transport_frame's refinement with
    a rank SVD at every sample and the exact transfers of every segment (the
    running products are the library's, checked on their own below)."""
    def bases(us):
        J = chart.jacobians(us)
        assert np.all(np.linalg.svd(J, compute_uv=False)[:, -1] >= tol.rank_floor(2 * n))
        return _gram_schmidt(J)[0]

    u, n = path.samples, chart.n
    B = bases(u)
    t = np.arange(len(u)) / (len(u) - 1.0)
    P, step = _transfers(B[:-1], B[1:])
    for _ in range(max_depth):
        bad = np.flatnonzero(~(step <= FRAME_INCREMENT_BOUND))
        if not bad.size:
            break
        um, tm = (u[bad] + u[bad + 1]) / 2.0, (t[bad] + t[bad + 1]) / 2.0
        Bm = bases(um)
        P[bad], step[bad] = _transfers(B[bad], Bm)
        Pb, sb = _transfers(Bm, B[bad + 1])
        P, step = np.insert(P, bad + 1, Pb, axis=0), np.insert(step, bad + 1, sb)
        u, t = np.insert(u, bad + 1, um, axis=0), np.insert(t, bad + 1, tm)
        B = np.insert(B, bad + 1, Bm, axis=0)
    F = B @ _running_products(P)
    return t, F[:, :n] + 1j * F[:, n:]


def sequential_products(P):
    """G_0 = I, G_{k+1} = P_k G_k, one matmul at a time."""
    G = [np.eye(P.shape[-1])]
    for Pk in P:
        G.append(Pk @ G[-1])
    return np.array(G)


@given(n=st.integers(1, 4), steps=st.integers(1, 2500), seed=st.integers(0, 2 ** 32 - 1))
def test_running_products_match_the_sequential_loop(n, steps, seed):
    # the doubling scan reassociates the products: to rounding on orthogonal
    # transfers, and exactly on the diagonal +-1 ones of the built-in charts
    rng = np.random.default_rng(seed)
    P = np.linalg.qr(rng.normal(size=(steps, n, n)))[0]
    assert np.max(np.abs(_running_products(P) - sequential_products(P))) <= 1e-13
    D = rng.choice([-1.0, 1.0], size=(steps, n))[:, :, None] * np.eye(n)
    assert np.array_equal(_running_products(D), sequential_products(D))


ORACLE_PATHS = {
    "circle": (circle_chart(1.3), ParamPath.circle_arc(1.0, 7)),
    "product_torus": (product_torus_chart((1.0, 0.7)), ParamPath.torus_loop((1, 2), 9)),
    "trig_series": (curve_chart_from_series({"cos": [[1, 1.0], [3, 0.2]]},
                                            {"sin": [[1, 0.8]], "poly": [0.1]}),
                    ParamPath.line([0.0], [2 * np.pi], 11, closed=True)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_PATHS) + ["gradient_graph_n3"])
def test_screens_leave_the_dense_path_unchanged_and_the_lift_on_the_reference(name):
    # the dense grid and frames, bit for bit, against the loops that take
    # every SVD and eigensolve; the ground-state lift along them within
    # rounding of the reference lift, which bisects and steps one at a time
    if name == "gradient_graph_n3":
        waves, loop = CURVED_LOOPS[3]
        chart = cosine_gradient_chart(waves)
        path = ParamPath(loop(np.linspace(0.0, 2 * np.pi, 8)), closed=True)
    else:
        chart, path = ORACLE_PATHS[name]
    tr = transport_frame(chart, path)
    t, V = reference_dense_transport(chart, path)
    assert len(t) > 2 * len(path.samples)  # refinement ran
    assert np.array_equal(tr.params, t) and np.array_equal(tr.frames, V)
    # start_relative is one 2-D product, equal to the broadcast one to
    # rounding; both lifts take it
    U = tr.start_relative
    assert np.max(np.abs(U - V[0].conj().T @ V)) <= 1e-15
    c, M, _ = lift_frame_path_trace(U, ground_state(chart.n))
    c_ref, M_ref = reference_lift(U, ground_state(chart.n))
    assert np.max(np.abs(c - c_ref)) <= 1e-12 and np.max(np.abs(M - M_ref)) <= 1e-12


# ---------------------------------------------------------------------------
# transport


def test_transport_flat_plane_is_trivial():
    chart = flat_plane_chart(line_frame(0.4))
    tr = transport_frame(chart, ParamPath.line([0.0], [2.0], 20))
    assert tr.frames.shape == (len(tr.params), 1, 1)
    assert np.max(np.abs(tr.frames - tr.frames[0])) < 1e-12
    assert np.max(np.abs(tr.start_relative - 1.0)) < 1e-12


def test_transport_circle_full_loop():
    tr = transport_frame(circle_chart(), ParamPath.circle_arc(1.0, 300))
    # the frame unitaries V(t) turn as e^{it}, the embedding of rotation R(t)
    U = tr.start_relative[:, 0, 0]
    assert abs(U[-1] - 1.0) < 1e-10
    assert np.max(np.abs(tr.frames[-1] - tr.frames[0])) < 1e-10
    mid = len(U) // 2
    tmid = tr.params[mid] * 2 * np.pi
    assert abs(U[mid] - np.exp(1j * tmid)) < 1e-6
    assert np.max(np.abs(np.abs(U) - 1.0)) < 1e-12


def test_transport_quarter_circle_rotation():
    tr = transport_frame(circle_chart(), ParamPath.circle_arc(0.25, 100))
    assert abs(tr.start_relative[-1, 0, 0] - 1j) < 1e-10


def test_transport_residuals_and_refinement():
    tr = transport_frame(circle_chart(), ParamPath.circle_arc(1.0, 40))
    assert tr.orthonormality_residual < 1e-7
    assert tr.tangency_residual < 1e-7
    assert tr.max_frame_step <= FRAME_INCREMENT_BOUND
    assert len(tr.frames) > 40  # refinement inserted samples


def cosine_gradient_chart(waves):
    """Graph u -> (u, grad phi(u)) of phi(u) = sum_j a_j cos(<k_j, u> + b_j):
    a Lagrangian chart whose Hessian is not constant and not diagonal."""
    n = len(waves[0][1])
    a = np.array([w[0] for w in waves])
    K = np.array([w[1] for w in waves], dtype=float)
    b = np.array([w[2] for w in waves])

    def point(us):
        return np.concatenate([us, -(a * np.sin(us @ K.T + b)) @ K], axis=1)

    def jac(us):
        H = -np.einsum("wi,nw,wj->nij", K, a * np.cos(us @ K.T + b), K)
        return np.concatenate([np.broadcast_to(np.eye(n), H.shape), H], axis=1)

    return LagrangianChart(n, point=point, jacobian=jac, tag="gradient_graph")


def reference_transport(chart, us):
    """Project each frame onto the next tangent space and orthonormalize it
    by its polar factor, one sample at a time."""
    def basis(u):
        Q, R = np.linalg.qr(chart.jac(u))
        return Q * np.sign(np.diagonal(R))

    frames = [basis(us[0])]
    for u in us[1:]:
        B = basis(u)
        W, _, Zh = np.linalg.svd(B @ (B.T @ frames[-1]), full_matrices=False)
        frames.append(W @ Zh)
    return np.array(frames)


CURVED_LOOPS = {
    2: ([(0.6, (1.0, 0.0), 0.3), (0.5, (0.0, 1.0), -0.4), (0.4, (1.0, 1.0), 0.1),
         (0.3, (2.0, -1.0), 0.7)],
        lambda t: np.stack([0.2 + np.cos(t), -0.1 + 0.8 * np.sin(t)], axis=1)),
    3: ([(0.5, (1.0, 0.0, 0.0), 0.2), (0.4, (0.0, 1.0, 1.0), -0.3),
         (0.4, (1.0, -1.0, 0.0), 0.5), (0.3, (0.0, 1.0, 2.0), 0.1)],
        lambda t: np.stack([np.cos(t), 0.7 * np.sin(t), 0.5 * np.sin(2 * t)], axis=1)),
}


@pytest.mark.parametrize("n", sorted(CURVED_LOOPS))
def test_transport_on_curved_gradient_graph(n):
    waves, loop = CURVED_LOOPS[n]
    chart = cosine_gradient_chart(waves)
    path = ParamPath(loop(np.linspace(0.0, 2 * np.pi, 120)), closed=True)
    tr = transport_frame(chart, path)
    N = len(path.samples)
    t = tr.params
    assert np.all(np.diff(t) > 0)
    assert np.all(np.isin(np.arange(N) / (N - 1.0), t))
    # batched frames against the sequential reference on the same dense samples
    us = np.stack([np.interp(t, np.linspace(0.0, 1.0, N), path.samples[:, j])
                   for j in range(n)], axis=1)
    F = reference_transport(chart, us)
    assert np.max(np.abs(tr.frames - (F[:, :n] + 1j * F[:, n:]))) < 1e-12
    step = np.linalg.norm(np.diff(F, axis=0), axis=1)
    assert np.max(step) <= FRAME_INCREMENT_BOUND
    assert tr.max_frame_step <= FRAME_INCREMENT_BOUND
    # a graph over the position plane never meets the vertical: mu = 0
    rep = verify_theorem1(chart, path)
    assert rep["mu_clm"] == 0 and rep["phase_label"] == "1"
    assert rep["pass"]


def test_transport_names_rank_deficient_point():
    # the Jacobian (u - 1/2, 0) vanishes at the middle sample only
    chart = LagrangianChart(1, point=lambda us: np.stack([(us[:, 0] - 0.5) ** 2 / 2,
                                                          0.0 * us[:, 0]], axis=1),
                            jacobian=lambda us: np.stack([us - 0.5, 0.0 * us], axis=1))
    with pytest.raises(ImmersionError, match=r"\[0\.5\]"):
        transport_frame(chart, ParamPath.line([0.0], [1.0], 11))


def test_chart_check_names_non_finite_jacobian():
    circle = circle_chart()
    nan_jacobian = LagrangianChart(1, point=circle.point,
                                   jacobian=lambda us: np.full((len(us), 2, 1), np.nan))
    with pytest.raises(ImmersionError, match="not finite"):
        nan_jacobian.check([0.3])
    # central differences of an infinite point are not finite either
    inf_point = LagrangianChart(
        1, point=lambda us: np.concatenate([us, np.full_like(us, np.inf)], axis=1))
    with pytest.raises(ImmersionError, match="not finite"), np.errstate(invalid="ignore"):
        inf_point.check([0.3])


def twisted_graph_chart():
    """q = u, p = (0, u1 u2): Lagrangian where u2 = 0 only, since the
    pullback of omega is u2 du1 ^ du2 up to sign."""
    return LagrangianChart(2, point=lambda us: np.stack(
        [us[:, 0], us[:, 1], 0.0 * us[:, 0], us[:, 0] * us[:, 1]], axis=1))


def test_chart_check_names_the_first_non_lagrangian_parameter():
    chart = twisted_graph_chart()
    chart.check([0.3, 0.0])
    with pytest.raises(InvariantViolation, match=r"not Lagrangian at u = \[0\.3 0\.1\]:"):
        chart.check([0.3, 0.1])
    # from u = (0.3, 0) the path leaves the Lagrangian locus at its second
    # sample, u = (0.3, 0.25): both routes name that parameter
    path = ParamPath.line([0.3, 0.0], [0.3, 1.0], 5)
    for route in (transport_frame, tangent_lagrangian_path):
        with pytest.raises(InvariantViolation,
                           match=r"^chart is not Lagrangian at u = \[0\.3  *0\.25\]:"):
            route(chart, path)


def test_transport_checks_refinement_midpoints():
    # Lagrangian at both samples, not at the midpoints transport inserts
    chart = LagrangianChart(2, point=lambda us: np.stack(
        [us[:, 0], us[:, 1], 0.0 * us[:, 0], us[:, 0] * np.sin(us[:, 1])], axis=1))
    with pytest.raises(InvariantViolation, match=r"^chart is not Lagrangian at u = \[0\.3 "):
        transport_frame(chart, ParamPath.line([0.3, 0.0], [0.3, np.pi], 2))


def test_unitarity_check_guards_frames_past_the_chart_cut():
    # a torus whose Jacobian leans 1e-7 off the Lagrangian locus: the pullback
    # residual 1e-7 |sin u1| passes the chart cut max(1e3 residual_tol, 1e-9),
    # so only the unitarity check at residual_tol on the path's frames sees it
    torus = product_torus_chart((1.0, 1.0))

    def jacobian(us):
        J = torus.jacobian(us)
        J[:, 2, 1] += 1e-7
        return J

    chart = LagrangianChart(2, point=torus.point, jacobian=jacobian)
    path = ParamPath.torus_loop((1, 1), 200)
    _tangent_bases(chart, path.samples, DEFAULT_TOLERANCES)
    # transport bisects twice, so dense frame 2 sits at u1 = pi / 199
    with pytest.raises(InvariantViolation,
                       match=r"^not Lagrangian: unitarity residual 1\.579e-09 at frame 2$"):
        transport_frame(chart, path)
    with pytest.raises(InvariantViolation,
                       match=r"^not Lagrangian: unitarity residual 3\.157e-09 at frame 1$"):
        tangent_lagrangian_path(chart, path)


def test_transport_rejects_non_finite_closing_point():
    circle = circle_chart()
    chart = LagrangianChart(1, point=lambda us: np.where(us < 6.0, circle.point(us), np.nan),
                            jacobian=circle.jacobian)
    with pytest.raises(InvariantViolation, match="endpoints differ by nan"):
        transport_frame(chart, ParamPath.circle_arc(1.0, 50))


def test_transport_refinement_exhaustion():
    path = ParamPath.circle_arc(1.0, 10)
    with pytest.raises(SamplingError, match="transport refinement exhausted"):
        transport_frame(circle_chart(), path, max_depth=2)
    assert transport_frame(circle_chart(), path).refinement_depth > 2


def test_negative_refinement_depths_raise_a_library_error():
    # a loop that needs no refinement and one that does
    for samples in (900, 6):
        with pytest.raises(SamplingError, match="refinement depth must be non-negative"):
            transport_frame(circle_chart(), ParamPath.circle_arc(1.0, samples), max_depth=-1)


def test_refinement_depths_must_be_integers():
    # a float, even an integral one, and a string are SamplingErrors naming
    # the value in transport; numpy integers are depths
    loop = ParamPath.circle_arc(1.0, 10)
    for depth in (3.0, 2.5, -1, "3"):
        message = re.escape("refinement depth must be non-negative and integral, got %r" % (depth,))
        with pytest.raises(SamplingError, match=message):
            transport_frame(circle_chart(), loop, max_depth=depth)
    assert transport_frame(circle_chart(), loop, max_depth=np.int64(30)).refinement_depth > 2


# ---------------------------------------------------------------------------
# tangent paths


def test_tangent_path_circle_winding():
    path = tangent_lagrangian_path(circle_chart(), ParamPath.circle_arc(1.0, 200))
    theta = lift_path(path)
    assert abs(theta[-1] - theta[0] - 4 * np.pi) < 1e-9


def test_tangent_path_flat_constant():
    chart = flat_plane_chart(line_frame(1.2))
    path = tangent_lagrangian_path(chart, ParamPath.line([0.0], [1.0], 10))
    assert clm_index(path) == 0


def test_tangent_path_torus_winding_multiplicative():
    chart = product_torus_chart()
    for a, b in ((1, 0), (1, 1), (2, 1)):
        path = tangent_lagrangian_path(chart, ParamPath.torus_loop((a, b), 200))
        theta = lift_path(path)
        assert abs(theta[-1] - theta[0] - 4 * np.pi * (a + b)) < 1e-8


def unitary_path(n, rng, k=9):
    """Frame unitaries U expm(i t H), t in [0, 1], of one random orthonormal
    Lagrangian frame turning in a random symmetric direction H, made unitary
    to rounding by a phase-fixed complex QR.  Some of its steps are too long
    for the wrapped det-phase difference, so the lift takes their
    eigenvalues."""
    U = random_unitary(n, rng).entries
    lam, E = np.linalg.eigh(rng.normal(size=(n, n)) + rng.normal(size=(n, n)).T)
    t = np.linspace(0.0, 1.0, k)
    Q, R = np.linalg.qr(U @ (E * np.exp(1j * t[:, None, None] * lam)) @ E.T)
    d = np.diagonal(R, axis1=1, axis2=2)
    return Q * (d / np.abs(d))[:, None, :]


def assert_same_path(V, params=None):
    """LagrangianPath of the frame unitaries V and of their real frame columns
    [Re V; Im V] give the same path, index and lift."""
    pv = LagrangianPath(V, params=params)
    pf = LagrangianPath(np.concatenate([V.real, V.imag], axis=1), params=params)
    assert len(pv) == len(pf) and np.array_equal(pv.params, pf.params)
    # the QR route moves each frame by its orthonormality residual plus
    # rounding, and each entry of w = -V V^T sums n products of the entries
    resid = np.max(np.abs(V.conj().swapaxes(1, 2) @ V - np.eye(V.shape[-1])))
    assert np.max(np.abs(pv.souriau - pf.souriau)) < 4e-15 + 2 * resid
    assert clm_index(pv) == clm_index(pf)
    # the same start and the same increment at every sample; the running
    # sums themselves part by more (1.3e-13 over the 1,889 torus-loop samples)
    tv, tf = lift_path(pv), lift_path(pf)
    assert abs(tv[0] - tf[0]) < 1e-15
    assert np.max(np.abs(np.diff(tv) - np.diff(tf))) < 2e-14
    return pv


def test_unitaries_and_frame_columns_build_the_same_path(rng):
    far = 0
    for n in (1, 2, 3, 4):
        w = assert_same_path(unitary_path(n, rng)).souriau
        assert len(w) == 9
        far += np.max(np.sqrt(n) * np.linalg.norm(np.diff(w, axis=0), axis=(1, 2))) >= 2
    assert far >= 1  # some steps took the eigenvalue increment, on both routes
    waves, loop = CURVED_LOOPS[3]
    for chart, path in ((circle_chart(1.3), ParamPath.circle_arc(1.0, 60)),
                        (product_torus_chart((1.0, 0.7)), ParamPath.torus_loop((1, 2), 60)),
                        (cosine_gradient_chart(waves),
                         ParamPath(loop(np.linspace(0.0, 2 * np.pi, 60)), closed=True))):
        tr = transport_frame(chart, path)
        pv = assert_same_path(tr.frames, tr.params)
        assert np.array_equal(pv.souriau, tr.tangent_path.souriau)


# ---------------------------------------------------------------------------
# theorem 1 and corollary 1


def test_theorem1_circle():
    rep = verify_theorem1(circle_chart(), ParamPath.circle_arc(1.0, 300))
    assert rep["mu_clm"] == 2 and rep["mu_clm_mod4"] == 2
    assert abs(phase_of(rep) + 1.0) < 1e-9
    assert rep["phase_label"] == "-1"
    assert rep["pass"]


def test_theorem1_flat_loop():
    chart = flat_plane_chart(line_frame(0.3))
    loop = ParamPath(np.array([[0.0], [1.0], [0.3], [0.0]]), closed=True)
    rep = verify_theorem1(chart, loop)
    assert rep["mu_clm"] == 0 and abs(phase_of(rep) - 1.0) < 1e-12
    assert rep["pass"]


def test_theorem1_torus_diagonal():
    rep = verify_theorem1(product_torus_chart(), ParamPath.torus_loop((1, 1), 400))
    assert rep["mu_clm"] == 4 and rep["mu_clm_mod4"] == 0
    assert abs(phase_of(rep) - 1.0) < 1e-9
    assert rep["pass"]


def test_theorem1_requires_closed_path():
    with pytest.raises(CaseError):
        verify_theorem1(circle_chart(), ParamPath.circle_arc(0.25, 50))


def test_corollary1_flat():
    chart = flat_plane_chart(line_frame(0.0))
    loop = ParamPath(np.array([[0.0], [1.0], [0.0]]), closed=True)
    rep = verify_corollary1(chart, [loop])
    assert rep["dim_parallel"] == 1


def test_corollary1_torus_generators():
    chart = product_torus_chart()
    rep = verify_corollary1(chart, [ParamPath.torus_loop((1, 0), 300),
                                    ParamPath.torus_loop((0, 1), 300)])
    assert rep["dim_parallel"] == 0
    assert [l["mu_clm"] for l in rep["loops"]] == [2, 2]


def test_corollary1_doubled_windings_exploratory():
    # doubled generators have indices 4 and 4: the criterion then passes on
    # this loop set (it no longer generates the fundamental group)
    chart = product_torus_chart()
    rep = verify_corollary1(chart, [ParamPath.torus_loop((2, 0), 500),
                                    ParamPath.torus_loop((0, 2), 500)])
    assert [l["mu_clm"] for l in rep["loops"]] == [4, 4]
    assert rep["dim_parallel"] == 1


# ---------------------------------------------------------------------------
# theorem 2


def tangent_endpoint_frames(chart, path):
    """The first and last frames of the tangent path that transport builds."""
    frames = transport_frame(chart, path).tangent_path.frames
    return frames[0], frames[-1]


def test_theorem2_quarter_arc():
    path = ParamPath.circle_arc(0.25, 80)
    rep = verify_theorem2(circle_chart(), path)
    assert rep["intersection_dim"] == intersection_dim(*tangent_endpoint_frames(circle_chart(), path))
    assert rep["case"] == "transverse"
    assert rep["mu_clm"] == 0
    assert rep["branch"] == 1
    assert rep["c_y"] > 0
    assert rep["dual_residual"] < 1e-9
    assert rep["lift_residual"] < 1e-9
    assert rep["phase_law_exact"]
    assert rep["corollary2_transversal"]["pass"]
    assert rep["pass"]


def test_theorem2_three_quarter_arc():
    path = ParamPath.circle_arc(0.75, 250)
    rep = verify_theorem2(circle_chart(), path)
    assert rep["intersection_dim"] == intersection_dim(*tangent_endpoint_frames(circle_chart(), path))
    assert rep["case"] == "transverse"
    assert rep["mu_clm"] == 1
    assert (rep["branch"] - rep["mu_clm"] - 1) % 4 == 0
    assert rep["pass"]


def test_theorem2_closed_loop_tangent_case():
    path = ParamPath.circle_arc(1.0, 300)
    rep = verify_theorem2(circle_chart(), path)
    assert rep["intersection_dim"] == intersection_dim(*tangent_endpoint_frames(circle_chart(), path))
    assert rep["case"] == "tangent"
    assert rep["mu_clm"] == 2
    # dual transport inverts the theorem-1 phase
    assert abs(complex(*rep["dual_prefactor"]) - np.exp(-1j * np.pi)) < 1e-9
    assert all(p["pass"] for p in rep["eigenstate_pairings"])
    assert rep["pass"]


def test_theorem2_constant_path():
    chart = circle_chart()
    path = ParamPath(np.array([[0.2], [0.2], [0.2]]), closed=True)
    rep = verify_theorem2(chart, path, levels=(0,))
    assert rep["intersection_dim"] == intersection_dim(*tangent_endpoint_frames(chart, path))
    assert rep["case"] == "tangent"
    assert rep["mu_clm"] == 0
    assert abs(complex(*rep["dual_prefactor"]) - 1.0) < 1e-12
    assert rep["pass"]


@pytest.mark.parametrize("delta", [4.24e-8, 1e-7])
def test_theorem2_near_degenerate_endpoint_raises(delta):
    # the endpoint tangent lines meet at an angle whose small singular value
    # lies in the near-degenerate window [floor, 10 floor); the transverse
    # branch pin then meets a Gaussian matrix with Re M at the rank floor
    path = ParamPath.line([0.0], [2 * np.pi + delta], 300)
    La, Lb = tangent_endpoint_frames(circle_chart(), path)
    sv = np.linalg.svd(np.hstack([La.columns, Lb.columns]), compute_uv=False)
    floor = DEFAULT_TOLERANCES.rank_floor(2)
    assert floor <= sv.min() < 10 * floor
    with pytest.raises(StateDomainError, match=r"Re\(M\) must be positive definite"):
        verify_theorem2(circle_chart(), path)


def test_theorem2_rejects_partial_intersection():
    chart = product_torus_chart()
    path = ParamPath.line([0.0, 0.0], [np.pi / 3, 0.0], 60)
    with pytest.raises(CaseError):
        verify_theorem2(chart, path)


def test_theorem2_tangent_case_decides_its_phase_once(monkeypatch):
    # a lifted phase off its fourth root by 50 phase_tol, between the label
    # cut (10 phase_tol) and the branch cut (100 phase_tol): labelled "none"
    # with that residual and pinned to the root, as fourth_root_label and
    # pin_branch_orthogonal decide it; 200 phase_tol off, the same
    # ConditioningError as pin_branch_orthogonal
    chart, loop = circle_chart(), ParamPath.circle_arc(1.0, 200)
    rep = verify_theorem2(chart, loop)
    assert rep["case"] == "tangent" and rep["lift_phase_label"] == "-1"
    lift = geometry.lift_frame_path_trace

    def tilted_lift(*args):
        c, M, polys = lift(*args)
        return c * turn, M, polys

    monkeypatch.setattr(geometry, "lift_frame_path_trace", tilted_lift)
    for tilt in (50, 200):
        turn = np.exp(1j * tilt * DEFAULT_TOLERANCES.phase_tol)
        phase = complex(*rep["lift_phase"]) * turn
        if tilt == 50:
            tilted = verify_theorem2(chart, loop)
            assert tilted["lift_phase_label"] == "none"
            assert (tilted["lift_phase_label"],
                    tilted["lift_phase_label_residual"]) == fourth_root_label(phase)
            assert tilted["branch"] == pin_branch_orthogonal(phase) == rep["branch"]
            assert tilted["pass"]
        else:
            with pytest.raises(ConditioningError) as err:
                pin_branch_orthogonal(phase)
            with pytest.raises(ConditioningError, match="^%s$" % re.escape(str(err.value))):
                verify_theorem2(chart, loop)


# ---------------------------------------------------------------------------
# invariants


def test_refinement_stability_of_verifiers():
    rep1 = verify_theorem1(circle_chart(), ParamPath.circle_arc(1.0, 150))
    rep2 = verify_theorem1(circle_chart(), ParamPath.circle_arc(1.0, 300))
    assert rep1["mu_clm"] == rep2["mu_clm"]
    assert abs(phase_of(rep1) - phase_of(rep2)) < 1e-6


def test_loop_composition_on_tangent_paths():
    chart = product_torus_chart()
    mu = {}
    for a in range(-2, 3):
        for b in range(-2, 3):
            if a == 0 and b == 0:
                continue
            path = tangent_lagrangian_path(chart, ParamPath.torus_loop((a, b), 80))
            mu[(a, b)] = clm_index(path)
    for (a, b), v in mu.items():
        assert v == a * mu[(1, 0)] + b * mu[(0, 1)]


def test_phase_law_catalog():
    # every catalog closed path satisfies phase = e^{i pi/2 mu}
    cases = [
        (circle_chart(), ParamPath.circle_arc(1.0, 300)),
        (circle_chart(0.5), ParamPath.circle_arc(1.0, 300)),
        (product_torus_chart(), ParamPath.torus_loop((1, 0), 300)),
        (product_torus_chart((2.0, 0.5)), ParamPath.torus_loop((1, -1), 400)),
    ]
    for chart, path in cases:
        rep = verify_theorem1(chart, path)
        predicted = np.exp(0.5j * np.pi * rep["mu_clm"])
        assert abs(phase_of(rep) - predicted) < 1e-6
        assert rep["pass"]


def test_reversal_inverts_phase_and_negates_index():
    rep = verify_theorem1(circle_chart(), ParamPath.circle_arc(1.0, 300))
    rev = verify_theorem1(circle_chart(), ParamPath.circle_arc(1.0, 300).reversed())
    assert rev["mu_clm"] == -rep["mu_clm"]
    assert abs(phase_of(rev) - np.conj(phase_of(rep))) < 1e-9
    rep = verify_theorem1(product_torus_chart(), ParamPath.torus_loop((1, 1), 400))
    rev = verify_theorem1(product_torus_chart(),
                          ParamPath.torus_loop((1, 1), 400).reversed())
    assert rev["mu_clm"] == -rep["mu_clm"]
    assert abs(phase_of(rev) - np.conj(phase_of(rep))) < 1e-9


def turning_product_chart(ks, S):
    """u -> S (Re z(u), Im z(u)) for the plane curves z_j(u) = e^{i k_j u}
    + 0.3 e^{i (k_j + 1) u}, j = 1..n, whose tangents turn k_j times per
    period: a product of Lagrangian curves carried by a symplectic S."""
    k = np.asarray(ks, dtype=float)

    def point(us):
        z = np.exp(1j * k * us) + 0.3 * np.exp(1j * (k + 1) * us)
        return np.concatenate([z.real, z.imag], axis=1) @ S.T

    def jac(us):
        dz = 1j * k * np.exp(1j * k * us) + 0.3j * (k + 1) * np.exp(1j * (k + 1) * us)
        d = dz[:, :, None] * np.eye(len(k))
        return S @ np.concatenate([d.real, d.imag], axis=1)

    return LagrangianChart(len(k), point=point, jacobian=jac, tag="custom")


def tangent_turning(ks, u0, u1):
    """The unwrapped turning of each factor's tangent from u0 to u1: k_j du_j
    plus the change of arg(1 + a_j e^{i u}/k_j), a_j = 0.3 (k_j + 1), which
    stays in the right half-plane since |a_j| < |k_j|."""
    k = np.asarray(ks, dtype=float)
    wobble = lambda u: np.angle(1 + 0.3 * (k + 1) * np.exp(1j * u) / k)
    return k * (u1 - u0) + wobble(u1) - wobble(u0)


@given(n=st.integers(2, 4), sheared=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_theorems_on_curved_products_match_the_closed_form_index(n, sheared, seed):
    # Sp(n)-invariance and direct-sum additivity of the CLM index: a loop of
    # windings w_j has mu = 2 sum k_j w_j, an open arc mu = sum floor(dphi_j / pi)
    # with dphi_j its factor's unwrapped tangent turning.  The shear
    # [[I, 0], [H, I]] makes the induced metric, and so transport, not flat.
    rng = np.random.default_rng(seed)
    S = embed_unitary(random_unitary(n, rng).entries).entries
    if sheared:
        H = rng.normal(size=(n, n))
        S = S @ np.block([[np.eye(n), np.zeros((n, n))], [(H + H.T) / 4, np.eye(n)]])
    ks = rng.choice([-2, -1, 1, 2], size=n)
    chart = turning_product_chart(ks, S)
    w = rng.choice([-1, 0, 1], size=n)
    w[0] = 1
    base = rng.uniform(0.0, 2 * np.pi, n)
    loop = ParamPath.line(base, base + 2 * np.pi * w, 200, closed=True)
    rep = verify_theorem1(chart, loop)
    assert rep["pass"] and rep["mu_clm"] == 2 * int(np.dot(ks, w))
    assert clm_index(tangent_lagrangian_path(chart, loop)) == rep["mu_clm"]
    rev = verify_theorem1(chart, loop.reversed())
    assert rev["pass"] and rev["mu_clm"] == -rep["mu_clm"]
    while True:  # an arc whose turnings stay 0.1 pi off multiples of pi: d = 0
        u1 = base + rng.uniform(-3.0, 3.0, n)
        dphi = tangent_turning(ks, base, u1) / np.pi
        if np.all(np.abs(dphi - np.round(dphi)) > 0.1):
            break
    arc = ParamPath.line(base, u1, 100)
    rep = verify_theorem2(chart, arc)
    assert rep["pass"] and rep["case"] == "transverse"
    assert rep["mu_clm"] == int(np.sum(np.floor(dphi)))
    assert clm_index(tangent_lagrangian_path(chart, arc)) == rep["mu_clm"]


@pytest.mark.parametrize("sheared", [False, True])
def test_theorem2_names_a_partial_intersection_on_a_curved_product(sheared, rng):
    # n = 2: an arc whose first factor's tangent turns by exactly pi ends on
    # a plane meeting the start plane in a line, 0 < d < n, which Theorem 2
    # does not cover: a typed CaseError naming d = 1.  A turning 1e-3 off pi
    # either way is transverse, with mu = sum floor(dphi_j / pi)
    S = embed_unitary(random_unitary(2, rng).entries).entries
    if sheared:
        H = np.array([[0.3, 0.1], [0.1, -0.2]])
        S = S @ np.block([[np.eye(2), np.zeros((2, 2))], [H, np.eye(2)]])
    ks, base = np.array([2, -1]), rng.uniform(0.0, 2 * np.pi, 2)
    chart = turning_product_chart(ks, S)
    u2 = base[1] + 1.3  # the second factor turns by -1.3 + a wobble: 0.1 pi off pi's multiples
    for off in (0.0, -1e-3, 1e-3):
        target = np.pi + off
        u1 = scipy.optimize.brentq(lambda u: tangent_turning(ks, base, np.array([u, u2]))[0] - target,
                                   base[0], base[0] + 3.0, xtol=1e-15)
        dphi = tangent_turning(ks, base, np.array([u1, u2])) / np.pi
        assert abs(dphi[0] - target / np.pi) < 1e-12
        assert np.abs(dphi[1] - np.round(dphi[1])) > 0.1
        arc = ParamPath.line(base, [u1, u2], 100)
        if off == 0.0:
            with pytest.raises(CaseError, match=r"intersection dimension 1 is outside "
                                                r"the supported cases \{0, 2\}"):
                verify_theorem2(chart, arc)
        else:
            rep = verify_theorem2(chart, arc)
            assert rep["pass"] and rep["case"] == "transverse"
            assert rep["mu_clm"] == int(np.sum(np.floor(dphi)))
