"""Chart, transport and verifier checks."""

import numpy as np
import pytest

from maslov.core import line_frame
from maslov.errors import CaseError, InvariantViolation
from maslov.geometry import (FRAME_INCREMENT_BOUND, ParamPath, circle_chart,
                             curve_chart_from_series, flat_plane_chart,
                             gradient_graph_chart, induced_metric,
                             product_torus_chart, tangent_lagrangian_path,
                             transport_frame, verify_corollary1,
                             verify_theorem1, verify_theorem2)
from maslov.index import clm_index, lift_path


def phase_of(report):
    return complex(report["phase"][0], report["phase"][1])


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
    bad = LagrangianChart(2, point=lambda u: np.array([u[0], u[1], u[1], 2 * u[0]]),
                          jacobian=None, tag="custom")
    with pytest.raises(InvariantViolation):
        bad.check([0.1, 0.2])


def test_custom_series_chart_matches_circle():
    chart = curve_chart_from_series({"cos": [[1.0, 1.0]]}, {"sin": [[1.0, 1.0]]})
    ref = circle_chart()
    for u in (0.0, 0.4, 2.2):
        assert np.allclose(chart.at([u]), ref.at([u]))
        assert np.allclose(chart.jac([u]), ref.jac([u]))


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


def test_transport_rejects_bad_initial_frame():
    with pytest.raises(InvariantViolation):
        transport_frame(circle_chart(), ParamPath.circle_arc(0.25, 30),
                        initial_frame=np.array([[1.0], [0.0]]))


# ---------------------------------------------------------------------------
# tangent paths


def test_tangent_path_circle_winding():
    path = tangent_lagrangian_path(circle_chart(), ParamPath.circle_arc(1.0, 200))
    lifts = lift_path(path, float(np.angle(np.linalg.det(path.souriau[0]))))
    assert abs(lifts[-1].theta - lifts[0].theta - 4 * np.pi) < 1e-9


def test_tangent_path_flat_constant():
    chart = flat_plane_chart(line_frame(1.2))
    path = tangent_lagrangian_path(chart, ParamPath.line([0.0], [1.0], 10))
    assert clm_index(path) == 0


def test_tangent_path_torus_winding_multiplicative():
    chart = product_torus_chart()
    for a, b in ((1, 0), (1, 1), (2, 1)):
        path = tangent_lagrangian_path(chart, ParamPath.torus_loop((a, b), 200))
        lifts = lift_path(path, float(np.angle(np.linalg.det(path.souriau[0]))))
        assert abs(lifts[-1].theta - lifts[0].theta - 4 * np.pi * (a + b)) < 1e-8


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


def test_theorem2_quarter_arc():
    rep = verify_theorem2(circle_chart(), ParamPath.circle_arc(0.25, 80))
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
    rep = verify_theorem2(circle_chart(), ParamPath.circle_arc(0.75, 250))
    assert rep["case"] == "transverse"
    assert rep["mu_clm"] == 1
    assert (rep["branch"] - rep["mu_clm"] - 1) % 4 == 0
    assert rep["pass"]


def test_theorem2_closed_loop_tangent_case():
    rep = verify_theorem2(circle_chart(), ParamPath.circle_arc(1.0, 300))
    assert rep["case"] == "tangent"
    assert rep["mu_clm"] == 2
    # dual transport inverts the theorem-1 phase
    assert abs(complex(*rep["dual_prefactor"]) - np.exp(-1j * np.pi)) < 1e-9
    assert all(p["pass"] for p in rep["eigenstate_pairings"])
    assert rep["pass"]


def test_theorem2_constant_path():
    chart = circle_chart()
    rep = verify_theorem2(chart, ParamPath(np.array([[0.2], [0.2], [0.2]]), closed=True),
                          levels=(0,))
    assert rep["case"] == "tangent"
    assert rep["mu_clm"] == 0
    assert abs(complex(*rep["dual_prefactor"]) - 1.0) < 1e-12
    assert rep["pass"]


def test_theorem2_rejects_partial_intersection():
    chart = product_torus_chart()
    path = ParamPath.line([0.0, 0.0], [np.pi / 3, 0.0], 60)
    with pytest.raises(CaseError):
        verify_theorem2(chart, path)


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
