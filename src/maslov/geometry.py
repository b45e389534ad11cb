"""Embedded Lagrangian submanifolds of standard phase space: charts, induced
metric, discrete Levi-Civita frame transport, tangent-plane Lagrangian paths,
and the end-to-end holonomy verifiers.

Transport uses projection onto successive tangent spaces with Gram-Schmidt
re-orthonormalization and step halving; this converges to Levi-Civita
transport of the induced metric without touching second derivatives of the
chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (DEFAULT_TOLERANCES, LagrangianFrame, Tolerances,
                   embed_unitary, intersection_dim, omega_gram)
from .errors import (CaseError, ImmersionError, InvariantViolation,
                     SamplingError)
from .index import LagrangianPath, clm_index
from .metaplectic import (Dilate, apply_generator, apply_to_delta,
                          apply_word_to_delta, det_branch_power,
                          endpoint_positive_factor, ground_state,
                          hermite_state, lift_frame_path_trace,
                          pin_branch_orthogonal, pin_branch_transverse,
                          quarter_turn, root_i_power)

#: Transport refinement bound: maximum frame increment per accepted step.
FRAME_INCREMENT_BOUND = 1e-2


@dataclass(frozen=True)
class LagrangianChart:
    """Parametrized embedding of an n-dimensional patch into R^{2n} with
    vanishing pullback of the symplectic form."""

    n: int
    point: Callable
    jacobian: Callable = None
    tag: str = "custom"
    fd_step: float = 1e-6

    def jac(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if self.jacobian is not None:
            return np.asarray(self.jacobian(u), dtype=float).reshape(2 * self.n, self.n)
        J = np.empty((2 * self.n, self.n))
        for j in range(self.n):
            e = np.zeros(self.n)
            e[j] = self.fd_step
            J[:, j] = (np.asarray(self.point(u + e)) - np.asarray(self.point(u - e))) \
                / (2 * self.fd_step)
        return J

    def at(self, u) -> np.ndarray:
        return np.asarray(self.point(np.atleast_1d(np.asarray(u, dtype=float))),
                          dtype=float).reshape(2 * self.n)

    def check(self, u, tol: Tolerances = DEFAULT_TOLERANCES):
        """Validate the Lagrangian and immersion conditions at u."""
        J = self.jac(u)
        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] < tol.rank_floor(2 * self.n):
            raise ImmersionError("chart Jacobian rank deficient at %r" % (u,))
        resid = np.max(np.abs(omega_gram(J, J)))
        if resid > max(1e3 * tol.residual_tol, 1e-9) * sv[0] ** 2:
            raise InvariantViolation(
                "chart is not Lagrangian at %r: pullback residual %.3e" % (u, resid))


def circle_chart(radius: float = 1.0) -> LagrangianChart:
    """Unit-speed circle u -> (r cos u, r sin u) in (q, p)."""
    r = float(radius)
    return LagrangianChart(
        1,
        point=lambda u: np.array([r * np.cos(u[0]), r * np.sin(u[0])]),
        jacobian=lambda u: np.array([[-r * np.sin(u[0])], [r * np.cos(u[0])]]),
        tag="circle")


def product_torus_chart(radii=(1.0, 1.0)) -> LagrangianChart:
    """Clifford-type torus (u1, u2) -> (r1 cos u1, r2 cos u2, r1 sin u1, r2 sin u2)."""
    r1, r2 = float(radii[0]), float(radii[1])

    def pt(u):
        return np.array([r1 * np.cos(u[0]), r2 * np.cos(u[1]),
                         r1 * np.sin(u[0]), r2 * np.sin(u[1])])

    def jac(u):
        return np.array([[-r1 * np.sin(u[0]), 0.0],
                         [0.0, -r2 * np.sin(u[1])],
                         [r1 * np.cos(u[0]), 0.0],
                         [0.0, r2 * np.cos(u[1])]])

    return LagrangianChart(2, point=pt, jacobian=jac, tag="product_torus")


def gradient_graph_chart(phi_coeffs: Sequence[float] = None,
                         hessian=None) -> LagrangianChart:
    """Graph of an exact gradient: u -> (u, grad phi(u)).

    Either a coefficient list of a one-variable polynomial phi, or a constant
    Hessian H for the quadratic phi(u) = <H u, u>/2 in any dimension.
    """
    if (phi_coeffs is None) == (hessian is None):
        raise InvariantViolation("give exactly one of phi_coeffs or hessian")
    if phi_coeffs is not None:
        c = [float(v) for v in phi_coeffs]
        dc = [j * c[j] for j in range(1, len(c))]
        ddc = [j * dc[j] for j in range(1, len(dc))]
        ev1 = lambda cs, x: sum(v * x ** j for j, v in enumerate(cs))
        return LagrangianChart(
            1,
            point=lambda u: np.array([u[0], ev1(dc, u[0])]),
            jacobian=lambda u: np.array([[1.0], [ev1(ddc, u[0])]]),
            tag="gradient_graph")
    H = np.asarray(hessian, dtype=float)
    if np.max(np.abs(H - H.T)) > 1e-12:
        raise InvariantViolation("hessian must be symmetric")
    n = H.shape[0]
    return LagrangianChart(
        n,
        point=lambda u: np.concatenate([u, H @ u]),
        jacobian=lambda u: np.vstack([np.eye(n), H]),
        tag="gradient_graph")


def flat_plane_chart(frame: LagrangianFrame) -> LagrangianChart:
    """Affine Lagrangian plane u -> F u spanned by a fixed frame."""
    F = frame.orthonormalized().columns
    return LagrangianChart(frame.n, point=lambda u: F @ u,
                           jacobian=lambda u: F, tag="flat_plane")


def curve_chart_from_series(qspec: dict, pspec: dict) -> LagrangianChart:
    """Plane curve from trigonometric/polynomial series records (n = 1).

    Each coordinate is {"cos": [[k, a], ...], "sin": [[k, a], ...],
    "poly": [c0, c1, ...]}; every plane curve is Lagrangian.
    """

    def build(spec):
        cos = [(float(k), float(a)) for k, a in spec.get("cos", [])]
        sin = [(float(k), float(a)) for k, a in spec.get("sin", [])]
        pol = [float(v) for v in spec.get("poly", [])]

        def f(x):
            return (sum(a * np.cos(k * x) for k, a in cos)
                    + sum(a * np.sin(k * x) for k, a in sin)
                    + sum(v * x ** j for j, v in enumerate(pol)))

        def df(x):
            return (sum(-a * k * np.sin(k * x) for k, a in cos)
                    + sum(a * k * np.cos(k * x) for k, a in sin)
                    + sum(j * v * x ** (j - 1) for j, v in enumerate(pol) if j > 0))

        return f, df

    q, dq = build(qspec)
    p, dp = build(pspec)
    return LagrangianChart(
        1,
        point=lambda u: np.array([q(u[0]), p(u[0])]),
        jacobian=lambda u: np.array([[dq(u[0])], [dp(u[0])]]),
        tag="custom")


@dataclass(frozen=True)
class ParamPath:
    """Ordered parameter samples in the chart domain plus a closedness flag."""

    samples: np.ndarray
    closed: bool = False

    def __init__(self, samples, closed: bool = False):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.shape[0] < 2:
            raise InvariantViolation("a path needs at least two parameter samples")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "closed", bool(closed))

    @classmethod
    def line(cls, start, stop, k: int, closed: bool = False) -> "ParamPath":
        start = np.atleast_1d(np.asarray(start, dtype=float))
        stop = np.atleast_1d(np.asarray(stop, dtype=float))
        t = np.linspace(0.0, 1.0, k)[:, None]
        return cls(start[None, :] * (1 - t) + stop[None, :] * t, closed)

    @classmethod
    def circle_arc(cls, turns: float, k: int, start: float = 0.0) -> "ParamPath":
        stop = start + 2 * np.pi * turns
        closed = abs(turns - round(turns)) < 1e-12 and turns != 0
        return cls.line([start], [stop], k, closed)

    @classmethod
    def torus_loop(cls, winding, k: int, base=(0.0, 0.0)) -> "ParamPath":
        a, b = int(winding[0]), int(winding[1])
        base = np.asarray(base, dtype=float)
        stop = base + 2 * np.pi * np.array([a, b], dtype=float)
        return cls.line(base, stop, k, closed=True)

    def reversed(self) -> "ParamPath":
        return ParamPath(self.samples[::-1], self.closed)


@dataclass(frozen=True)
class TransportResult:
    """Frames produced by parallel transport."""

    params: np.ndarray          # dense parameter values along [0, 1]
    frames: np.ndarray          # unitaries V = X + iY of the frames, (N, n, n)
    tangent_path: LagrangianPath
    refinement_depth: int
    max_frame_step: float
    orthonormality_residual: float
    tangency_residual: float

    @property
    def start_relative(self) -> np.ndarray:
        """The path V_0^* V_k: the transport re-expressed in the start frame,
        starting at I.  Its embedding is T^{-1} S_k T for the comparison
        matrices S_k = embed(V_k V_0^*) and T = embed(-i V_0), which carries
        the vertical basepoint onto the start tangent plane; so the induced
        path t -> embed(V_0^* V_k) L0 is the tangent-plane path up to that
        fixed T, and all vertical-basepoint index formulas apply to it."""
        return self.frames[0].conj().T @ self.frames


def induced_metric(chart: LagrangianChart, u,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Pullback metric Jac^T Jac of the ambient inner product at u."""
    J = chart.jac(u)
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[-1] < tol.rank_floor(2 * chart.n):
        raise ImmersionError("chart Jacobian rank deficient at %r" % (u,))
    return J.T @ J


def _tangent_basis(chart, u, tol):
    J = chart.jac(u)
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[-1] < tol.rank_floor(2 * chart.n):
        raise ImmersionError("chart Jacobian rank deficient at %r" % (u,))
    Q, R = np.linalg.qr(J)
    return Q * np.sign(np.diagonal(R))


def _tangency(F, B) -> float:
    """Sup-norm distance of the frame columns from span(B)."""
    return float(np.max(np.abs(F - B @ (B.T @ F))))


def _project_frame(F, B):
    """Project frame columns onto span(B) and re-orthonormalize."""
    G = B @ (B.T @ F)
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diagonal(R))


def transport_frame(chart: LagrangianChart, path: ParamPath,
                    initial_frame: np.ndarray = None,
                    tol: Tolerances = DEFAULT_TOLERANCES,
                    max_depth: int = 30) -> TransportResult:
    """Discrete Levi-Civita transport of a tangent frame along the path.

    Each step projects the previous frame onto the new tangent space and
    re-orthonormalizes; segments are halved until the per-step frame change
    is below FRAME_INCREMENT_BOUND.
    """
    us = path.samples
    n = chart.n
    chart.check(us[0], tol)
    if path.closed:
        gap = np.max(np.abs(chart.at(us[0]) - chart.at(us[-1])))
        if gap > 1e-7:
            raise InvariantViolation("closed flag set but endpoints differ by %.3e" % gap)
    B = _tangent_basis(chart, us[0], tol)
    if initial_frame is None:
        F0 = B
    else:
        F0 = np.asarray(initial_frame, dtype=float)
        if np.max(np.abs(F0.T @ F0 - np.eye(n))) > 1e-8 or _tangency(F0, B) > 1e-8:
            raise InvariantViolation("initial frame must be orthonormal and tangent")

    t_dense = [0.0]
    frames = [F0]
    depth_used = 0
    max_step = 0.0
    # tangency residual, spot-checked at the original samples
    tangency = _tangency(F0, B)
    N = len(us)
    for k in range(N - 1):
        seg = [(us[k], us[k + 1], (k) / (N - 1.0), (k + 1) / (N - 1.0), 0)]
        while seg:
            ua, ub, ta, tb, depth = seg.pop()
            B = _tangent_basis(chart, ub, tol)
            Fb = _project_frame(frames[-1], B)
            step = np.max(np.linalg.norm(Fb - frames[-1], axis=0))
            if step > FRAME_INCREMENT_BOUND:
                if depth >= max_depth:
                    raise SamplingError("transport refinement exhausted")
                um, tm = (ua + ub) / 2.0, (ta + tb) / 2.0
                seg.append((um, ub, tm, tb, depth + 1))
                seg.append((ua, um, ta, tm, depth + 1))
                depth_used = max(depth_used, depth + 1)
                continue
            max_step = max(max_step, step)
            frames.append(Fb)
            t_dense.append(tb)
        # the last accepted step ended on sample k + 1, with B its tangent basis
        tangency = max(tangency, _tangency(frames[-1], B))

    F = np.array(frames)
    ortho_resid = float(np.max(np.abs(np.swapaxes(F, 1, 2) @ F - np.eye(n))))
    tangent = LagrangianPath(F, params=t_dense, tol=tol)
    return TransportResult(np.asarray(t_dense), F[:, :n] + 1j * F[:, n:], tangent,
                           depth_used, max_step, ortho_resid, tangency)


def tangent_lagrangian_path(chart: LagrangianChart, path: ParamPath,
                            tol: Tolerances = DEFAULT_TOLERANCES) -> LagrangianPath:
    """The path of tangent planes t -> span(Jac(u(t))), orthonormalized."""
    return LagrangianPath(np.array([_tangent_basis(chart, u, tol) for u in path.samples]),
                          tol=tol)


# ---------------------------------------------------------------------------
# verifiers


def _phase_pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def fourth_root_label(z: complex, tol: Tolerances = DEFAULT_TOLERANCES):
    """Label a unit phase by the nearest fourth root of unity and the residual."""
    roots = {"1": 1.0, "i": 1j, "-1": -1.0, "-i": -1j}
    name, root = min(roots.items(), key=lambda kv: abs(z - kv[1]))
    resid = float(abs(z - root))
    return (name if resid <= 10 * tol.phase_tol else "none"), resid


def verify_theorem1(chart: LagrangianChart, path: ParamPath,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """Closed-loop holonomy check: the ground-state transport phase must equal
    e^{i pi/2 mu_CLM(tangent path)}."""
    if not path.closed:
        raise CaseError("theorem-1 verification needs a closed path")
    tr = transport_frame(chart, path, tol=tol)
    mu = clm_index(tr.tangent_path, tol)
    phase = lift_frame_path_trace(tr.start_relative, ground_state(chart.n), tol)[-1].c
    m = pin_branch_orthogonal(phase, tol)
    predicted = quarter_turn(mu % 4)
    resid = abs(phase - predicted)
    label, label_resid = fourth_root_label(phase, tol)
    return {
        "theorem": "1",
        "n": chart.n,
        "chart": chart.tag,
        "mu_clm": int(mu),
        "mu_clm_mod4": int(mu % 4),
        "branch": int(m),
        "phase": _phase_pair(phase),
        "phase_label": label,
        "phase_label_residual": label_resid,
        "predicted_phase": _phase_pair(predicted),
        "phase_residual": float(resid),
        "pass": bool(resid <= 10 * tol.phase_tol and (m - mu) % 4 == 0),
        "sampling": _sampling_stats(tr),
    }


def _sampling_stats(tr: TransportResult) -> dict:
    return {
        "samples": int(len(tr.frames)),
        "refinement_depth": int(tr.refinement_depth),
        "max_frame_step": float(tr.max_frame_step),
        "orthonormality_residual": float(tr.orthonormality_residual),
        "tangency_residual": float(tr.tangency_residual),
    }


def verify_corollary1(chart: LagrangianChart, loops: Sequence[ParamPath],
                      tol: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """A parallel ground-state section exists iff every loop's CLM index
    vanishes mod 4."""
    per_loop = []
    for loop in loops:
        rep = verify_theorem1(chart, loop, tol)
        per_loop.append({"mu_clm": rep["mu_clm"], "mu_clm_mod4": rep["mu_clm_mod4"],
                         "phase": rep["phase"], "pass": rep["pass"]})
    dim = 1 if all(r["mu_clm_mod4"] == 0 for r in per_loop) else 0
    return {"theorem": "corollary1", "chart": chart.tag,
            "dim_parallel": dim, "loops": per_loop,
            "pass": all(r["pass"] for r in per_loop)}


def verify_theorem2(chart: LagrangianChart, path: ParamPath,
                    tol: Tolerances = DEFAULT_TOLERANCES,
                    levels=(0, 1, 2)) -> dict:
    """Dual-transport check along an open or closed path.

    Transverse endpoint tangents: the transported Dirac functional is a
    positive constant c(y) times e^{-i pi/2 mu_CLM} times i^{-n/2} times the
    constant functional (exactly, at endpoints with vanishing chirp block);
    equal tangents: it is e^{-i pi/2 mu_CLM} times the Dirac functional, and
    the level-l eigenstate pairings pick up e^{+i pi/2 mu_CLM}.
    """
    tr = transport_frame(chart, path, tol=tol)
    n = chart.n
    Lx = tr.tangent_path.frames[0]
    Ly = tr.tangent_path.frames[-1]
    d = intersection_dim(Lx, Ly, tol)
    warnings = []
    sv = np.linalg.svd(np.hstack([Lx.columns, Ly.columns]), compute_uv=False)
    floor = tol.rank_floor(2 * n)
    if np.any((sv >= floor) & (sv < 10 * floor)):
        warnings.append("endpoint intersection is near-degenerate")
    U = tr.start_relative
    phase = lift_frame_path_trace(U, ground_state(n), tol)[-1].c
    S_end = embed_unitary(U[-1], tol)
    mu = clm_index(tr.tangent_path, tol)
    notes = [
        "endpoint tangent plane is taken at the path endpoint (transport direction)",
        "transverse-case phases carry the factor i^{+n/2} (state) / i^{-n/2} (dual) "
        "relative to the bare e^{+-i pi/2 mu} law; exact for chirp-free endpoints",
    ]
    label, label_resid = fourth_root_label(phase, tol)
    report = {
        "theorem": "2",
        "n": n,
        "chart": chart.tag,
        "intersection_dim": int(d),
        "mu_clm": int(mu),
        "lift_phase": _phase_pair(phase),
        "lift_phase_label": label,
        "lift_phase_label_residual": label_resid,
        "warnings": warnings,
        "notes": notes,
        "sampling": _sampling_stats(tr),
    }

    if d == 0:
        qf = pin_branch_transverse(S_end, phase, tol)
        m = qf.m
        dual = apply_to_delta(qf)
        c_y = endpoint_positive_factor(qf)
        dual_predicted = c_y * np.exp(-0.5j * np.pi * mu) * root_i_power(-n)
        dual_resid = abs(dual.c - dual_predicted)
        # exact lift law: phase = i^{m - n/2} |det L|^{1/2} det(I - iQ)^{-1/2}
        fresnel = np.sqrt(abs(np.linalg.det(qf.L))) * det_branch_power(
            np.eye(n) - 1j * qf.Q, -0.5)
        lift_predicted = quarter_turn(m) * root_i_power(-n) * fresnel
        lift_resid = abs(phase - lift_predicted)
        chirp_norm = float(np.max(np.abs(qf.P)))
        fresnel_norm = float(np.max(np.abs(qf.Q)))
        phase_law_exact = fresnel_norm <= 100 * tol.residual_tol
        cor2 = None
        if phase_law_exact:
            cor2_pred = np.exp(0.5j * np.pi * mu) * root_i_power(n)
            cor2 = {"predicted_phase": _phase_pair(cor2_pred),
                    "residual": float(abs(phase - cor2_pred)),
                    "pass": bool(abs(phase - cor2_pred) <= 10 * tol.phase_tol)}
        branch_ok = (m - (mu + n)) % 4 == 0
        ok = bool(branch_ok and dual_resid <= 10 * tol.phase_tol
                  and lift_resid <= 10 * tol.phase_tol
                  and (cor2 is None or cor2["pass"]))
        report.update({
            "case": "transverse",
            "branch": int(m),
            "c_y": float(c_y),
            "dual_kind": dual.kind,
            "dual_prefactor": _phase_pair(dual.c),
            "dual_predicted": _phase_pair(dual_predicted),
            "dual_residual": float(dual_resid),
            "lift_predicted": _phase_pair(lift_predicted),
            "lift_residual": float(lift_resid),
            "endpoint_chirp_norm": chirp_norm,
            "endpoint_fresnel_norm": fresnel_norm,
            "phase_law_exact": bool(phase_law_exact),
            "corollary2_transversal": cor2,
            "pass": ok,
        })
        return report

    if d == n:
        A_blk, B_blk, C_blk, D_blk = S_end.blocks
        if np.max(np.abs(B_blk)) > 1e-6 or np.max(np.abs(C_blk)) > 1e-6:
            raise CaseError("tangent-case endpoint is not orthogonal-type")
        m = pin_branch_orthogonal(phase, tol)
        dual = apply_word_to_delta(A_blk, m, tol)
        dual_predicted = np.exp(-0.5j * np.pi * mu)
        dual_resid = abs(dual.c - dual_predicted)
        pair_reports = []
        for l in levels:
            psi = hermite_state(l, n)
            moved = apply_generator(Dilate(A_blk, m), psi, tol)
            lhs = moved(np.zeros(n))
            rhs = np.exp(0.5j * np.pi * mu) * psi(np.zeros(n))
            pair_reports.append({
                "level": int(l),
                "lhs": _phase_pair(lhs),
                "rhs": _phase_pair(rhs),
                "pass": bool(abs(lhs - rhs) <= 10 * tol.phase_tol),
            })
        ok = bool((m - mu) % 4 == 0 and dual_resid <= 10 * tol.phase_tol
                  and all(r["pass"] for r in pair_reports))
        report.update({
            "case": "tangent",
            "branch": int(m),
            "dual_kind": dual.kind,
            "dual_prefactor": _phase_pair(dual.c),
            "dual_predicted": _phase_pair(dual_predicted),
            "dual_residual": float(dual_resid),
            "eigenstate_pairings": pair_reports,
            "pass": ok,
        })
        return report

    raise CaseError(
        "endpoint intersection dimension %d is outside the supported cases {0, %d}"
        % (d, n))
