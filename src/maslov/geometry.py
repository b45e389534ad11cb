"""Embedded Lagrangian submanifolds of standard phase space: charts, discrete
Levi-Civita frame transport, tangent-plane Lagrangian paths, and the
end-to-end holonomy verifiers.

Transport works on the orthonormal tangent bases B_k of the sampled points,
taken for a whole level of samples at once.  Between consecutive bases it
uses the polar transfer P_k = polar(B_{k+1}^T B_k), the orthogonal factor of
the projection of one tangent space onto the next, by Newton-Schulz steps,
and builds the frames as F_k = B_k G_k with G_{k+1} = P_k G_k by a doubling
scan.  Polar factors are right-equivariant, polar(C G) = polar(C) G, so this
equals projecting the previous frame onto the next tangent space and
re-orthonormalizing it by its polar factor, and it converges to Levi-Civita
transport of the induced metric without touching second derivatives of the
chart.  Segments are bisected level by level until the spectral step norm
||B_{k+1} P_k - B_k||_2, which does not depend on the frame, is at most
FRAME_INCREMENT_BOUND.  A level works on the open segments only, and one
stable merge by parameter of the closed ones gives the dense path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import (_SCREEN_MARGIN, DEFAULT_TOLERANCES, LagrangianFrame,
                   Tolerances, _integer, _numbers, _set_fields, check_stack,
                   embed_unitary, omega_gram)
from .errors import (CaseError, DimensionMismatch, ImmersionError,
                     InvariantViolation, SamplingError)
from .index import LagrangianPath, _endpoint_indices, clm_index
from .metaplectic import (Dilate, _nearest_fourth_root, _orthogonal_pin, _times,
                          apply_generator, apply_to_delta, apply_word_to_delta,
                          det_branch_power, endpoint_positive_factor,
                          ground_state, hermite_state, lift_frame_path_trace,
                          pin_branch_transverse, quarter_turn, root_i_power)

#: Transport refinement bound: maximum frame increment per accepted step.
FRAME_INCREMENT_BOUND = 1e-2
#: Bisection levels transport may take before it raises SamplingError.
MAX_REFINEMENT_DEPTH = 30


@dataclass(frozen=True)
class LagrangianChart:
    """Parametrized embedding of an n-dimensional patch into R^{2n} with
    vanishing pullback of the symplectic form.

    Both callables take a stack of parameters, shape (N, n): point returns the
    points, (N, 2n), and jacobian their closed-form Jacobians, (N, 2n, n).
    """

    n: int
    point: Callable
    jacobian: Callable
    tag: str = "custom"

    def points(self, us) -> np.ndarray:
        """The points at a parameter stack, shape (N, 2n)."""
        us = np.asarray(us, dtype=float)
        return np.asarray(self.point(us), dtype=float).reshape(len(us), 2 * self.n)

    def jacobians(self, us) -> np.ndarray:
        """The Jacobians at a parameter stack, shape (N, 2n, n)."""
        us = np.asarray(us, dtype=float)
        return np.asarray(self.jacobian(us), dtype=float).reshape(len(us), 2 * self.n, self.n)


def circle_chart(radius: float = 1.0) -> LagrangianChart:
    """Unit-speed circle u -> (r cos u, r sin u) in (q, p), the Clifford torus T^1."""
    return replace(product_torus_chart((radius,)), tag="circle")


def product_torus_chart(radii=(1.0, 1.0)) -> LagrangianChart:
    """Clifford torus T^n = S^1(r_1) x ... x S^1(r_n) in C^n, n = len(radii):
    u -> (r_1 cos u_1, ..., r_n cos u_n, r_1 sin u_1, ..., r_n sin u_n)."""
    r = _numbers(radii, "torus radii must be a list of numbers, got %r", radii, ndim=1)
    n, j = len(r), np.arange(len(r))
    if not n:
        raise InvariantViolation("a torus needs at least one radius")

    def jac(us):
        J = np.zeros((len(us), 2 * n, n))
        J[:, j, j] = -r * np.sin(us)
        J[:, n + j, j] = r * np.cos(us)
        return J

    return LagrangianChart(n, point=lambda us: np.concatenate([r * np.cos(us), r * np.sin(us)], 1),
                           jacobian=jac, tag="product_torus")


def _linear_chart(A: np.ndarray, tag: str) -> LagrangianChart:
    """The Lagrangian plane u -> A u, with the constant Jacobian A (2n x n)."""
    return LagrangianChart(A.shape[1], lambda us: us @ A.T,
                           lambda us: np.broadcast_to(A, (len(us),) + A.shape), tag)


def gradient_graph_chart(phi_coeffs: Sequence[float] = None,
                         hessian=None) -> LagrangianChart:
    """Graph of an exact gradient: u -> (u, grad phi(u)).

    Either a coefficient list of a one-variable polynomial phi, or a constant
    Hessian H for the quadratic phi(u) = <H u, u>/2 in any dimension, the
    linear chart u -> [I; H] u.
    """
    if (phi_coeffs is None) == (hessian is None):
        raise InvariantViolation("give exactly one of phi_coeffs or hessian")
    if phi_coeffs is not None:  # the plane curve u -> (u, phi'(u))
        c = _numbers(phi_coeffs, "phi_coeffs must be a list of numbers, got %r", phi_coeffs, ndim=1)
        return replace(curve_chart_from_series(
            {"poly": [0.0, 1.0]}, {"poly": [j * c[j] for j in range(1, len(c))]}),
            tag="gradient_graph")
    H = _numbers(hessian, "hessian must be a matrix of numbers, got %r", hessian)
    if H.ndim != 2 or not 0 < len(H) == H.shape[1]:
        raise InvariantViolation("hessian must be a square matrix, got shape %s" % (H.shape,))
    if np.max(np.abs(H - H.T)) > 1e-12:
        raise InvariantViolation("hessian must be symmetric")
    return _linear_chart(np.vstack([np.eye(len(H)), H]), "gradient_graph")


def flat_plane_chart(frame: LagrangianFrame) -> LagrangianChart:
    """Lagrangian plane u -> F u spanned by a fixed frame, orthonormalized."""
    return _linear_chart(frame.orthonormalized().columns, "flat_plane")


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
            zero = np.zeros_like(x)
            return (sum((a * np.cos(k * x) for k, a in cos), zero)
                    + sum((a * np.sin(k * x) for k, a in sin), zero)
                    + sum((v * x ** j for j, v in enumerate(pol)), zero))

        def df(x):
            zero = np.zeros_like(x)
            return (sum((-a * k * np.sin(k * x) for k, a in cos), zero)
                    + sum((a * k * np.cos(k * x) for k, a in sin), zero)
                    + sum((j * v * x ** (j - 1) for j, v in enumerate(pol) if j > 0), zero))

        return f, df

    q, dq = build(qspec)
    p, dp = build(pspec)
    return LagrangianChart(
        1,
        point=lambda us: np.stack([q(us[:, 0]), p(us[:, 0])], axis=1),
        jacobian=lambda us: np.stack([dq(us[:, 0]), dp(us[:, 0])], axis=1)[:, :, None],
        tag="custom")


@dataclass(frozen=True)
class ParamPath:
    """Ordered parameter samples in the chart domain plus a closedness flag."""

    samples: np.ndarray
    closed: bool = False

    def __init__(self, samples, closed: bool = False):
        samples = _numbers(samples, "path samples must be numbers, got %r", samples)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.ndim != 2 or not samples.shape[1]:
            raise InvariantViolation("path samples must be an (N, n) stack, n >= 1, got shape %s"
                                     % (samples.shape,))
        if samples.shape[0] < 2:
            raise InvariantViolation("a path needs at least two parameter samples")
        if not isinstance(closed, (bool, np.bool_)):
            raise InvariantViolation("closed must be a boolean, got %r" % (closed,))
        _set_fields(self, samples=samples, closed=bool(closed))  # _numbers copied it

    @classmethod
    def line(cls, start, stop, k: int, closed: bool = False) -> "ParamPath":
        start, stop = (np.atleast_1d(_numbers(v, "line ends must be numbers, got %r", v))
                       for v in (start, stop))
        if start.shape != stop.shape:
            raise DimensionMismatch("line ends have shapes %s and %s" % (start.shape, stop.shape))
        k = _integer(k, "sample count must be a non-negative integer, got %r", low=0)
        t = np.linspace(0.0, 1.0, k)[:, None]
        return cls(start[None, :] * (1 - t) + stop[None, :] * t, closed)

    @classmethod
    def circle_arc(cls, turns: float, k: int, start: float = 0.0) -> "ParamPath":
        turns, start = _numbers((turns, start), "arc turns and start must be numbers, got %r",
                                (turns, start), ndim=1)
        if not np.isfinite([turns, start]).all():
            raise InvariantViolation("arc turns and start must be finite, got %g and %g"
                                     % (turns, start))
        stop = start + 2 * np.pi * turns
        closed = abs(turns - round(turns)) < 1e-12 and turns != 0
        return cls.line([start], [stop], k, closed)

    @classmethod
    def torus_loop(cls, winding, k: int, base=None) -> "ParamPath":
        """The loop base + 2 pi t w on T^n of n integral windings w, from base 0 by default."""
        w = np.array([_integer(v, "torus winding must be integral, got %r")
                      for v in (winding if np.iterable(winding) else ())])
        if not len(w):
            raise InvariantViolation("a torus loop needs a list of windings, got %r" % (winding,))
        base = _numbers(np.zeros(len(w)) if base is None else base,
                        "torus base must be numbers, got %r", base)
        if base.shape != w.shape:
            raise DimensionMismatch("torus base needs %d entries, got %r" % (len(w), base.tolist()))
        return cls.line(base, base + 2 * np.pi * w, k, closed=True)

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

    def __post_init__(self):
        _set_fields(self, params=self.params, frames=self.frames)  # the arrays made read-only

    @property
    def start_relative(self) -> np.ndarray:
        """The path V_0^* V_k: the transport re-expressed in the start frame,
        starting at I.  Its embedding is T^{-1} S_k T for the comparison
        matrices S_k = embed(V_k V_0^*) and T = embed(-i V_0), which carries
        the vertical basepoint onto the start tangent plane; so the induced
        path t -> embed(V_0^* V_k) L0 is the tangent-plane path up to that
        fixed T, and all vertical-basepoint index formulas apply to it.
        Formed as (V_k^T conj(V_0))^T, one 2-D product over the stack, and
        returned contiguous for the lift's stacked products."""
        Vt = np.swapaxes(self.frames, 1, 2)
        return np.ascontiguousarray(np.swapaxes(_times(Vt, self.frames[0].conj()), 1, 2))


def _gram_schmidt(J: np.ndarray):
    """(Q, r) of J = QR, diag R = r >= 0, for a stack of real (N, m, n) J by
    classical Gram-Schmidt projecting each column twice (Giraud, Langou and
    Rozloznik, Comput. Math. Appl. 50 (2005)); r_ii = 0 leaves a zero column."""
    Qt, r = np.swapaxes(J, 1, 2).copy(), np.empty(J.shape[::2])  # columns as rows, in place
    for j in range(Qt.shape[1]):
        v = Qt[:, j]
        for _ in range(2 if j else 0):
            v = v - np.einsum("njm,nj->nm", Qt[:, :j], np.einsum("njm,nm->nj", Qt[:, :j], v))
        r[:, j] = np.sqrt(np.einsum("nm,nm->n", v, v))
        Qt[:, j] = v / np.where(r[:, j] > 0, r[:, j], 1.0)[:, None]
    return np.swapaxes(Qt, 1, 2), r


def _tangent_bases(chart, us, tol) -> np.ndarray:
    """Orthonormal tangent bases at the parameters us, shape (N, 2n, n): the
    Q of J = QR with diag R > 0 (_gram_schmidt).  This is the chart check:
    three stacked checks, each naming the first bad parameter, that the
    Jacobians are finite, of full rank (J has the singular values of R) and
    isotropic (omega vanishes on the bases within max(1e3 residual_tol, 1e-9)).
    The rank needs no SVD where prod r_ii = |det R| <= sigma_min ||R||_F^(n-1),
    ||R||_F = ||J||_F, clears the floor by the margin; the SVD of J decides
    the rest."""
    J = chart.jacobians(us)
    check_stack(np.all(np.isfinite(J), axis=(1, 2)), ImmersionError,
                "chart Jacobian not finite at u = %s", us, entry=None)
    Q, r = _gram_schmidt(J)
    floor = tol.rank_floor(2 * chart.n)
    ok = np.prod(r, axis=1) >= ((1 + _SCREEN_MARGIN) * floor
                                * np.linalg.norm(J, axis=(1, 2)) ** (chart.n - 1))
    ok[~ok] = np.linalg.svd(J[~ok], compute_uv=False)[:, -1] >= floor
    check_stack(ok, ImmersionError, "chart Jacobian rank deficient at u = %s", us, entry=None)
    resid = np.max(np.abs(omega_gram(Q, Q)), axis=(1, 2))
    check_stack(resid <= max(1e3 * tol.residual_tol, 1e-9), InvariantViolation,
                "chart is not Lagrangian at u = %s: pullback residual %.3e", us, resid,
                entry=None)
    return Q


def _polar_transfers(Ba: np.ndarray, Bb: np.ndarray, C: np.ndarray):
    """Polar transfers P = polar(C), C = Bb^T Ba, of a stack of segments and
    their step matrices D = Bb P - Ba.  P takes three Newton-Schulz steps
    X <- X - X (X^T X - I) / 2 from X = C; each takes e = 1 - s^2 of every
    singular value s to (3 e^2 + e^3) / 4, so a segment the screen leaves
    open (every e <= 4e-4 at n <= 4) reaches rounding.  Elsewhere P may not
    converge, but the step, at least sqrt(1 - s_min^2) for any P, exceeds the
    bound.  A fixed count keeps each segment independent of its batch."""
    X = C
    for _ in range(3):  # contiguous transposes: a strided X^T X is several times slower
        X = X - X @ (np.swapaxes(X, 1, 2).copy() @ X - np.eye(X.shape[-1])) / 2
    return X, Bb @ X - Ba


def _spectral_norms(D: np.ndarray) -> np.ndarray:
    """||D_k||_2 of a stack, the root of the top eigenvalue of D^T D."""
    return np.sqrt(np.linalg.eigvalsh(np.swapaxes(D, 1, 2).copy() @ D)[:, -1])


def _transfers(Ba: np.ndarray, Bb: np.ndarray):
    """Polar transfers (see _polar_transfers) and exact spectral step norms
    ||Bb P - Ba||_2 of a stack: the measure _screened_transfers bounds first."""
    P, D = _polar_transfers(Ba, Bb, np.swapaxes(Bb, 1, 2) @ Ba)
    return P, _spectral_norms(D)


def _screened_transfers(Ba: np.ndarray, Bb: np.ndarray):
    """_transfers where cheap bounds decide the bisection.  C = Bb^T Ba has
    singular values s_i in [0, 1], where 2 (1 - s) >= 1 - s^2, so the step
    is at least sqrt((n - ||C||_F^2) / n).  A segment whose lower bound
    clears FRAME_INCREMENT_BOUND by the margin takes it as its step, P = NaN.
    The others take their transfers, and a segment whose upper bound
    ||D||_F >= ||D||_2 is under FRAME_INCREMENT_BOUND by the margin takes
    that as its step, with no eigvalsh."""
    C, n = np.swapaxes(Bb, 1, 2) @ Ba, Ba.shape[-1]
    step = np.sqrt(np.maximum(n - np.sum(C * C, axis=(1, 2)), 0.0) / n)
    P = np.full(C.shape, np.nan)
    open_ = ~(step > (1 + _SCREEN_MARGIN) * FRAME_INCREMENT_BOUND)
    P[open_], D = _polar_transfers(*(np.compress(open_, x, axis=0) for x in (Ba, Bb, C)))
    size = np.sqrt(np.sum(D * D, axis=(1, 2)))
    exact = ~(size <= (1 - _SCREEN_MARGIN) * FRAME_INCREMENT_BOUND)
    size[exact] = _spectral_norms(np.compress(exact, D, axis=0))
    step[open_] = size
    return P, step


def _running_products(P: np.ndarray) -> np.ndarray:
    """The stack G_0 = I, G_{k+1} = P_k G_k by a doubling scan: exact on the
    diagonal +-1 transfers of the circle, torus and plane-curve charts, and
    the sequential products to rounding elsewhere."""
    G = np.concatenate([np.eye(P.shape[-1])[None], P])
    for d in (2 ** k for k in range(len(P).bit_length())):  # 1, 2, 4, ... <= len(P)
        G[d:] = G[d:] @ G[:-d]  # G_k: the product of the <= 2d transfers before it
    return G


def _halves(a: np.ndarray, m: np.ndarray, b: np.ndarray):
    """The starts and ends of the halves [a, m] and [m, b] of a stack of
    segments, each interleaved as first half, second half per segment."""
    starts, ends = np.empty((2, 2 * len(a)) + a.shape[1:])
    starts[0::2], starts[1::2], ends[0::2], ends[1::2] = a, m, m, b
    return starts, ends


def _samples_on(chart: LagrangianChart, path: ParamPath) -> np.ndarray:
    """The path's samples, checked to be points of the chart's n-dimensional domain."""
    if path.samples.shape[1] != chart.n:
        raise DimensionMismatch("path samples are %d-dimensional, the chart has n = %d"
                                % (path.samples.shape[1], chart.n))
    return path.samples


def transport_frame(chart: LagrangianChart, path: ParamPath,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> TransportResult:
    """Discrete Levi-Civita transport of a tangent frame along the path.

    The tangent bases B_k of all samples of a level come from one stacked
    factorization, and the polar transfers P_k = polar(B_{k+1}^T B_k) from
    Newton-Schulz steps where a cheap bound leaves them undecided (see
    _screened_transfers).  Every segment whose spectral step norm
    ||B_{k+1} P_k - B_k||_2 exceeds FRAME_INCREMENT_BOUND is bisected, a
    whole level at a time, up to MAX_REFINEMENT_DEPTH levels.  A level takes
    only the open segments, in path order (one _tangent_bases call at their
    midpoints, one _screened_transfers call on both halves), and sets aside
    those that close; one stable merge by t then gives the dense samples,
    bases and transfers, as bisecting in place would, since a segment's
    transfer does not depend on its batch.  The norm bounds every column of
    the frame increment F_{k+1} - F_k = (B_{k+1} P_k - B_k) G_k, for the
    frames F_k = B_k G_k, G_0 = I, G_{k+1} = P_k G_k (one scan).
    """
    u, n = _samples_on(chart, path), chart.n
    if path.closed:
        gap = np.max(np.abs(np.diff(chart.points(u[[0, -1]]), axis=0)))
        if not gap <= 1e-7:  # a non-finite endpoint fails too
            raise InvariantViolation("closed flag set but endpoints differ by %.3e" % gap)
    B = _tangent_bases(chart, u, tol)
    t = np.arange(len(u)) / (len(u) - 1.0)
    ua, ub, ta, tb, Ba, Bb = u[:-1], u[1:], t[:-1], t[1:], B[:-1], B[1:]
    P, step = _screened_transfers(Ba, Bb)
    accepted = []  # (t, B, P) at the starts of the segments each level closes
    for depth in range(MAX_REFINEMENT_DEPTH + 1):
        ok = step <= FRAME_INCREMENT_BOUND  # NaN steps stay open
        if ok.all():
            accepted.append((ta, Ba, P))
            break
        # np.compress and np.take: several times faster than masks on small matrices
        accepted.append([np.compress(ok, x, axis=0) for x in (ta, Ba, P)])
        if depth == MAX_REFINEMENT_DEPTH:
            raise SamplingError("transport refinement exhausted at t = %.17g" % ta[~ok][0])
        ua, ub, ta, tb, Ba, Bb = (np.compress(~ok, x, axis=0) for x in (ua, ub, ta, tb, Ba, Bb))
        um, tm = (ua + ub) / 2.0, (ta + tb) / 2.0
        Bm = _tangent_bases(chart, um, tol)
        # both halves of every open segment, interleaved in path order
        ua, ub = _halves(ua, um, ub)
        ta, tb = _halves(ta, tm, tb)
        Ba, Bb = _halves(Ba, Bm, Bb)
        P, step = _screened_transfers(Ba, Bb)

    ta, Ba, P = (np.concatenate(x) for x in zip(*accepted))
    if depth:  # closed level by level: one stable merge by t
        order = np.argsort(ta, kind="stable")
        ta, Ba, P = ta[order], np.take(Ba, order, axis=0), np.take(P, order, axis=0)
    t, B = np.append(ta, t[-1]), np.concatenate([Ba, B[-1:]])

    F = B @ _running_products(P)
    max_step = float(np.max(np.linalg.norm(F[1:] - F[:-1], axis=1)))
    # contiguous transposes, as in _polar_transfers
    ortho_resid = float(np.max(np.abs(np.swapaxes(F, 1, 2).copy() @ F - np.eye(n))))
    V = F[:, :n] + 1j * F[:, n:]
    tangency = float(np.max(np.abs(F - B @ (np.swapaxes(B, 1, 2).copy() @ F))))  # off span(B_k)
    return TransportResult(t, V, LagrangianPath(V, params=t, tol=tol), depth,
                           max_step, ortho_resid, tangency)


def tangent_lagrangian_path(chart: LagrangianChart, path: ParamPath,
                            tol: Tolerances = DEFAULT_TOLERANCES) -> LagrangianPath:
    """The path of tangent planes t -> span(Jac(u(t))), entered as the
    unitaries of their orthonormal bases B_k from _tangent_bases."""
    B, n = _tangent_bases(chart, _samples_on(chart, path), tol), chart.n
    return LagrangianPath(B[:, :n] + 1j * B[:, n:], tol=tol)


# ---------------------------------------------------------------------------
# verifiers


def _phase_pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def fourth_root_label(z: complex, tol: Tolerances = DEFAULT_TOLERANCES):
    """Label a unit phase by the nearest fourth root of unity and the residual."""
    return _root_label(*_nearest_fourth_root(z), tol)


def _root_label(m: int, resid: float, tol: Tolerances):
    """(label, residual) of fourth_root_label, given the nearest root i^m."""
    label = ("1", "i", "-1", "-i")[m] if resid <= 10 * tol.phase_tol else "none"
    return label, float(resid)


def verify_theorem1(chart: LagrangianChart, path: ParamPath,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """Closed-loop holonomy check: the ground-state transport phase must equal
    e^{i pi/2 mu_CLM(tangent path)}."""
    if not path.closed:
        raise CaseError("theorem-1 verification needs a closed path")
    tr = transport_frame(chart, path, tol=tol)
    mu = clm_index(tr.tangent_path, tol)
    phase = lift_frame_path_trace(tr.start_relative, ground_state(chart.n), tol)[0][-1]
    root = _nearest_fourth_root(phase)  # one root decision: branch and label
    m = _orthogonal_pin(phase, root, tol)
    predicted = quarter_turn(mu % 4)
    resid = abs(phase - predicted)
    label, label_resid = _root_label(*root, tol)
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


def corollary1_from_reports(chart: LagrangianChart, reports: Sequence[dict]) -> dict:
    """The Corollary 1 report of a chart from the Theorem 1 reports of its
    loops: a parallel ground-state section exists iff every loop's CLM index
    vanishes mod 4; over no loop at all there is nothing to decide."""
    if not reports:
        raise InvariantViolation("Corollary 1 needs the report of at least one loop")
    per_loop = [{"mu_clm": rep["mu_clm"], "mu_clm_mod4": rep["mu_clm_mod4"],
                 "phase": rep["phase"], "pass": rep["pass"]} for rep in reports]
    dim = 1 if all(r["mu_clm_mod4"] == 0 for r in per_loop) else 0
    return {"theorem": "corollary1", "chart": chart.tag,
            "dim_parallel": dim, "loops": per_loop,
            "pass": all(r["pass"] for r in per_loop)}


def verify_corollary1(chart: LagrangianChart, loops: Sequence[ParamPath],
                      tol: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """Corollary 1 on the given loops, each verified by Theorem 1."""
    return corollary1_from_reports(chart, [verify_theorem1(chart, loop, tol)
                                           for loop in loops])


def verify_theorem2(chart: LagrangianChart, path: ParamPath,
                    tol: Tolerances = DEFAULT_TOLERANCES,
                    levels=(0, 1, 2)) -> dict:
    """Dual-transport check along an open or closed path.

    Transverse endpoint tangents: the transported Dirac functional is a
    positive constant c(y) times e^{-i pi/2 mu_CLM} times i^{-n/2} times the
    constant functional (exactly, at endpoints with vanishing chirp block);
    equal tangents: it is e^{-i pi/2 mu_CLM} times the Dirac functional, and
    the level-l eigenstate pairings pick up e^{+i pi/2 mu_CLM}, each within
    10 phase_tol of the state's size max(1, |psi_l(0)|).
    """
    tr, n = transport_frame(chart, path, tol=tol), chart.n
    _, mu, d = _endpoint_indices(tr.tangent_path, tol)
    U = tr.start_relative
    phase = lift_frame_path_trace(U, ground_state(n), tol)[0][-1]
    root = _nearest_fourth_root(phase)  # one root decision: label and tangent branch
    label, label_resid = _root_label(*root, tol)
    cut = 10 * tol.phase_tol
    report = {
        "theorem": "2",
        "n": n,
        "chart": chart.tag,
        "intersection_dim": int(d),
        "mu_clm": int(mu),
        "lift_phase": _phase_pair(phase),
        "lift_phase_label": label,
        "lift_phase_label_residual": label_resid,
        "notes": [
            "endpoint tangent plane is taken at the path endpoint (transport direction)",
            "transverse-case phases carry the factor i^{+n/2} (state) / i^{-n/2} (dual) "
            "relative to the bare e^{+-i pi/2 mu} law; exact for chirp-free endpoints"],
        "sampling": _sampling_stats(tr),
    }

    if d == 0:
        qf = pin_branch_transverse(embed_unitary(U[-1], tol), phase, tol)
        m, dual = qf.m, apply_to_delta(qf)
        c_y = endpoint_positive_factor(qf)
        dual_predicted = c_y * np.exp(-0.5j * np.pi * mu) * root_i_power(-n)
        # exact lift law: phase = i^{m - n/2} |det L|^{1/2} det(I - iQ)^{-1/2}
        fresnel = np.sqrt(abs(np.linalg.det(qf.L))) * det_branch_power(
            np.eye(n) - 1j * qf.Q, -0.5)
        lift_predicted = quarter_turn(m) * root_i_power(-n) * fresnel
        lift_resid = abs(phase - lift_predicted)
        fresnel_norm = float(np.max(np.abs(qf.Q)))
        phase_law_exact = fresnel_norm <= 100 * tol.residual_tol
        cor2 = None
        if phase_law_exact:
            cor2_pred = np.exp(0.5j * np.pi * mu) * root_i_power(n)
            cor2 = {"predicted_phase": _phase_pair(cor2_pred),
                    "residual": float(abs(phase - cor2_pred)),
                    "pass": bool(abs(phase - cor2_pred) <= cut)}
        ok = ((m - (mu + n)) % 4 == 0 and lift_resid <= cut
              and (cor2 is None or cor2["pass"]))
        report.update({
            "case": "transverse",
            "c_y": float(c_y),
            "lift_predicted": _phase_pair(lift_predicted),
            "lift_residual": float(lift_resid),
            "endpoint_chirp_norm": float(np.max(np.abs(qf.P))),
            "endpoint_fresnel_norm": fresnel_norm,
            "phase_law_exact": bool(phase_law_exact),
            "corollary2_transversal": cor2,
        })
    elif d == n:
        if np.max(np.abs(U[-1].imag)) > 1e-6:  # the B and C blocks of embed(U_N)
            raise CaseError("tangent-case endpoint is not orthogonal-type")
        A, m = U[-1].real, _orthogonal_pin(phase, root, tol)
        dual = apply_word_to_delta(A, m, tol)
        dual_predicted = np.exp(-0.5j * np.pi * mu)
        pair_reports = []
        for l in levels:
            psi = hermite_state(l, n)
            lhs = apply_generator(Dilate(A, m), psi, tol)(np.zeros(n))
            psi0 = psi(np.zeros(n))
            rhs = np.exp(0.5j * np.pi * mu) * psi0
            pair_reports.append({"level": int(l), "lhs": _phase_pair(lhs),
                                 "rhs": _phase_pair(rhs),
                                 "pass": bool(abs(lhs - rhs) <= cut * max(1.0, abs(psi0)))})
        ok = (m - mu) % 4 == 0 and all(r["pass"] for r in pair_reports)
        report.update({"case": "tangent", "eigenstate_pairings": pair_reports})
    else:
        raise CaseError("endpoint intersection dimension %d is outside the supported "
                        "cases {0, %d}" % (d, n))

    dual_resid = abs(dual.c - dual_predicted)
    report.update({
        "branch": int(m),
        "dual_kind": dual.kind,
        "dual_prefactor": _phase_pair(dual.c),
        "dual_predicted": _phase_pair(dual_predicted),
        "dual_residual": float(dual_resid),
        "pass": bool(ok and dual_resid <= cut),
    })
    return report
