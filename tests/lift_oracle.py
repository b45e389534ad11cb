"""A reference metaplectic lift that shares no code with the library's.

The path of unitaries is bisected geodesically in U(n) until every dense
step V = A + iB, taken from the state M before it, has
||V - I||_2 (1 + ||M||_2) <= 1/2.  Along the geodesic of such a step every
X(t) = A(t) - i B(t) M lies within 1/2 of I in norm, as ||A(t) - I||_2 and
||B(t)||_2 are at most ||V(t) - I||_2 <= ||V - I||_2; so each eigenvalue of
X stays in the right half-plane and the product of the principal roots of
the eigenvalues of X is the continuous branch of the step's det(X)^{-1/2}.
The state is then advanced one dense step at a time: c by that product, M
by the fractional-linear law M -> (A M - i B) X^{-1}.
"""

import numpy as np

from maslov.core import DEFAULT_TOLERANCES, check_stack
from maslov.errors import SamplingError

#: The reference's bound on ||V - I||_2 (1 + ||M||_2) for a dense step.
STEP_BOUND = 0.5


def bisect_geodesics(X, t, step_sizes, bound, max_depth, tol=DEFAULT_TOLERANCES):
    """Dense (X, t) of a path of unitaries X, shape (N, n, n), sampled at the
    parameters t: every step whose step_sizes(X) entry exceeds bound gets
    its geodesic midpoint, a whole level at a time, up to max_depth levels.

    The midpoint of a step from X_a to X_b is polar(X_a + X_b), one batched
    SVD per level.  That is (X_b X_a^*)^{1/2} X_a with the principal root,
    since polar(I + V) is the principal root of a unitary V without an
    eigenvalue -1.  A step with X_a + X_b singular below rank_floor is
    antipodal: no midpoint is preferred, and it raises.
    """
    for depth in range(max_depth + 1):
        bad = np.flatnonzero(~(step_sizes(X) <= bound))  # NaN steps fail too
        if not bad.size:
            return X, t
        if depth == max_depth:
            raise SamplingError("path refinement exhausted on the step from t = %.6g to %.6g"
                                % (t[bad[0]], t[bad[0] + 1]))
        W, s, Zh = np.linalg.svd(X[bad] + X[bad + 1])
        check_stack(s[:, -1] >= tol.rank_floor(X.shape[-1]), SamplingError,
                    "antipodal step from t = %.6g to %.6g: sigma_min of X_a + X_b is %.3e",
                    t[bad], t[bad + 1], s[:, -1], entry=None)
        X = np.insert(X, bad + 1, W @ Zh, axis=0)
        t = np.insert(t, bad + 1, (t[bad] + t[bad + 1]) / 2)


def walk(U, s0):
    """(c, M, sizes) of the state s0 advanced one step at a time along the
    dense stack U, with sizes ||V - I||_2 (1 + ||M||_2) of its steps.  A step
    is V = U_b U_a^{-1}, whose determinants telescope where the samples are
    unitary only to rounding."""
    c, M, sizes = [s0.c], [s0.M], []
    for Ua, Ub in zip(U[:-1], U[1:]):
        V = Ub @ np.linalg.inv(Ua)
        A, B = V.real, V.imag
        X = A - 1j * (B @ M[-1])
        sizes.append(np.max(np.abs(np.linalg.eigvals(V) - 1.0)) * (1 + np.linalg.norm(M[-1], 2)))
        c.append(c[-1] * np.prod(np.linalg.eigvals(X).astype(complex) ** -0.5))
        Mn = (A @ M[-1] - 1j * B) @ np.linalg.inv(X)
        M.append((Mn + Mn.T) / 2)
    return np.array(c), np.array(M), np.array(sizes)


def reference_lift(Us, s0, tol=DEFAULT_TOLERANCES, max_depth=20):
    """(c, M) of the Gaussian part of the state s0 lifted along the unitary
    path Us at each of its samples."""
    t = np.arange(len(Us), dtype=float)
    U, td = bisect_geodesics(np.asarray(Us, dtype=complex), t, lambda U: walk(U, s0)[2],
                             STEP_BOUND, max_depth, tol)
    c, M, _ = walk(U, s0)
    keep = np.searchsorted(td, t)
    return c[keep], M[keep]
