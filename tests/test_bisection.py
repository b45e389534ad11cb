"""Geodesic steps of the lifts: the polar midpoint with which the tests'
reference metaplectic lift bisects its unitary stacks, against a Schur-form
root; the det-phase increment of a Lagrangian path's Souriau geodesic steps,
against the same path densified by reference midpoints; stability of the
integers under resampling, antipodal steps, and a library that runs without
scipy."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

import maslov
from lift_oracle import bisect_geodesics
from maslov.core import (LagrangianFrame, SymplecticMatrix, embed_unitary,
                         lagrangian_from_souriau, random_lagrangian, random_unitary,
                         souriau_map, standard_j)
from maslov.errors import SamplingError
from maslov.index import (LagrangianPath, clm_index, induced_lagrangian_path,
                          lift_path, mu_hat_on_cover)
from maslov.metaplectic import ground_state, lift_frame_path_trace

DIMS = st.integers(1, 4)
SEEDS = st.integers(0, 2 ** 32 - 1)


def library_midpoint(Xa, Xb):
    """The midpoint bisect_geodesics inserts into the one step Xa -> Xb."""
    X, t = bisect_geodesics(np.array([Xa, Xb]), np.array([0.0, 1.0]),
                            lambda X: np.full(len(X) - 1, float(len(X) == 2)), 0.5, 1)
    assert np.array_equal(t, [0.0, 0.5, 1.0])
    return X[1]


def schur_sqrt(V):
    """Principal square root of a unitary matrix by a complex Schur form."""
    T, Z = scipy.linalg.schur(V, output="complex")
    return Z @ np.diag(np.exp(0.5j * np.angle(np.diagonal(T)))) @ Z.conj().T


def souriau_midpoint_reference(wa, wb):
    """Geodesic midpoint r_a (r_a^{-1} w_b r_a^{-T})^{1/2} r_a^T of two
    symmetric unitaries, with r_a r_a^T = w_a: the principal root of a
    symmetric unitary is symmetric."""
    ra = schur_sqrt(wa)
    u = ra.conj().T @ wb @ ra.conj()
    u = (u + u.T) / 2
    w = ra @ schur_sqrt(u) @ ra.T
    return (w + w.T) / 2


def antipodal_margin(Xa, Xb):
    """min |lambda + 1| over the eigenvalues of the step X_b X_a^*."""
    return np.min(np.abs(np.linalg.eigvals(Xb @ Xa.conj().T) + 1.0))


def unitary_path(n, rng, k, turn):
    """t -> expm(t s H) at k samples, H anti-Hermitian with spectral radius
    1 and s = turn (k - 1): every eigenvalue turns by at most turn per step."""
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = (Z - Z.conj().T) / 2
    H = H / np.max(np.abs(np.linalg.eigvals(H)))
    return np.array([scipy.linalg.expm(t * turn * (k - 1) * H)
                     for t in np.linspace(0.0, 1.0, k)])


@given(n=DIMS, seed=SEEDS)
def test_polar_midpoint_is_the_principal_root_midpoint(n, seed):
    rng = np.random.default_rng(seed)
    Ua, Ub = random_unitary(n, rng).entries, random_unitary(n, rng).entries
    assume(antipodal_margin(Ua, Ub) >= 1e-3)
    want = schur_sqrt(Ub @ Ua.conj().T) @ Ua
    assert np.max(np.abs(library_midpoint(Ua, Ub) - want)) <= 1e-12


def coarse_lagrangian_frames(n, rng, k):
    """k frames of t -> expm(t s H) L with each eigenvalue of expm(s H / (k - 1))
    turning by up to 1.2, so at n >= 2 the lift takes the eigenvalues of
    some Souriau steps."""
    L = random_lagrangian(n, rng).columns
    return np.array([embed_unitary(U).entries @ L
                     for U in unitary_path(n, rng, k, rng.uniform(0.6, 1.2))])


def densified(w, levels):
    """The Souriau stack w with every step split into 2^levels geodesic steps
    by souriau_midpoint_reference."""
    for _ in range(levels):
        mids = [souriau_midpoint_reference(a, b) for a, b in zip(w[:-1], w[1:])]
        w = [w[0]] + [x for pair in zip(mids, w[1:]) for x in pair]
    return w


@given(n=DIMS, seed=SEEDS)
def test_souriau_step_increments_match_a_densified_path(n, seed):
    # coarse one-parameter subgroup paths whose Souriau steps turn each
    # eigenvalue by up to about 3 rad, all one way, so det w turns by up to
    # about 3n, against the same Souriau geodesics cut into eighths, each
    # turning det w by under pi / 2, unwrapped by numpy
    rng = np.random.default_rng(seed)
    k, turn = int(rng.integers(3, 6)), rng.uniform(0.5, 1.5)
    Q = random_unitary(n, rng).entries
    mu = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0, n)
    t = np.linspace(0.0, turn * (k - 1), 8 * (k - 1) + 1)
    Us = (Q * np.exp(1j * np.multiply.outer(t, mu))[:, None, :]) @ Q.conj().T
    L = random_lagrangian(n, rng)
    fine = [SymplecticMatrix(embed_unitary(U).entries) for U in Us]
    coarse = induced_lagrangian_path(fine[::8], L)
    w = coarse.souriau
    assume(all(antipodal_margin(a, b) >= 1e-3 for a, b in zip(w[:-1], w[1:])))
    dense = densified(list(w), 3)
    phases = np.angle([np.linalg.det(x) for x in dense])
    want = phases[0] + np.concatenate([[0.0], np.cumsum(
        (np.diff(phases) + np.pi) % (2 * np.pi) - np.pi)])
    assert np.max(np.abs(lift_path(coarse) - want[::8])) <= 1e-12
    path = LagrangianPath([lagrangian_from_souriau(x) for x in dense])
    assert clm_index(coarse) == clm_index(path)
    assert mu_hat_on_cover(fine[::8], L) == mu_hat_on_cover(fine, L)


@given(n=DIMS, seed=SEEDS)
def test_integers_are_stable_under_geodesic_resampling(n, seed):
    rng = np.random.default_rng(seed)
    # a one-parameter subgroup sampled at k and 2k - 1 points: the extra
    # samples are the geodesic midpoints of its steps
    k, turn = int(rng.integers(3, 6)), rng.uniform(0.2, 0.5)
    Us = unitary_path(n, rng, 2 * k - 1, turn / 2)
    L = random_lagrangian(n, rng)
    paths = [[SymplecticMatrix(embed_unitary(U).entries) for U in Us[::step]]
             for step in (2, 1)]
    coarse, fine = (induced_lagrangian_path(p, L) for p in paths)
    assert clm_index(coarse) == clm_index(fine)
    assert mu_hat_on_cover(paths[0], L) == mu_hat_on_cover(paths[1], L)
    # the same on a Lagrangian path, with Souriau midpoints of the reference
    frames = [LagrangianFrame(F) for F in coarse_lagrangian_frames(n, rng, k)]
    w = [souriau_map(F).entries for F in frames]
    assume(all(antipodal_margin(a, b) >= 1e-3 for a, b in zip(w[:-1], w[1:])))
    mids = [lagrangian_from_souriau(souriau_midpoint_reference(a, b))
            for a, b in zip(w[:-1], w[1:])]
    dense = [frames[0]] + [F for pair in zip(mids, frames[1:]) for F in pair]
    assert clm_index(LagrangianPath(frames)) == clm_index(LagrangianPath(dense))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_antipodal_steps_raise_and_name_the_step(n):
    L = random_lagrangian(n, np.random.default_rng(n))
    JL = LagrangianFrame(standard_j(n) @ L.columns)
    with pytest.raises(SamplingError, match="antipodal step from t = 0 to 1:"):
        clm_index(LagrangianPath([L, JL]))
    with pytest.raises(SamplingError, match="antipodal step from t = 0.5 to 1:"):
        clm_index(LagrangianPath([L, L, JL]))
    I = np.eye(n, dtype=complex)
    with pytest.raises(SamplingError, match="antipodal step from sample 0 to 1:"):
        lift_frame_path_trace(np.array([I, -I]), ground_state(n))
    with pytest.raises(SamplingError, match="antipodal step from sample 1 to 2:"):
        lift_frame_path_trace(np.array([I, 1j * I, -1j * I]), ground_state(n))


def test_library_runs_without_scipy():
    # a Hermite lift, and a Lagrangian lift whose one step takes eigvals:
    # det w turns by 3 + 1 rad, where the wrapped difference reads 4 - 2 pi
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from maslov.index import LagrangianPath, lift_path",
        "from maslov.metaplectic import hermite_state, lift_frame_path_trace",
        "Us = np.exp(1j * np.array([0.0, 1.5, 3.0]))[:, None, None]",
        "c, M, polys = lift_frame_path_trace(Us, hermite_state(2, 1))",
        "V = np.exp(1j * np.array([[0.0, 0.0], [1.5, 0.5]]))[:, :, None] * np.eye(2)",
        "theta = lift_path(LagrangianPath(V))",
        "assert abs(theta[1] - theta[0] - 4.0) < 1e-12",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(maslov.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
