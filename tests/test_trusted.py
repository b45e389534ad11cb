"""Values the library builds from values it has already checked skip the
public constructors' checks (core._trusted).  Each such value must still
pass its public constructor, which stores bit-equal, read-only arrays; a
rebuilt value keeps the tolerance of the value it came from; and the one
unitarity check left on the lift route still names its sample."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from maslov.core import (LagrangianFrame, SymplecticMatrix, Tolerances,
                         embed_unitary, l0_frame, random_lagrangian,
                         random_unitary, souriau_map, unitaries_from_symplectic)
from maslov.errors import InvariantViolation
from maslov.index import LagrangianPath, random_cover_point
from maslov.metaplectic import (Chirp, GaussianAmplitude, QuadraticFourier,
                                adjoint_quad_fourier, apply_generator,
                                ground_state, hermite_state, lift_frame_path)

DIMS = st.integers(1, 4)
SEEDS = st.integers(0, 2 ** 32 - 1)


def assert_passes_public(value, *args):
    """The public constructor of value's type accepts args, the stored fields
    of value, and stores every field bit for bit; arrays are read-only."""
    rebuilt = type(value)(*args)
    for f in dataclasses.fields(value):
        a, b = getattr(value, f.name), getattr(rebuilt, f.name)
        if isinstance(a, np.ndarray):
            assert not a.flags.writeable and not b.flags.writeable, f.name
            assert a.shape == b.shape and a.dtype == b.dtype, f.name
            assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), f.name
        else:
            assert a == b, f.name


def random_symmetric(n, rng):
    B = rng.normal(size=(n, n))
    return (B + B.T) / 2


def unitary_path(n, rng, k, turn):
    """t -> expm(t H) at k samples from the identity, H anti-Hermitian with
    spectral radius turn."""
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = (Z - Z.conj().T) / 2
    H = turn * H / np.max(np.abs(np.linalg.eigvals(H)))
    return [scipy.linalg.expm(t * H) for t in np.linspace(0.0, 1.0, k)]


@given(n=DIMS, seed=SEEDS)
def test_trusted_frames_pass_the_public_constructor(n, seed):
    rng = np.random.default_rng(seed)
    x = random_cover_point(n, rng)
    F = x.frame()
    assert_passes_public(F, F.columns)
    assert np.max(np.abs(F.columns.T @ F.columns - np.eye(n))) <= 1e-13
    assert np.max(np.abs(souriau_map(F).entries - x.w)) <= 1e-12
    # a coarse path: the frames it builds from its Souriau stack
    L = random_lagrangian(n, rng)
    path = LagrangianPath(np.array([embed_unitary(U).entries @ L.columns
                                    for U in unitary_path(n, rng, 4, 3.0)]))
    for k in range(len(path)):
        assert_passes_public(path.frames[k], path.frames[k].columns)
    G = random_lagrangian(n, rng)
    assert_passes_public(G, G.columns)
    H = LagrangianFrame(G.columns @ rng.normal(size=(n, n))).orthonormalized()
    assert_passes_public(H, H.columns)


@given(n=DIMS, seed=SEEDS)
def test_trusted_unitaries_and_embeddings_pass_the_public_constructor(n, seed):
    rng = np.random.default_rng(seed)
    U = random_unitary(n, rng)
    assert_passes_public(U, U.entries)
    w = souriau_map(random_lagrangian(n, rng))
    assert_passes_public(w, w.entries)
    S = embed_unitary(U)
    assert_passes_public(S, S.entries)
    S = embed_unitary(U.entries)
    assert_passes_public(S, S.entries)


@given(n=DIMS, seed=SEEDS)
def test_trusted_states_and_transforms_pass_the_public_constructor(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    s = GaussianAmplitude(rng.normal() + 1j * rng.normal(),
                          A @ A.T + np.eye(n) + 1j * random_symmetric(n, rng),
                          hermite_state(tuple(rng.integers(0, 3, size=n)), n).poly)
    t = apply_generator(Chirp(random_symmetric(n, rng)), s)
    assert_passes_public(t, t.c, t.M, t.poly)
    L = rng.normal(size=(n, n))
    assume(abs(np.linalg.det(L)) >= 1e-3)
    qf = QuadraticFourier(random_symmetric(n, rng), L, random_symmetric(n, rng),
                          int(rng.integers(0, 4)))
    for q in (qf.with_branch(int(rng.integers(-8, 8))), adjoint_quad_fourier(qf)):
        assert_passes_public(q, q.P, q.L, q.Q, q.m)


def test_rebuilt_transforms_keep_the_callers_tolerance():
    # |det L| = 1e-10 passes only under the caller's rank_tol, not the default
    tight = Tolerances(rank_tol=1e-12)
    qf = QuadraticFourier(np.zeros((2, 2)), np.diag([1e-5, 1e-5]), np.zeros((2, 2)), 0, tight)
    assert qf.with_branch(1).m == 1
    assert adjoint_quad_fourier(qf).m == 2
    assert np.array_equal(adjoint_quad_fourier(qf).L, -qf.L.T)


def test_orthonormalized_keeps_the_callers_tolerance():
    # an isotropy residual of 1e-7 passes only under the caller's residual_tol
    cols = l0_frame(2).columns + np.array([[0.0, 0.0], [1e-7, 0.0], [0.0, 0.0], [0.0, 0.0]])
    F = LagrangianFrame(cols, Tolerances(residual_tol=1e-6))
    with pytest.raises(InvariantViolation, match="not isotropic"):
        LagrangianFrame(F.columns)
    assert np.max(np.abs(F.orthonormalized().columns.T @ F.orthonormalized().columns
                         - np.eye(2))) <= 1e-14


@given(n=DIMS, seed=SEEDS)
def test_lift_names_a_non_unitary_sample_built_under_a_loose_tolerance(n, seed):
    rng = np.random.default_rng(seed)
    loose = Tolerances(residual_tol=1e-5)
    Us = unitary_path(n, rng, 6, 1.0)
    k = int(rng.integers(1, len(Us)))
    Us[k] = Us[k] * (1 + 1e-7)  # unitarity residual 2e-7
    path = [SymplecticMatrix(np.block([[U.real, -U.imag], [U.imag, U.real]]), loose)
            for U in Us]
    unitaries_from_symplectic(path)  # the block form holds exactly
    with pytest.raises(InvariantViolation, match="at sample %d$" % k):
        lift_frame_path(path, ground_state(n))


def test_scaled_keeps_the_state_tolerance():
    # only c changes, so the state's own checks stand; a non-finite c raises
    s = GaussianAmplitude(1, np.diag([1.0, 1e-10]), tol=Tolerances(rank_tol=1e-12))
    t = s.scaled(2.0)
    assert t.c == 2.0 and t.M is s.M and t.poly is s.poly
    with pytest.raises(InvariantViolation, match="must be finite"):
        s.scaled(np.nan)


@given(n=DIMS, seed=SEEDS)
def test_scaled_state_passes_the_public_constructor(n, seed):
    rng = np.random.default_rng(seed)
    s = hermite_state(int(rng.integers(0, 3)), n)
    a = complex(*rng.normal(size=2))
    assert_passes_public(s.scaled(a), s.c * a, s.M, s.poly)
