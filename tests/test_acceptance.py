"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime.  Tolerances are pinned here and nowhere else:

  exact integer identities ........ no tolerance
  phases .......................... 1e-6
  norm preservation ............... 1e-9
"""

import time

import numpy as np
import scipy.linalg

from maslov.cli import run as cli_run
from maslov.core import (SymplecticMatrix, embed_unitary, intersection_dim,
                         l0_frame)
from maslov.geometry import (ParamPath, circle_chart, product_torus_chart,
                             verify_corollary1, verify_theorem1,
                             verify_theorem2)
from maslov.index import (DeckAction, clm_index, cover_action,
                          induced_lagrangian_path, kashiwara_signature,
                          leray_index, mu_hat_on_cover, random_cover_point)
from maslov.metaplectic import (QuadraticFourier, apply_quad_fourier,
                                ground_state, hermite_state, l2_norm_squared,
                                lift_frame_path, mu_hat, mu_hat_composed,
                                pin_branch_transverse, quarter_turn,
                                quad_fourier_from_symplectic,
                                symplectic_from_quad_fourier)

PHASE_TOL = 1e-6
NORM_TOL = 1e-9


def _report(num, name, ok, t0, budget):
    elapsed = time.time() - t0
    print("criterion %d (%s): %s  [%.2fs / budget %gs]"
          % (num, name, "PASS" if ok else "FAIL", elapsed, budget))
    assert ok, "criterion %d failed" % num
    assert elapsed < budget, "criterion %d exceeded runtime budget" % num


def _schur_sqrt(V):
    """Principal square root of a unitary matrix by a complex Schur form,
    independent of the library's geodesic midpoints."""
    T, Z = scipy.linalg.schur(V, output="complex")
    return Z @ np.diag(np.exp(0.5j * np.angle(np.diagonal(T)))) @ Z.conj().T


def _random_unitary_path(n, rng, k=50, scale=None):
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = (X - X.conj().T) / 2
    scale = scale or rng.uniform(0.5, 6.0)
    return [SymplecticMatrix(embed_unitary(
        np.asarray(scipy.linalg.expm(scale * t * H))).entries)
        for t in np.linspace(0.0, 1.0, k)]


def test_criterion_1_coboundary():
    t0 = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for n in (1, 2, 3):
        for _ in range(200):
            x, y, z = (random_cover_point(n, rng) for _ in range(3))
            lhs = leray_index(x, y) - leray_index(x, z) + leray_index(y, z)
            rhs = kashiwara_signature(x.frame(), y.frame(), z.frame())
            ok = ok and (lhs == rhs)
    _report(1, "coboundary suite", ok, t0, 10.0)


def test_criterion_2_deck_and_invariance():
    t0 = time.time()
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(10):
        n = int(rng.integers(1, 4))
        x, y = random_cover_point(n, rng), random_cover_point(n, rng)
        mu = leray_index(x, y)
        for r in range(-2, 3):
            for rp in range(-2, 3):
                ok = ok and leray_index(DeckAction(r)(x), DeckAction(rp)(y)) \
                    == mu + 2 * (r - rp)
    from maslov.core import random_unitary
    for _ in range(50):
        n = int(rng.integers(1, 4))
        x, y = random_cover_point(n, rng), random_cover_point(n, rng)
        r = random_unitary(n, rng).entries
        phi = float(np.angle(np.linalg.det(r))) + 2 * np.pi * int(rng.integers(-2, 3))
        ok = ok and leray_index(cover_action(r, phi, x), cover_action(r, phi, y)) \
            == leray_index(x, y)
    _report(2, "deck shifts and symplectic invariance", ok, t0, 5.0)


def test_criterion_3_circle_benchmark():
    t0 = time.time()
    single = verify_theorem1(circle_chart(), ParamPath.circle_arc(1.0, 300))
    double = verify_theorem1(circle_chart(), ParamPath.circle_arc(2.0, 600))
    ok = (single["mu_clm"] == 2
          and abs(complex(*single["phase"]) + 1.0) < PHASE_TOL
          and double["mu_clm"] == 4
          and abs(complex(*double["phase"]) - 1.0) < PHASE_TOL)
    _report(3, "circle benchmark", ok, t0, 2.0)


def test_criterion_4_torus_benchmark():
    t0 = time.time()
    torus = product_torus_chart()
    expected = {(1, 0): (2, -1.0), (0, 1): (2, -1.0), (1, 1): (4, 1.0)}
    ok = True
    for winding, (mu, ph) in expected.items():
        rep = verify_theorem1(torus, ParamPath.torus_loop(winding, 300))
        ok = ok and rep["mu_clm"] == mu \
            and abs(complex(*rep["phase"]) - ph) < PHASE_TOL
    cor = verify_corollary1(torus, [ParamPath.torus_loop((1, 0), 300),
                                    ParamPath.torus_loop((0, 1), 300)])
    ok = ok and cor["dim_parallel"] == 0
    _report(4, "torus benchmark", ok, t0, 5.0)


def test_criterion_5_mod8_identity():
    t0 = time.time()
    rng = np.random.default_rng(105)
    ok = True
    done = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        path = _random_unitary_path(n, rng)
        if abs(np.linalg.det(path[-1].blocks[1])) < 1e-2:
            continue
        L0 = l0_frame(n)
        # route 1: cover lifting
        mu_cover = mu_hat_on_cover(path, L0) % 8
        # route 2: CLM plus intersection defect
        induced = induced_lagrangian_path(path, L0)
        d = intersection_dim(induced.frames[0], induced.frames[-1])
        mu_clm_route = (2 * clm_index(induced) + (n - d)) % 8
        # route 3: Gaussian calculus through the pinned branch
        lift = lift_frame_path(path, ground_state(n))
        qf = pin_branch_transverse(path[-1], lift.c)
        mu_gauss = mu_hat(qf)
        ok = ok and (mu_cover == mu_clm_route == mu_gauss)
        done += 1
    _report(5, "mod-8 three-way identity", ok, t0, 30.0)


def test_criterion_6_cocycle_well_defined():
    t0 = time.time()
    rng = np.random.default_rng(106)
    ok = True
    done = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        path = _random_unitary_path(n, rng, k=30)
        S = path[-1]
        if abs(np.linalg.det(S.blocks[1])) < 1e-2:
            continue
        target = lift_frame_path(path, ground_state(n)).c
        pairs = []
        tries = 0
        while len(pairs) < 2 and tries < 40:
            tries += 1
            P, Q = rng.normal(size=(n, n)), rng.normal(size=(n, n))
            L = rng.normal(size=(n, n)) + 3 * np.eye(n)
            qf2 = QuadraticFourier((P + P.T) / 2, L, (Q + Q.T) / 2,
                                   int(rng.integers(0, 4)))
            S1 = SymplecticMatrix(S.entries @ symplectic_from_quad_fourier(qf2)
                                  .inverse().entries)
            if abs(np.linalg.det(S1.blocks[1])) < 1e-2:
                continue
            qf1 = quad_fourier_from_symplectic(S1, 0)
            out = apply_quad_fourier(qf1, apply_quad_fourier(qf2, ground_state(n)))
            ratio = target / out.c
            m = int(round(2 * np.angle(ratio) / np.pi)) % 4
            if abs(ratio - quarter_turn(m)) > 1e-8:
                continue
            pairs.append((qf1.with_branch(m), qf2))
        if len(pairs) < 2:
            continue
        vals = {mu_hat_composed(a, b) for a, b in pairs}
        ok = ok and len(vals) == 1
        done += 1
    _report(6, "cocycle well-definedness", ok, t0, 10.0)


def test_criterion_7_theorem2_benchmark():
    t0 = time.time()
    circ = circle_chart()
    quarter = verify_theorem2(circ, ParamPath.circle_arc(0.25, 80))
    threeq = verify_theorem2(circ, ParamPath.circle_arc(0.75, 250))
    ok = True
    for rep in (quarter, threeq):
        ok = ok and rep["case"] == "transverse" and rep["c_y"] > 0 \
            and rep["dual_residual"] < PHASE_TOL \
            and rep["lift_residual"] < PHASE_TOL \
            and rep["corollary2_transversal"]["pass"]
    closed = verify_theorem2(circ, ParamPath.circle_arc(1.0, 300), levels=(0, 1, 2))
    ok = ok and closed["case"] == "tangent" and closed["dual_residual"] < PHASE_TOL
    for pairing in closed["eigenstate_pairings"]:
        lhs, rhs = complex(*pairing["lhs"]), complex(*pairing["rhs"])
        ok = ok and abs(lhs - rhs) < PHASE_TOL
    ok = ok and {p["level"] for p in closed["eigenstate_pairings"]} == {0, 1, 2}
    _report(7, "dual transport benchmark", ok, t0, 5.0)


def test_criterion_8_calculus_health():
    t0 = time.time()
    rng = np.random.default_rng(108)
    ok = True
    # unitarity across the generator words exercised above
    for _ in range(25):
        n = int(rng.integers(1, 3))
        path = _random_unitary_path(n, rng, k=25)
        levels = tuple(int(rng.integers(0, 3)) for _ in range(n))
        B = rng.normal(size=(n, n))
        s = apply_quad_fourier(
            QuadraticFourier(np.zeros((n, n)), np.eye(n), (B + B.T) / 2,
                             int(rng.integers(0, 4))),
            hermite_state(levels, n))
        norm0 = l2_norm_squared(s)
        out = lift_frame_path(path, s)
        ok = ok and abs(l2_norm_squared(out) - norm0) < NORM_TOL * max(1.0, norm0)
        if abs(np.linalg.det(path[-1].blocks[1])) > 1e-2:
            qf = quad_fourier_from_symplectic(path[-1], int(rng.integers(0, 4)))
            out2 = apply_quad_fourier(qf, s)
            ok = ok and abs(l2_norm_squared(out2) - norm0) < NORM_TOL * max(1.0, norm0)
    # branch stability under sampling doubling
    from maslov.core import unitaries_from_symplectic
    for _ in range(10):
        n = int(rng.integers(1, 3))
        base = _random_unitary_path(n, rng, k=30)
        out1 = lift_frame_path(base, ground_state(n))
        mid = []
        for a, b in zip(base[:-1], base[1:]):
            mid.append(a)
            Ua, Ub = unitaries_from_symplectic([a, b])
            mid.append(SymplecticMatrix(embed_unitary(
                _schur_sqrt(Ub @ Ua.conj().T) @ Ua).entries))
        mid.append(base[-1])
        out2 = lift_frame_path(mid, ground_state(n))
        ok = ok and abs(out1.c - out2.c) < PHASE_TOL
    _report(8, "calculus health", ok, t0, 30.0)


def test_criterion_9_determinism():
    t0 = time.time()
    spec = {
        "command": "verify",
        "chart": {"name": "circle"},
        "path": {"kind": "arc", "turns": 1.0, "samples": 200},
    }
    _, code1, payload1 = cli_run(spec)
    _, code2, payload2 = cli_run(spec)
    ok = code1 == code2 == 0 and payload1 == payload2
    _report(9, "CLI determinism", ok, t0, 10.0)
