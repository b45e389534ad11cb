"""holonomy_battery: a list of ``maslov.cli.run`` specs.

The list always holds the ``maslov report`` battery cases and the acceptance
criterion 3, 4 and 7 cases, each as its own ``verify`` spec, followed by
seeded ``verify`` and ``holonomy`` specs over circle radii, torus windings
and radii, and trig-series ``custom`` curves.  Each seeded slot comes as a
coarsely sampled spec (refinement makes most dense frames) and a finely
sampled one (refinement stays idle or nearly so).  The order is fixed; the
seed draws radii, signs, base points and curve coefficients, which leave the
amount of work per slot nearly unchanged.

Expectations come from geometry, not from the library:

* the tangent line of a circle turns k times along k turns: mu = 2k;
* a product-torus loop of winding (a, b): mu = 2(a + b);
* a closed plane curve: mu = 2 x the turning number of its tangent, summed
  here with plain numpy on a fine grid;
* a closed loop's ground-state phase is i^mu and its lifted det-phase
  advances by 2 pi mu;
* an open circle arc turning the tangent by alpha, with transverse
  endpoints, has mu = floor(alpha / pi) (the transverse closed form with the
  lift advanced by 2 alpha), and lift phase e^{i pi mu / 2} i^{1/2};
* the k-turn tangent case has dual prefactor e^{-i pi mu / 2}, and the
  level-l pairing equals e^{i pi mu / 2} H_l(0).

No spec carries ``refine_max``: ``verify`` and ``report`` ignore it today, so
a later fix that honoured it would silently change this workload.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

import maslov.cli
from harness import Op, close

PHASE_TOL = 1e-6
TWO_PI = 2.0 * math.pi
HERMITE_AT_ZERO = {0: 1.0, 1: 0.0, 2: -2.0}


def _arc(turns, samples, start=0.0):
    return {"kind": "arc", "turns": float(turns), "samples": int(samples),
            "start": float(start)}


def _torus_loop(winding, samples, base=(0.0, 0.0)):
    return {"kind": "torus_loop", "winding": [int(w) for w in winding],
            "samples": int(samples), "base": [float(b) for b in base]}


def _closed_interval(samples):
    return {"kind": "interval", "start": [0.0], "stop": [TWO_PI],
            "samples": int(samples), "closed": True}


CIRCLE = {"name": "circle"}
TORUS = {"name": "product_torus"}


def _epicycle(r, e, k):
    """Chart spec of q + ip = r e^{it} + e e^{-ikt}, and its velocity."""
    chart = {"name": "custom",
             "q": {"cos": [[1, float(r)], [k, float(e)]]},
             "p": {"sin": [[1, float(r)], [k, -float(e)]]}}

    def velocity(t):
        return 1j * r * np.exp(1j * t) - 1j * k * e * np.exp(-1j * k * t)

    return chart, velocity


def turning_number(velocity, grid=20001) -> int:
    """Turns of the tangent direction over [0, 2 pi], by unwrapping."""
    t = np.linspace(0.0, TWO_PI, grid)
    ang = np.unwrap(np.angle(velocity(t)))
    return int(round((ang[-1] - ang[0]) / TWO_PI))


# ---------------------------------------------------------------------------
# checks: each returns None when the report is as expected


def _common(got):
    report, code, _ = got
    if code != 0 or report.get("pass") is not True:
        return "pass = false (exit code %s)" % code
    return None


def _phase(pair):
    return complex(pair[0], pair[1])


def check_theorem1(mu):
    def check(got):
        r = got[0]["results"]
        if r["mu_clm"] != mu:
            return "mu_clm %s, expected %d" % (r["mu_clm"], mu)
        if not close(_phase(r["phase"]), 1j ** (mu % 4), PHASE_TOL):
            return "phase %s, expected i^%d" % (r["phase"], mu)
        return _common(got)
    return check


def check_transverse(mu, n=1):
    want = cmath.exp(1j * math.pi * (mu / 2 + n / 4))

    def check(got):
        r = got[0]["results"]
        if r.get("case") != "transverse" or r["mu_clm"] != mu:
            return "case %s mu_clm %s, expected transverse %d" % (
                r.get("case"), r["mu_clm"], mu)
        if not close(_phase(r["lift_phase"]), want, PHASE_TOL):
            return "lift phase %s, expected %s" % (r["lift_phase"], want)
        if not r["c_y"] > 0:
            return "c_y %s is not positive" % r["c_y"]
        return _common(got)
    return check


def check_tangent(mu, levels=(0, 1, 2)):
    def check(got):
        r = got[0]["results"]
        if r.get("case") != "tangent" or r["mu_clm"] != mu:
            return "case %s mu_clm %s, expected tangent %d" % (
                r.get("case"), r["mu_clm"], mu)
        if not close(_phase(r["dual_prefactor"]), 1j ** (-mu % 4), PHASE_TOL):
            return "dual prefactor %s, expected i^-%d" % (r["dual_prefactor"], mu)
        pairs = {p["level"]: _phase(p["lhs"]) for p in r["eigenstate_pairings"]}
        if sorted(pairs) != sorted(levels):
            return "pairing levels %s" % sorted(pairs)
        for level, lhs in pairs.items():
            if not close(lhs, 1j ** (mu % 4) * HERMITE_AT_ZERO[level], PHASE_TOL):
                return "level-%d pairing %s" % (level, lhs)
        return _common(got)
    return check


def check_corollary1(mus):
    def check(got):
        r = got[0]["results"]
        got_mus = [loop["mu_clm"] for loop in r["loops"]]
        if got_mus != list(mus):
            return "loop indices %s, expected %s" % (got_mus, list(mus))
        dim = 1 if all(m % 4 == 0 for m in mus) else 0
        if r["dim_parallel"] != dim:
            return "dim_parallel %s, expected %d" % (r["dim_parallel"], dim)
        for loop, m in zip(r["loops"], mus):
            if not close(_phase(loop["phase"]), 1j ** (m % 4), PHASE_TOL):
                return "loop phase %s, expected i^%d" % (loop["phase"], m)
        return _common(got)
    return check


def check_holonomy(mu):
    def check(got):
        r = got[0]["results"]
        if not close(_phase(r["phase"]), 1j ** (mu % 4), PHASE_TOL):
            return "phase %s, expected i^%d" % (r["phase"], mu)
        if abs(r["theta_total"] - TWO_PI * mu) > PHASE_TOL:
            return "theta_total %.12g, expected 2 pi x %d" % (r["theta_total"], mu)
        if len(r["trace"]) != r["sampling"]["samples"]:
            return "trace has %d rows for %d samples" % (
                len(r["trace"]), r["sampling"]["samples"])
        return _common(got)
    return check


# ---------------------------------------------------------------------------
# the operation list


def _op(name, spec, check):
    return Op(name, lambda: maslov.cli.run(spec), check)


def _verify(chart, path, theorem=None):
    spec = {"command": "verify", "chart": chart, "path": path}
    if theorem is not None:
        spec["theorem"] = theorem
    return spec


def _holonomy(chart, path):
    return {"command": "holonomy", "chart": chart, "path": path}


def fixed_ops():
    """The report battery and the criterion 3, 4 and 7 cases."""
    ops = [
        _op("battery.circle_loop", _verify(CIRCLE, _arc(1, 300)), check_theorem1(2)),
        _op("battery.circle_double_loop", _verify(CIRCLE, _arc(2, 600)), check_theorem1(4)),
        _op("battery.circle_quarter_arc", _verify(CIRCLE, _arc(0.25, 80)),
            check_transverse(0)),
        _op("battery.circle_three_quarter_arc", _verify(CIRCLE, _arc(0.75, 240)),
            check_transverse(1)),
        _op("battery.circle_closed_tangent", _verify(CIRCLE, _arc(1, 300), "2"),
            check_tangent(2)),
    ]
    for samples, tag in ((400, "battery"), (300, "criterion4")):
        for w in ((1, 0), (0, 1), (1, 1)):
            ops.append(_op("%s.torus_loop_%d%d" % (tag, *w),
                           _verify(TORUS, _torus_loop(w, samples)),
                           check_theorem1(2 * sum(w))))
        spec = {"command": "verify", "theorem": "corollary1", "chart": TORUS,
                "loops": [_torus_loop((1, 0), samples), _torus_loop((0, 1), samples)]}
        ops.append(_op("%s.torus_corollary1" % tag, spec, check_corollary1((2, 2))))
    ops.append(_op("criterion7.circle_three_quarter_arc",
                   _verify(CIRCLE, _arc(0.75, 250)), check_transverse(1)))
    return ops


def seeded_ops(rng):
    """Seeded slots, each as a (coarse, fine) pair of specs."""
    ops = []

    def pair(name, make, check, coarse, fine):
        ops.append(_op(name + ".coarse", make(coarse), check))
        ops.append(_op(name + ".fine", make(fine), check))

    def circle(r):
        return {"name": "circle", "radius": float(r)}

    def torus(r1, r2):
        return {"name": "product_torus", "radii": [float(r1), float(r2)]}

    def angle():
        return float(rng.uniform(0.0, TWO_PI))

    # circle loops, one turn either way
    k = int(rng.choice([-1, 1]))
    chart, start = circle(rng.uniform(0.5, 3.0)), angle()
    pair("verify.circle", lambda s: _verify(chart, _arc(k, s, start)),
         check_theorem1(2 * k), 8, 700)
    k2 = int(rng.choice([-1, 1]))
    chart2, start2 = circle(rng.uniform(0.5, 3.0)), angle()
    pair("holonomy.circle", lambda s: _holonomy(chart2, _arc(k2, s, start2)),
         check_holonomy(2 * k2), 8, 700)

    # torus loops: one generator either way, then a diagonal with signs
    w = ((1, 0), (-1, 0), (0, 1), (0, -1))[int(rng.integers(4))]
    chart3, base3 = torus(*rng.uniform(0.5, 2.0, 2)), (angle(), angle())
    pair("verify.torus", lambda s: _verify(chart3, _torus_loop(w, s, base3)),
         check_theorem1(2 * sum(w)), 8, 700)
    wd = tuple(int(v) for v in rng.choice([-1, 1], 2))
    chart4, base4 = torus(*rng.uniform(0.5, 2.0, 2)), (angle(), angle())
    pair("holonomy.torus", lambda s: _holonomy(chart4, _torus_loop(wd, s, base4)),
         check_holonomy(2 * sum(wd)), 10, 1000)

    # open three-quarter arcs either way, from a random start
    turns = 0.75 * float(rng.choice([-1, 1]))
    start5 = angle()
    pair("verify.circle_arc", lambda s: _verify(CIRCLE, _arc(turns, s, start5)),
         check_transverse(math.floor(2 * turns)), 6, 520)

    # gentle trig-series curves (tangent turns once)
    for cmd, spec, check in (("verify", _verify, check_theorem1),
                             ("holonomy", _holonomy, check_holonomy)):
        r = rng.uniform(0.8, 1.2)
        chart6, vel = _epicycle(r, r * rng.uniform(0.05, 0.1), 2)
        pair(cmd + ".custom", lambda s, c=chart6, f=spec: f(c, _closed_interval(s)),
             check(2 * turning_number(vel)), 12, 1200)
    return ops


def make_ops(seed: int):
    rng = np.random.default_rng(seed)
    fixed, seeded = fixed_ops(), seeded_ops(rng)
    # interleave so that any prefix mixes battery cases and seeded specs
    ops = []
    for i in range(max(len(fixed), len(seeded))):
        ops.extend(fixed[i:i + 1] + seeded[i:i + 1])
    return ops
