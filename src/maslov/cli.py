"""Batch command line front end: experiment specifications in, deterministic
machine-readable reports out.

Commands (the "command" field of a spec):

* index     -- compute a triple signature, a Leray index of two cover points,
               or the CLM index of a chart path
* holonomy  -- transport along a chart path and emit the unwrapped angle and
               phase traces
* verify    -- run a theorem verifier on a chart path (closed paths check the
               holonomy law, open paths the dual-transport law)
* report    -- run the built-in catalog battery

Exit codes: 0 pass, 2 numerical assertion failure, 1 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain

import numpy as np

from . import geometry
from .core import DEFAULT_TOLERANCES, LagrangianFrame, Tolerances, line_frame
from .errors import MaslovError, SpecError
from .geometry import (ParamPath, circle_chart, curve_chart_from_series,
                       flat_plane_chart, fourth_root_label,
                       gradient_graph_chart, product_torus_chart,
                       tangent_lagrangian_path, transport_frame,
                       verify_corollary1, verify_theorem1, verify_theorem2)
from .index import (CoverPoint, clm_index, kashiwara_signature, leray_index,
                    lift_path)
from .metaplectic import ground_state, lift_frame_path_trace

SPEC_VERSION = "1"

#: Top-level spec fields every command reads.
COMMON_FIELDS = frozenset({"spec_version", "command", "tolerances", "output", "seed"})
#: Further top-level spec fields read by each command, and by each theorem
#: of verify; a spec that carries any other field is rejected.
COMMAND_FIELDS = {
    "index": {"index"},
    "holonomy": {"chart", "path", "refine_max"},
    "verify 1": {"theorem", "chart", "path"},
    "verify 2": {"theorem", "chart", "path", "levels"},
    "verify corollary1": {"theorem", "chart", "loops"},
    "report": set(),
}


# ---------------------------------------------------------------------------
# canonical serialization (byte-stable across runs)


@functools.lru_cache(maxsize=256)
def _row_format(k: int) -> str:
    """The %-template of a row of k floats, each "%.17g", comma-separated."""
    return ",".join(["%.17g"] * k)


def _canon(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        out.append("%.17g" % v if np.isfinite(v) else '"%s"' % repr(v))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        # fast path: finite Python floats, or a table of rows of them such as
        # a holonomy trace (a NaN or inf entry makes the sum non-finite)
        rows = obj if set(map(type, obj)) == {list} else (obj,)
        flat = list(chain.from_iterable(rows))
        if set(map(type, flat)) <= {float} and math.isfinite(sum(flat)):
            body = "],[".join([_row_format(len(r)) % tuple(r) for r in rows])
            out.append(("[[%s]]" if rows is obj else "[%s]") % body)
            return
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _canon(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(k), ensure_ascii=True) + ":")
            _canon(obj[k], out)
        out.append("}")
    else:
        raise SpecError("report", "unserializable value of type %s" % type(obj).__name__)


def canonical_json(obj) -> str:
    out = []
    _canon(obj, out)
    return "".join(out) + "\n"


def trace_csv(rows) -> str:
    lines = ["t,theta_unwrapped,phase_re,phase_im"]
    for t, theta, pr, pi in rows:
        lines.append(",".join("%.17g" % float(v) for v in (t, theta, pr, pi)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# strict spec parsing


def _require(d, key, path, typ=None):
    if key not in d:
        raise SpecError("%s.%s" % (path, key), "missing required field")
    v = d[key]
    if typ is not None and not isinstance(v, typ):
        raise SpecError("%s.%s" % (path, key), "expected %s" % typ.__name__)
    return v


def _check_keys(d, allowed, path, problem="unknown field"):
    if not isinstance(d, dict):
        raise SpecError(path, "expected an object")
    for k in d:
        if k not in allowed:
            raise SpecError("%s.%s" % (path, k), problem)


def _check_fields(spec, command):
    """Reject every top-level field that the command (for verify, the
    theorem, as "verify 1") does not read."""
    _check_keys(spec, COMMON_FIELDS | COMMAND_FIELDS[command], "spec",
                "not read by %s" % command)


def _tolerance(value, path) -> float:
    if not (isinstance(value, (int, float)) and 0 < value < math.inf):
        raise SpecError(path, "must be a finite positive number")
    return float(value)


def parse_tolerances(spec, path="tolerances",
                     phase_override=None) -> Tolerances:
    spec = spec or {}
    _check_keys(spec, {"residual_tol", "rank_tol", "phase_tol"}, path)
    kw = {k: _tolerance(v, "%s.%s" % (path, k)) for k, v in spec.items()}
    if phase_override is not None:
        kw["phase_tol"] = _tolerance(phase_override, "--tol-phase")
    return Tolerances(**{**DEFAULT_TOLERANCES.__dict__, **kw})


def build_chart(spec, path="chart"):
    name = _require(spec, "name", path, str)
    if name == "circle":
        _check_keys(spec, {"name", "radius"}, path)
        return circle_chart(float(spec.get("radius", 1.0)))
    if name == "product_torus":
        _check_keys(spec, {"name", "radii"}, path)
        return product_torus_chart(tuple(spec.get("radii", (1.0, 1.0))))
    if name == "gradient_graph":
        _check_keys(spec, {"name", "phi_coeffs", "hessian"}, path)
        if "phi_coeffs" in spec:
            return gradient_graph_chart(phi_coeffs=spec["phi_coeffs"])
        if "hessian" in spec:
            return gradient_graph_chart(hessian=spec["hessian"])
        raise SpecError(path, "gradient_graph needs phi_coeffs or hessian")
    if name == "flat_plane":
        _check_keys(spec, {"name", "angle", "frame"}, path)
        if "frame" in spec:
            return flat_plane_chart(LagrangianFrame(np.asarray(spec["frame"], dtype=float)))
        return flat_plane_chart(line_frame(float(spec.get("angle", 0.0))))
    if name == "custom":
        _check_keys(spec, {"name", "q", "p"}, path)
        return curve_chart_from_series(_require(spec, "q", path, dict),
                                       _require(spec, "p", path, dict))
    raise SpecError("%s.name" % path, "unknown chart %r" % name)


def build_path(spec, chart, path="path") -> ParamPath:
    kind = _require(spec, "kind", path, str)
    if kind == "arc":
        _check_keys(spec, {"kind", "turns", "samples", "start"}, path)
        return ParamPath.circle_arc(float(_require(spec, "turns", path, (int, float))),
                                    int(spec.get("samples", 200)),
                                    float(spec.get("start", 0.0)))
    if kind == "interval":
        _check_keys(spec, {"kind", "start", "stop", "samples", "closed"}, path)
        return ParamPath.line(spec.get("start", [0.0] * chart.n),
                              _require(spec, "stop", path),
                              int(spec.get("samples", 200)),
                              bool(spec.get("closed", False)))
    if kind == "torus_loop":
        _check_keys(spec, {"kind", "winding", "samples", "base"}, path)
        return ParamPath.torus_loop(_require(spec, "winding", path, list),
                                    int(spec.get("samples", 400)),
                                    tuple(spec.get("base", (0.0, 0.0))))
    if kind == "samples":
        _check_keys(spec, {"kind", "values", "closed"}, path)
        return ParamPath(np.asarray(_require(spec, "values", path, list), dtype=float),
                         bool(spec.get("closed", False)))
    raise SpecError("%s.kind" % path, "unknown path kind %r" % kind)


def _cover_point_from_spec(spec, path, tol):
    _check_keys(spec, {"w_re", "w_im", "theta"}, path)
    w = np.asarray(_require(spec, "w_re", path, list), dtype=float) \
        + 1j * np.asarray(_require(spec, "w_im", path, list), dtype=float)
    return CoverPoint(w, float(_require(spec, "theta", path, (int, float))), tol)


# ---------------------------------------------------------------------------
# commands


def _run_index(spec, tol):
    _check_fields(spec, "index")
    payload = _require(spec, "index", "spec", dict)
    _check_keys(payload, {"kashiwara", "leray", "clm"}, "spec.index")
    results = {}
    if "kashiwara" in payload:
        ka = payload["kashiwara"]
        _check_keys(ka, {"angles", "frames"}, "spec.index.kashiwara")
        if "angles" in ka:
            frames = [line_frame(float(a)) for a in ka["angles"]]
        else:
            frames = [LagrangianFrame(np.asarray(f, dtype=float))
                      for f in _require(ka, "frames", "spec.index.kashiwara", list)]
        if len(frames) != 3:
            raise SpecError("spec.index.kashiwara", "exactly three Lagrangians required")
        results["tau"] = kashiwara_signature(*frames, tol=tol)
    if "leray" in payload:
        le = payload["leray"]
        _check_keys(le, {"x", "y"}, "spec.index.leray")
        x = _cover_point_from_spec(_require(le, "x", "spec.index.leray", dict),
                                   "spec.index.leray.x", tol)
        y = _cover_point_from_spec(_require(le, "y", "spec.index.leray", dict),
                                   "spec.index.leray.y", tol)
        results["mu"] = leray_index(x, y, tol)
    if "clm" in payload:
        cl = payload["clm"]
        _check_keys(cl, {"chart", "path"}, "spec.index.clm")
        chart = build_chart(_require(cl, "chart", "spec.index.clm", dict),
                            "spec.index.clm.chart")
        ppath = build_path(_require(cl, "path", "spec.index.clm", dict), chart,
                           "spec.index.clm.path")
        tangent = tangent_lagrangian_path(chart, ppath, tol)
        results["mu_clm"] = clm_index(tangent, tol)
        results["mu_clm_mod4"] = results["mu_clm"] % 4
    if not results:
        raise SpecError("spec.index", "no index requested")
    return results, True


def _refine_depth(value, path) -> int:
    if type(value) is not int or value < 0:
        raise SpecError(path, "must be a non-negative integer")
    return value


def _run_holonomy(spec, tol):
    _check_fields(spec, "holonomy")
    refine_max = _refine_depth(12 if spec.get("refine_max") is None else spec["refine_max"],
                               "spec.refine_max")
    chart = build_chart(_require(spec, "chart", "spec", dict))
    ppath = build_path(_require(spec, "path", "spec", dict), chart)
    tr = transport_frame(chart, ppath, tol=tol, max_depth=refine_max)
    c, _, _ = lift_frame_path_trace(tr.start_relative, ground_state(chart.n), tol)
    theta = lift_path(tr.tangent_path, tol)
    phase = c[-1]
    label, resid = fourth_root_label(phase, tol)
    results = {
        "trace": np.column_stack([tr.params, theta, c.real, c.imag]).tolist(),
        "theta_total": float(theta[-1] - theta[0]),
        "phase": [phase.real, phase.imag],
        "phase_label": label,
        "phase_label_residual": resid,
        "sampling": geometry._sampling_stats(tr),
    }
    return results, True


def _run_verify(spec, tol):
    theorem = spec.get("theorem", "auto")
    if theorem not in ("auto", "1", "2", "corollary1"):
        raise SpecError("spec.theorem", "must be auto, 1, 2 or corollary1")
    chart = build_chart(_require(spec, "chart", "spec", dict))
    if theorem == "corollary1":
        _check_fields(spec, "verify corollary1")
        loop_specs = _require(spec, "loops", "spec", list)
        loops = [build_path(ls, chart, "spec.loops[%d]" % i)
                 for i, ls in enumerate(loop_specs)]
        rep = verify_corollary1(chart, loops, tol)
        return rep, rep["pass"]
    ppath = build_path(_require(spec, "path", "spec", dict), chart)
    if theorem == "auto":
        theorem = "1" if ppath.closed else "2"
    _check_fields(spec, "verify " + theorem)
    if theorem == "1":
        rep = verify_theorem1(chart, ppath, tol)
    else:
        levels = tuple(spec.get("levels", (0, 1, 2)))
        rep = verify_theorem2(chart, ppath, tol, levels=levels)
    return rep, rep["pass"]


def _run_report(spec, tol):
    """Built-in catalog battery; deterministic."""
    _check_fields(spec, "report")
    circ = circle_chart()
    torus = product_torus_chart()
    cases = [
        ("circle_loop", lambda: verify_theorem1(circ, ParamPath.circle_arc(1.0, 300), tol)),
        ("circle_double_loop", lambda: verify_theorem1(circ, ParamPath.circle_arc(2.0, 600), tol)),
        ("circle_quarter_arc", lambda: verify_theorem2(circ, ParamPath.circle_arc(0.25, 80), tol)),
        ("circle_three_quarter_arc", lambda: verify_theorem2(circ, ParamPath.circle_arc(0.75, 240), tol)),
        ("circle_closed_tangent", lambda: verify_theorem2(circ, ParamPath.circle_arc(1.0, 300), tol)),
        ("torus_loop_10", lambda: verify_theorem1(torus, ParamPath.torus_loop((1, 0), 400), tol)),
        ("torus_loop_01", lambda: verify_theorem1(torus, ParamPath.torus_loop((0, 1), 400), tol)),
        ("torus_loop_11", lambda: verify_theorem1(torus, ParamPath.torus_loop((1, 1), 400), tol)),
        # the loops (1, 0) and (0, 1) were verified just above
        ("torus_corollary1", lambda: geometry.corollary1_from_reports(
            torus, [results["torus_loop_10"], results["torus_loop_01"]])),
    ]
    results = {}
    ok = True
    for name, fn in cases:
        rep = fn()
        results[name] = rep
        ok = ok and rep["pass"]
    return results, ok


_COMMANDS = {"index": _run_index, "holonomy": _run_holonomy,
             "verify": _run_verify, "report": _run_report}


def run(spec: dict, out_path=None, out_format=None, tol_phase=None,
        seed=None, refine_max=None):
    """Execute one experiment spec; returns (report, exit_code).  The
    refine_max argument (the --refine-max flag) overrides the spec field,
    and like it is read by the holonomy command only, as transport's
    refinement depth; its errors name the flag."""
    if not isinstance(spec, dict):
        raise SpecError("spec", "expected an object")
    command = _require(spec, "command", "spec", str)
    if command not in _COMMANDS:
        raise SpecError("spec.command", "unknown command %r" % command)
    version = spec.get("spec_version", SPEC_VERSION)
    if str(version) != SPEC_VERSION:
        raise SpecError("spec.spec_version", "unsupported version %r" % version)
    tol = parse_tolerances(spec.get("tolerances"), phase_override=tol_phase)
    seed = seed if seed is not None else spec.get("seed", 0)
    given = spec
    if refine_max is not None:
        if command != "holonomy":
            raise SpecError("--refine-max", "read by holonomy only, not by %s" % command)
        given = {**spec, "refine_max": _refine_depth(refine_max, "--refine-max")}
    results, ok = _COMMANDS[command](given, tol)

    report = {
        "spec_version": SPEC_VERSION,
        "convention_profile": "paper-v1",
        "command": command,
        "seed": int(seed),
        "inputs": spec,
        "results": results,
        "pass": bool(ok),
    }

    output = spec.get("output") or {}
    _check_keys(output, {"path", "format"}, "spec.output")
    fmt = out_format or output.get("format", "json")
    if fmt not in ("json", "csv"):
        raise SpecError("spec.output.format", "must be json or csv")
    dest = out_path or output.get("path")
    if fmt == "csv":
        if command != "holonomy":
            raise SpecError("spec.output.format", "csv traces exist for holonomy only")
        payload = trace_csv(results["trace"])
    else:
        payload = canonical_json(report)
    if dest:
        with open(dest, "w") as fh:
            fh.write(payload)
    return report, (0 if ok else 2), payload


def _failing_names(node, prefix=""):
    """Paths of nested report entries carrying pass = false."""
    out = []
    if isinstance(node, dict):
        if node.get("pass") is False:
            out.append(prefix or "results")
        for k, v in node.items():
            out.extend(_failing_names(v, f"{prefix}.{k}" if prefix else k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            out.extend(_failing_names(v, f"{prefix}[{i}]"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="maslov", description="Maslov index and holonomy experiment runner")
    ap.add_argument("--spec", required=True, help="experiment spec JSON file")
    ap.add_argument("--out", default=None, help="output file (overrides spec)")
    ap.add_argument("--format", default=None, choices=("json", "csv"))
    ap.add_argument("--tol-phase", type=float, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--refine-max", type=int, default=None)
    args = ap.parse_args(argv)

    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print("maslov: cannot read spec: %s" % exc, file=sys.stderr)
        return 1

    try:
        report, code, payload = run(spec, out_path=args.out, out_format=args.format,
                                    tol_phase=args.tol_phase, seed=args.seed,
                                    refine_max=args.refine_max)
    except SpecError as exc:
        print("maslov: invalid spec: %s" % exc, file=sys.stderr)
        return 1
    except MaslovError as exc:
        print("maslov: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2

    if not args.out and not (spec.get("output") or {}).get("path"):
        sys.stdout.write(payload)
    if code == 0:
        print("maslov %s: pass" % report["command"])
    else:
        failing = ", ".join(_failing_names(report["results"])) or "pass=false"
        print("maslov %s: FAIL (%s)" % (report["command"], failing),
              file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
