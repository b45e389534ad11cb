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
import numbers
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
COMMON_FIELDS = frozenset({"spec_version", "command", "tolerances", "output"})
#: Further top-level spec fields read by each command, and by each theorem
#: of verify; a spec that carries any other field is rejected.
COMMAND_FIELDS = {
    "index": {"index"},
    "holonomy": {"chart", "path"},
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
    lines += [",".join("%.17g" % float(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# strict spec parsing


#: Kinds of spec values, named as in "must be a finite number": a number is a
#: real that is not a bool.  A kind (*shape, name) is a rectangular nested list
#: of that name's values, None in the shape for any length.
_KINDS = {"string": lambda v: isinstance(v, str),
          "object": lambda v: isinstance(v, dict),
          "boolean": lambda v: isinstance(v, bool),
          "finite number": lambda v: (isinstance(v, numbers.Real) and not isinstance(v, bool)
                                      and math.isfinite(v)),
          "finite positive number": lambda v: _fits(v, NUM) and v > 0,
          "integer": lambda v: type(v) is int,
          "non-negative integer": lambda v: type(v) is int and v >= 0,
          "integer of at least 2": lambda v: type(v) is int and v >= 2}
NUM, COUNT, MATRIX = "finite number", "non-negative integer", (None, None, "finite number")
SAMPLES = "integer of at least 2"


def _fits(v, kind) -> bool:
    if isinstance(kind, str):
        return _KINDS[kind](v)
    return (isinstance(v, list) and kind[0] in (None, len(v))
            and all(_fits(x, kind[1] if len(kind) == 2 else kind[1:]) for x in v)
            and len({len(x) for x in v if isinstance(x, list)}) <= 1)


def _what(kind, many=False) -> str:
    if isinstance(kind, str):
        return kind + "s" if many else ("an " if kind[0] in "aeiou" else "a ") + kind
    head = ("lists of " if many else "a list of ") + ("" if kind[0] is None else "%d " % kind[0])
    return head + _what(kind[1] if len(kind) == 2 else kind[1:], True)


def _require(d, key, path, kind, default=None):
    """d[key] of the given kind (see _KINDS); default if it is absent and a
    default is given."""
    name = "%s.%s" % (path, key)
    if key not in d:
        if default is None:
            raise SpecError(name, "missing required field")
        return default
    if not _fits(d[key], kind):
        raise SpecError(name, "must be %s" % _what(kind))
    return d[key]


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


def parse_tolerances(spec) -> Tolerances:
    _check_keys(spec, {"residual_tol", "rank_tol", "phase_tol"}, "spec.tolerances")
    kw = {k: float(_require(spec, k, "spec.tolerances", "finite positive number")) for k in spec}
    return Tolerances(**{**DEFAULT_TOLERANCES.__dict__, **kw})


def _series(spec, key, path):
    """A series record of a custom chart: {"cos": [[k, a], ...], ...}."""
    series, path = _require(spec, key, path, "object"), "%s.%s" % (path, key)
    _check_keys(series, {"cos", "sin", "poly"}, path)
    return {k: _require(series, k, path, (None, NUM) if k == "poly" else (None, 2, NUM))
            for k in series}


def build_chart(spec, path):
    name = _require(spec, "name", path, "string")
    if name == "circle":
        _check_keys(spec, {"name", "radius"}, path)
        return circle_chart(float(_require(spec, "radius", path, NUM, 1.0)))
    if name == "product_torus":
        _check_keys(spec, {"name", "radii"}, path)
        radii = _require(spec, "radii", path, (None, NUM), (1.0, 1.0))
        if not radii:
            raise SpecError("%s.radii" % path, "must hold at least one radius")
        return product_torus_chart(tuple(radii))
    if name == "gradient_graph":
        _check_keys(spec, {"name", "phi_coeffs", "hessian"}, path)
        if ("phi_coeffs" in spec) == ("hessian" in spec):
            raise SpecError(path, "give exactly one of phi_coeffs and hessian")
        if "phi_coeffs" in spec:
            return gradient_graph_chart(phi_coeffs=_require(spec, "phi_coeffs", path, (None, NUM)))
        return gradient_graph_chart(hessian=_require(spec, "hessian", path, MATRIX))
    if name == "flat_plane":
        _check_keys(spec, {"name", "angle", "frame"}, path)
        if "frame" in spec and "angle" in spec:
            raise SpecError(path, "give exactly one of frame and angle, or neither for angle 0")
        if "frame" in spec:
            return flat_plane_chart(LagrangianFrame(_require(spec, "frame", path, MATRIX)))
        return flat_plane_chart(line_frame(float(_require(spec, "angle", path, NUM, 0.0))))
    if name == "custom":
        _check_keys(spec, {"name", "q", "p"}, path)
        return curve_chart_from_series(_series(spec, "q", path), _series(spec, "p", path))
    raise SpecError("%s.name" % path, "unknown chart %r" % name)


def build_path(spec, chart, path) -> ParamPath:
    kind, n = _require(spec, "kind", path, "string"), chart.n
    if kind == "arc":
        _check_keys(spec, {"kind", "turns", "samples", "start"}, path)
        return ParamPath.circle_arc(float(_require(spec, "turns", path, NUM)),
                                    _require(spec, "samples", path, SAMPLES, 200),
                                    float(_require(spec, "start", path, NUM, 0.0)))
    if kind == "interval":
        _check_keys(spec, {"kind", "start", "stop", "samples", "closed"}, path)
        return ParamPath.line(_require(spec, "start", path, (n, NUM), [0.0] * n),
                              _require(spec, "stop", path, (n, NUM)),
                              _require(spec, "samples", path, SAMPLES, 200),
                              _require(spec, "closed", path, "boolean", False))
    if kind == "torus_loop":
        _check_keys(spec, {"kind", "winding", "samples", "base"}, path)
        return ParamPath.torus_loop(_require(spec, "winding", path, (n, "integer")),
                                    _require(spec, "samples", path, SAMPLES, 400),
                                    _require(spec, "base", path, (n, NUM), [0.0] * n))
    if kind == "samples":
        _check_keys(spec, {"kind", "values", "closed"}, path)
        values = _require(spec, "values", path, (None, n, NUM) if n > 1 else (None, NUM))
        if len(values) < 2:
            raise SpecError("%s.values" % path, "must hold at least two samples")
        return ParamPath(np.asarray(values, dtype=float),
                         _require(spec, "closed", path, "boolean", False))
    raise SpecError("%s.kind" % path, "unknown path kind %r" % kind)


def _cover_point_from_spec(d, key, path, tol):
    """The cover point of the object d[key], from w_re, w_im and theta."""
    spec, path = _require(d, key, path, "object"), "%s.%s" % (path, key)
    _check_keys(spec, {"w_re", "w_im", "theta"}, path)
    w_re = np.asarray(_require(spec, "w_re", path, MATRIX), dtype=float)
    w = w_re + 1j * np.asarray(_require(spec, "w_im", path, (*w_re.shape, NUM)), dtype=float)
    return CoverPoint(w, float(_require(spec, "theta", path, NUM)), tol)


# ---------------------------------------------------------------------------
# commands


def _run_index(spec, tol):
    _check_fields(spec, "index")
    payload = _require(spec, "index", "spec", "object")
    _check_keys(payload, {"kashiwara", "leray", "clm"}, "spec.index")
    results = {}
    if "kashiwara" in payload:
        ka = payload["kashiwara"]
        _check_keys(ka, {"angles", "frames"}, "spec.index.kashiwara")
        if "angles" in ka:
            frames = [line_frame(float(a))
                      for a in _require(ka, "angles", "spec.index.kashiwara", (3, NUM))]
        else:
            frames = [LagrangianFrame(f) for f in _require(
                ka, "frames", "spec.index.kashiwara", (3, None, None, NUM))]
        results["tau"] = kashiwara_signature(*frames, tol=tol)
    if "leray" in payload:
        le = payload["leray"]
        _check_keys(le, {"x", "y"}, "spec.index.leray")
        results["mu"] = leray_index(*(_cover_point_from_spec(le, k, "spec.index.leray", tol)
                                      for k in "xy"), tol)
    if "clm" in payload:
        cl = payload["clm"]
        _check_keys(cl, {"chart", "path"}, "spec.index.clm")
        chart = build_chart(_require(cl, "chart", "spec.index.clm", "object"),
                            "spec.index.clm.chart")
        ppath = build_path(_require(cl, "path", "spec.index.clm", "object"), chart,
                           "spec.index.clm.path")
        tangent = tangent_lagrangian_path(chart, ppath, tol)
        results["mu_clm"] = clm_index(tangent, tol)
        results["mu_clm_mod4"] = results["mu_clm"] % 4
    if not results:
        raise SpecError("spec.index", "no index requested")
    return results, True


def _run_holonomy(spec, tol):
    _check_fields(spec, "holonomy")
    chart = build_chart(_require(spec, "chart", "spec", "object"), "spec.chart")
    ppath = build_path(_require(spec, "path", "spec", "object"), chart, "spec.path")
    tr = transport_frame(chart, ppath, tol=tol)
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
    chart = build_chart(_require(spec, "chart", "spec", "object"), "spec.chart")
    if theorem == "corollary1":
        _check_fields(spec, "verify corollary1")
        loops = [build_path(ls, chart, "spec.loops[%d]" % i)
                 for i, ls in enumerate(_require(spec, "loops", "spec", (None, "object")))]
        if not loops:
            raise SpecError("spec.loops", "must hold at least one loop")
        rep = verify_corollary1(chart, loops, tol)
        return rep, rep["pass"]
    ppath = build_path(_require(spec, "path", "spec", "object"), chart, "spec.path")
    if theorem == "auto":
        theorem = "1" if ppath.closed else "2"
    _check_fields(spec, "verify " + theorem)
    if theorem == "1":
        rep = verify_theorem1(chart, ppath, tol)
    else:
        levels = _require(spec, "levels", "spec", (None, COUNT), [0, 1, 2])
        rep = verify_theorem2(chart, ppath, tol, levels=tuple(levels))
        if rep["case"] == "transverse" and "levels" in spec:
            raise SpecError("spec.levels", "read at tangent endpoints; this one is transverse")
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
    for name, fn in cases:  # in order: torus_corollary1 reads earlier entries
        results[name] = fn()
    return results, all(rep["pass"] for rep in results.values())


_COMMANDS = {"index": _run_index, "holonomy": _run_holonomy,
             "verify": _run_verify, "report": _run_report}


def run(spec: dict, out_path=None, out_format=None):
    """Execute one experiment spec; returns (report, exit_code, payload).  The
    spec is the run's only input: the report echoes it as "inputs", and running
    those again gives the same payload.  out_path and out_format (--out and
    --format) override the spec's output block: where the payload goes, and how."""
    if not isinstance(spec, dict):
        raise SpecError("spec", "expected an object")
    command = _require(spec, "command", "spec", "string")
    if command not in _COMMANDS:
        raise SpecError("spec.command", "unknown command %r" % command)
    version = spec.get("spec_version", SPEC_VERSION)
    if str(version) != SPEC_VERSION:
        raise SpecError("spec.spec_version", "unsupported version %r" % version)
    tol = parse_tolerances(_require(spec, "tolerances", "spec", "object", {}))
    results, ok = _COMMANDS[command](spec, tol)

    report = {
        "spec_version": SPEC_VERSION,
        "convention_profile": "paper-v1",
        "command": command,
        "inputs": spec,
        "results": results,
        "pass": bool(ok),
    }

    output = _require(spec, "output", "spec", "object", {})
    _check_keys(output, {"path", "format"}, "spec.output")
    fmt = out_format or output.get("format", "json")
    if fmt not in ("json", "csv"):
        raise SpecError("spec.output.format", "must be json or csv")
    dest = out_path or _require(output, "path", "spec.output", "string", "")
    if fmt == "csv" and command != "holonomy":
        raise SpecError("spec.output.format", "csv traces exist for holonomy only")
    payload = trace_csv(results["trace"]) if fmt == "csv" else canonical_json(report)
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
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return 1 if exc.code else 0

    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print("maslov: cannot read spec: %s" % exc, file=sys.stderr)
        return 1

    try:
        report, code, payload = run(spec, out_path=args.out, out_format=args.format)
    except SpecError as exc:
        print("maslov: invalid spec: %s" % exc, file=sys.stderr)
        return 1
    except MaslovError as exc:
        print("maslov: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2

    if not args.out and not _require(spec, "output", "spec", "object", {}).get("path"):
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
