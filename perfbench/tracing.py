"""In-memory spans around the library's public functions, installed from
outside the library.

Each target is a public function or class of a ``maslov`` module.  A
function is wrapped wherever a ``maslov`` module holds a reference to it
(``cli`` and ``geometry`` import names directly, so their copies are
replaced too); a class is wrapped through its ``__init__``.  Nothing is
installed until ``Tracer.install`` runs, and ``Tracer.uninstall`` puts every
original back.

A span is ``(op, span_id, parent_id, name, t0, t1, error)``.  Spans of one
benchmark operation share ``op``; ``parent_id`` is the enclosing span (the
operation's root span for top-level calls).  A layer's self time is its
spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("core", "index", "metaplectic", "geometry", "cli")

LIFT_SPAN = "metaplectic.lift_frame_path_trace"


def _len(x):
    try:
        return len(x)
    except TypeError:
        return 0


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


# Counters recorded at a boundary: (args, kwargs, result) -> {counter: amount}.
def _count_transport(args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    return {"geometry.input_samples": _len(getattr(path, "samples", ())),
            "geometry.dense_samples": _len(getattr(result, "frames", ()))}


def _count_lagrangian_path(args, kwargs, result):
    # args[0] is the instance under construction
    return {"index.LagrangianPath.frames_in": _len(_arg(args, kwargs, 1, "frames")),
            "index.LagrangianPath.frames_out": _len(args[0])}


def _count_lift_path(args, kwargs, result):
    return {"index.lift_path.points": _len(result)}


def _count_lift_trace(args, kwargs, result):
    return {"metaplectic.lift_samples_in": _len(_arg(args, kwargs, 0, "symp_path"))}


def _count_run(args, kwargs, result):
    payload = result[2] if isinstance(result, tuple) and len(result) > 2 else ""
    return {"cli.payload_bytes": len(payload) if isinstance(payload, str) else 0}


#: (module, attribute, counter hook).  Missing names are skipped, so the
#: tracer keeps working when the library's surface changes.
TARGETS = (
    ("core", "SymplecticMatrix", None),
    ("core", "LagrangianFrame", None),
    ("core", "UnitaryComplex", None),
    ("core", "souriau_map", None),
    ("core", "lagrangian_from_souriau", None),
    ("core", "intersection_dim", None),
    ("index", "CoverPoint", None),
    ("index", "LagrangianPath", _count_lagrangian_path),
    ("index", "lift_path", _count_lift_path),
    ("index", "clm_index", None),
    ("index", "leray_index", None),
    ("index", "leray_transverse", None),
    ("index", "kashiwara_signature", None),
    ("index", "mu_hat_on_cover", None),
    ("metaplectic", "GaussianAmplitude", None),
    ("metaplectic", "lift_frame_path_trace", _count_lift_trace),
    ("metaplectic", "apply_generator", None),
    ("metaplectic", "apply_quad_fourier", None),
    ("metaplectic", "pin_branch_transverse", None),
    ("metaplectic", "mu_hat_composed", None),
    ("geometry", "transport_frame", _count_transport),
    ("geometry", "verify_theorem1", None),
    ("geometry", "verify_theorem2", None),
    ("geometry", "verify_corollary1", None),
    ("cli", "run", _count_run),
    ("cli", "canonical_json", None),
)

#: Spans whose count inside lift spans is reported separately.
IN_LIFT = ("metaplectic.apply_generator", "metaplectic.apply_quad_fourier",
           "metaplectic.GaussianAmplitude")

#: Every counter a hook above can record.
COUNTERS = ("geometry.input_samples", "geometry.dense_samples",
            "index.LagrangianPath.frames_in", "index.LagrangianPath.frames_out",
            "index.lift_path.points", "metaplectic.lift_samples_in",
            "cli.payload_bytes")


class Tracer:
    """Collects spans and boundary counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.op = 0
        self._stack = [0]
        self._next_id = 1
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, name, t0, error):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((self.op, sid, parent, name, t0, t1, error))

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name (used for the operation root)."""
        sid, parent = self._enter()
        t0 = time.perf_counter()
        error = None
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._exit(sid, parent, name, t0, error)

    def _wrap(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            sid, parent = tracer._enter()
            t0 = time.perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer._exit(sid, parent, name, t0, error)
            if hook is not None:
                for key, amount in hook(args, kwargs, result).items():
                    tracer.counters[key] += amount
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        mods = [m for k, m in list(sys.modules.items())
                if k == "maslov" or k.startswith("maslov.")]
        for modname, attr, hook in TARGETS:
            mod = importlib.import_module("maslov." + modname)
            obj = getattr(mod, attr, None)
            if obj is None:
                continue
            name = "%s.%s" % (modname, attr)
            if isinstance(obj, type):
                init = obj.__dict__.get("__init__")
                if init is None:
                    continue
                obj.__init__ = self._wrap(name, init, hook)
                self._undo.append((obj, "__init__", init))
                continue
            wrapper = self._wrap(name, obj, hook)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is obj:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, obj))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self and total time; per-layer self time and
        errors; the in-lift counts and the boundary counters."""
        child_time = defaultdict(float)
        names = {}
        for _, sid, parent, name, t0, t1, _ in self.spans:
            child_time[parent] += t1 - t0
            names[sid] = (name, parent)

        def in_lift(sid):
            parent = names[sid][1]
            while parent:
                name, parent_of = names[parent]
                if name == LIFT_SPAN:
                    return True
                parent = parent_of
            return False

        out = defaultdict(float)
        # every name is present, zero when nothing was recorded
        for modname, attr, _ in TARGETS:
            for suffix in ("calls", "self_s", "total_s"):
                out["%s.%s.%s" % (modname, attr, suffix)] = 0.0
        for layer in LAYERS:
            out[layer + ".self_s"] = out[layer + ".errors"] = 0.0
        for key in COUNTERS + tuple(name + ".calls_in_lift" for name in IN_LIFT):
            out[key] = 0.0
        for _, sid, parent, name, t0, t1, error in self.spans:
            layer = name.split(".", 1)[0]
            self_s = (t1 - t0) - child_time[sid]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += self_s
            out[name + ".total_s"] += t1 - t0
            if layer in LAYERS:
                out[layer + ".self_s"] += self_s
                out[layer + ".errors"] += error is not None
            if name in IN_LIFT and in_lift(sid):
                out[name + ".calls_in_lift"] += 1
        out.update(self.counters)
        return dict(out)

    def write(self, path):
        """Write the spans as gzipped CSV, one line per span."""
        with gzip.open(path, "wt") as fh:
            fh.write("op,span,parent,name,t0,t1,error\n")
            for op, sid, parent, name, t0, t1, error in self.spans:
                fh.write("%d,%d,%d,%s,%.9f,%.9f,%s\n"
                         % (op, sid, parent, name, t0, t1, error or ""))
