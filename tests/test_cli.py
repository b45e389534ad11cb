"""Command line front end: spec validation, report content, determinism,
golden files."""

import importlib
import inspect
import json
import math
import re
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maslov.cli import canonical_json, main, run
from maslov.errors import SpecError

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"


def load_spec(name):
    return json.loads((GOLDEN / f"{name}.spec.json").read_text())


def test_circle_verify_report_values():
    report, code, payload = run(load_spec("circle_verify"))
    assert code == 0
    res = report["results"]
    assert res["mu_clm_mod4"] == 2
    assert abs(res["phase"][0] + 1.0) < 1e-6 and abs(res["phase"][1]) < 1e-6
    assert res["phase_label"] == "-1"
    assert report["pass"]
    assert report["spec_version"] == "1"
    assert report["convention_profile"] == "paper-v1"


def test_kashiwara_index_value():
    report, code, _ = run(load_spec("kashiwara_index"))
    assert code == 0
    assert report["results"]["tau"] == -1


def test_leray_index_payload():
    spec = {
        "command": "index",
        "index": {"leray": {
            "x": {"w_re": [[-1.0]], "w_im": [[0.0]], "theta": 3.141592653589793},
            "y": {"w_re": [[1.0]], "w_im": [[0.0]], "theta": 0.0},
        }},
    }
    report, code, _ = run(spec)
    assert code == 0 and report["results"]["mu"] == 1


def test_clm_index_payload():
    spec = {
        "command": "index",
        "index": {"clm": {"chart": {"name": "circle"},
                          "path": {"kind": "arc", "turns": 1.0, "samples": 200}}},
    }
    report, code, _ = run(spec)
    assert code == 0
    assert report["results"]["mu_clm"] == 2
    assert report["results"]["mu_clm_mod4"] == 2


def test_determinism_byte_identical():
    _, _, p1 = run(load_spec("circle_verify"))
    _, _, p2 = run(load_spec("circle_verify"))
    assert p1 == p2


def recursive_canonical_json(obj) -> str:
    """The canonical encoding, item by item, with no fast path."""
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return "%.17g" % v if math.isfinite(v) else '"%s"' % repr(v)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(recursive_canonical_json, obj)) + "]"
    return "{" + ",".join(json.dumps(str(k), ensure_ascii=True) + ":"
                          + recursive_canonical_json(obj[k]) for k in sorted(obj)) + "}"


SCALARS = st.one_of(
    st.floats(), st.floats().map(np.float64), st.integers(-10 ** 20, 10 ** 20),
    st.integers(-9, 9).map(np.int64), st.booleans(), st.none(), st.text(max_size=4),
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf,
                     -math.inf, 0.1, 1.0]))


@given(st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=6), st.lists(inner, max_size=6).map(tuple),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    st.dictionaries(st.text(max_size=3), inner, max_size=4)), max_leaves=30))
def test_canonical_json_matches_recursive_encoder(obj):
    assert canonical_json(obj) == recursive_canonical_json(obj) + "\n"


def test_canonical_json_float_rows():
    rows = [[0.1, -0.0, 1e300], (2.5,), [], [1.0, np.float64(0.5)], [1.0, math.nan],
            [1.0, 2], [True, 1.0]]
    assert canonical_json(rows) == (
        '[[0.10000000000000001,-0,1.0000000000000001e+300],[2.5],[],[1,0.5],'
        '[1,"nan"],[1,2],[true,1]]\n')


def test_canonical_json_float_tables():
    # a list of finite float rows, such as the holonomy trace, has its own
    # fast path; an overflowing row sum or a NaN sends it down the recursion
    for table in ([[0.1, -0.0], [2.5, 1e-300], []], [[1.7976931348623157e308] * 2, [1.0]],
                  [[1.0, math.nan], [2.0]], [[1.0], (2.0,)], [[]]):
        assert canonical_json(table) == recursive_canonical_json(table) + "\n"


def join_map_table(table) -> str:
    """A table of finite floats in the form of one join over a map per row."""
    return "[[%s]]" % "],[".join([",".join(map("%.17g".__mod__, r)) for r in table])


@given(st.lists(st.lists(st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf])), max_size=9),
    min_size=1, max_size=8))
def test_canonical_json_table_rows_match_the_join_form(table):
    # ragged rows, empty rows and NaN or inf entries: a row template gives the
    # bytes of a join over a map, and a non-finite entry those of the recursion
    got = canonical_json(table)
    if all(math.isfinite(v) for row in table for v in row):
        assert got == join_map_table(table) + "\n"
    assert got == recursive_canonical_json(table) + "\n"


def test_golden_reports_reproduce():
    for name in ("circle_verify", "quarter_verify", "tangent_verify", "kashiwara_index",
                 "torus_corollary"):
        _, code, payload = run(load_spec(name))
        assert code == 0
        assert payload == (GOLDEN / f"{name}.report.json").read_text()


def as_written(report):
    """The report as a reader of its JSON payload sees it."""
    return json.loads(canonical_json(report))


@pytest.mark.parametrize("name", ["circle_verify", "quarter_verify", "tangent_verify",
                                  "kashiwara_index", "torus_corollary", "circle_holonomy"])
def test_a_reports_inputs_reproduce_its_payload(name):
    # the spec is the one input of a run: out_path and out_format only choose
    # where the payload goes and in what format
    assert list(inspect.signature(run).parameters) == ["spec", "out_path", "out_format"]
    report, _, payload = run(load_spec(name))
    assert run(as_written(report)["inputs"])[2] == payload


def holonomy_battery(monkeypatch):
    """perfbench/holonomy_battery.py, imported without writing bytecode there."""
    monkeypatch.setattr(sys, "path", [str(GOLDEN.parent / "perfbench"), *sys.path])
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("holonomy_battery")


def test_battery_reports_reproduce_from_their_inputs(monkeypatch):
    for op in holonomy_battery(monkeypatch).make_ops(1):
        got = op.call()
        assert op.check(got) is None, op.name
        assert run(as_written(got[0])["inputs"])[2] == got[2], op.name


@pytest.mark.parametrize("path, depth", [
    ({"kind": "arc", "turns": 1.0, "samples": 8}, 7),
    # every command refines up to transport's one bound, 30 levels
    ({"kind": "arc", "turns": 25.0, "samples": 4}, 13),
], ids=["depth-7", "depth-13"])
def test_holonomy_and_verify_share_one_refinement_bound(path, depth):
    spec = {"chart": {"name": "circle"}, "path": path}
    holonomy, code_h, _ = run({"command": "holonomy", **spec})
    verify, code_v, _ = run({"command": "verify", **spec})
    assert code_h == code_v == 0 and verify["results"]["mu_clm"] == 2 * path["turns"]
    assert holonomy["results"]["sampling"] == verify["results"]["sampling"]
    assert holonomy["results"]["sampling"]["refinement_depth"] == depth


def test_golden_holonomy_trace():
    _, code, payload = run(load_spec("circle_holonomy"))
    assert code == 0
    assert payload == (GOLDEN / "circle_holonomy.trace.csv").read_text()
    header = payload.splitlines()[0]
    assert header == "t,theta_unwrapped,phase_re,phase_im"


def test_unknown_fields_rejected():
    with pytest.raises(SpecError):
        run({"command": "verify", "chart": {"name": "circle"},
             "path": {"kind": "arc", "turns": 1.0}, "bogus": 1})
    with pytest.raises(SpecError):
        run({"command": "verify", "chart": {"name": "circle", "bogus": 2},
             "path": {"kind": "arc", "turns": 1.0}})


def test_malformed_chart_name():
    with pytest.raises(SpecError) as err:
        run({"command": "verify", "chart": {"name": "circl"},
             "path": {"kind": "arc", "turns": 1.0}})
    assert str(err.value).startswith("spec.chart.name: ")


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(canonical_json(load_spec("kashiwara_index")))
    out = tmp_path / "out.json"
    assert main(["--spec", str(good), "--out", str(out)]) == 0
    assert out.exists()

    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "nope"}')
    assert main(["--spec", str(bad)]) == 1

    assert main(["--spec", str(tmp_path / "missing.json")]) == 1

    # argparse's usage errors are malformed input (1), not a failed assertion
    # (2); the removed flags --tol-phase, --seed and --refine-max among them
    for argv in (["--format", "xml"], ["--bogus"], ["--seed", "x"], ["--tol-phase", "0.1"],
                 ["--seed", "0"], ["--refine-max", "20"]):
        capsys.readouterr()
        assert main(["--spec", str(good), *argv]) == 1
        assert "usage: maslov" in capsys.readouterr().err
    assert main([]) == 1
    assert "the following arguments are required: --spec" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "--format" in capsys.readouterr().out


def test_tolerance_overrides():
    # the spec's tolerances are the one way to set them, and inputs echo them
    spec = {**load_spec("quarter_verify"), "tolerances": {"phase_tol": 0.1}}
    report, code, _ = run(spec)
    assert code == 0 and report["inputs"]["tolerances"] == {"phase_tol": 0.1}
    assert report["results"]["lift_phase_label"] == "i"
    assert run(load_spec("quarter_verify"))[0]["results"]["lift_phase_label"] == "none"
    with pytest.raises(SpecError, match=r"^spec\.tolerances\.phase_tol: must be a finite positive"):
        run({**load_spec("kashiwara_index"), "tolerances": {"phase_tol": -1.0}})


@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_non_finite_tolerances_are_spec_errors(tmp_path, value):
    spec = load_spec("kashiwara_index")
    for name in ("residual_tol", "rank_tol", "phase_tol"):
        with pytest.raises(SpecError, match=r"^spec\.tolerances\.%s:" % name):
            run({**spec, "tolerances": {name: value}})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, "tolerances": {"phase_tol": value}}))
    assert main(["--spec", str(path)]) == 1


def test_custom_chart_verify():
    spec = {
        "command": "verify",
        "chart": {"name": "custom", "q": {"cos": [[1.0, 1.0]]},
                  "p": {"sin": [[1.0, 1.0]]}},
        "path": {"kind": "arc", "turns": 1.0, "samples": 300},
    }
    report, code, _ = run(spec)
    assert code == 0
    assert report["results"]["mu_clm"] == 2


def test_report_command_catalog():
    report, code, _ = run({"command": "report"})
    assert code == 0
    names = set(report["results"])
    assert {"circle_loop", "circle_double_loop", "circle_quarter_arc",
            "torus_loop_11", "torus_corollary1"} <= names
    assert all(v["pass"] for v in report["results"].values())


CIRCLE_LOOP = {"chart": {"name": "circle"}, "path": {"kind": "arc", "turns": 1.0}}
CIRCLE_ARC = {"chart": {"name": "circle"}, "path": {"kind": "arc", "turns": 0.25}}
LEVELS = {"levels": [0, 1]}
LOOPS = {"loops": [{"kind": "arc", "turns": 1.0}]}


KASHIWARA = load_spec("kashiwara_index")


@pytest.mark.parametrize("spec, field", [
    pytest.param({"command": "verify", **CIRCLE_LOOP, **LEVELS}, "levels", id="auto-1-levels"),
    pytest.param({"command": "verify", **CIRCLE_LOOP, **LOOPS}, "loops", id="auto-1-loops"),
    pytest.param({"command": "verify", "theorem": "1", **CIRCLE_LOOP, **LEVELS}, "levels",
                 id="1-levels"),
    pytest.param({"command": "verify", "theorem": "1", **CIRCLE_LOOP, **LOOPS}, "loops",
                 id="1-loops"),
    pytest.param({"command": "verify", "theorem": "2", **CIRCLE_ARC, **LOOPS}, "loops",
                 id="2-loops"),
    pytest.param({"command": "verify", "theorem": "corollary1", **CIRCLE_LOOP, **LOOPS},
                 "path", id="corollary1-path"),
    pytest.param({"command": "verify", "theorem": "corollary1", "chart": {"name": "circle"},
                  **LOOPS, **LEVELS}, "levels", id="corollary1-levels"),
    pytest.param({**KASHIWARA, "chart": {"name": "circle"}}, "chart", id="index-chart"),
    pytest.param({**KASHIWARA, "theorem": "1"}, "theorem", id="index-theorem"),
    pytest.param({**KASHIWARA, **LEVELS}, "levels", id="index-levels"),
    pytest.param({**KASHIWARA, "path": CIRCLE_LOOP["path"]}, "path", id="index-path"),
    pytest.param({"command": "holonomy", **CIRCLE_LOOP, "theorem": "1"}, "theorem",
                 id="holonomy-theorem"),
    pytest.param({"command": "report", "chart": {"name": "circle"}}, "chart",
                 id="report-chart"),
    # no command reads a seed, and transport's depth bound is not a setting
    pytest.param({**KASHIWARA, "seed": 0}, "seed", id="index-seed"),
    pytest.param({"command": "holonomy", **CIRCLE_LOOP, "seed": 0}, "seed", id="holonomy-seed"),
    pytest.param({"command": "verify", **CIRCLE_LOOP, "seed": 0}, "seed", id="verify-seed"),
    pytest.param({"command": "report", "seed": 0}, "seed", id="report-seed"),
    pytest.param({"command": "holonomy", **CIRCLE_LOOP, "refine_max": 20}, "refine_max",
                 id="holonomy-refine-max"),
    pytest.param({"command": "verify", **CIRCLE_LOOP, "refine_max": 20}, "refine_max",
                 id="verify-refine-max"),
    pytest.param({**KASHIWARA, "refine_max": 20}, "refine_max", id="index-refine-max"),
])
def test_fields_a_command_does_not_read_are_rejected(tmp_path, spec, field):
    with pytest.raises(SpecError, match=r"^spec\.%s: not read by " % field):
        run(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["--spec", str(path)]) == 1


def test_fields_each_theorem_reads_are_accepted():
    # theorem 2 reads levels at a tangent endpoint: the half arc's
    report, code, _ = run({"command": "verify", "chart": {"name": "circle"},
                           "path": {"kind": "arc", "turns": 0.5}, **LEVELS})
    assert code == 0 and report["results"]["case"] == "tangent"
    _, code, _ = run({"command": "verify", "theorem": "corollary1",
                      "chart": {"name": "circle"}, **LOOPS})
    assert code == 0


def test_leray_cover_points_use_the_spec_tolerances():
    # theta = 1.4 misses the lift arg det w = pi/2 by 0.17: a cover point
    # under the default phase_tol, accepted under a phase_tol of 0.5
    spec = {"command": "index", "index": {"leray": {
        "x": {"w_re": [[1.0]], "w_im": [[0.0]], "theta": 0.0},
        "y": {"w_re": [[0.0]], "w_im": [[1.0]], "theta": 1.4}}}}
    from maslov.errors import InvariantViolation
    with pytest.raises(InvariantViolation, match="not a lift"):
        run(spec)
    report, code, _ = run({**spec, "tolerances": {"phase_tol": 0.5}})
    assert code == 0 and report["results"]["mu"] == -1


@pytest.mark.parametrize("levels", [["a"], [2.5], 3, [-1], [True, 2], None],
                         ids=["string", "float", "scalar", "negative", "bool", "null"])
def test_levels_must_be_a_list_of_non_negative_integers(levels):
    with pytest.raises(SpecError, match=r"^spec\.levels: must be a list of non-negative"):
        run({"command": "verify", **CIRCLE_ARC, "levels": levels})


def test_levels_error_is_an_invalid_spec_on_the_command_line(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"command": "verify", **CIRCLE_ARC, "levels": ["a"]}))
    assert main(["--spec", str(path)]) == 1
    assert capsys.readouterr().err.startswith("maslov: invalid spec: spec.levels")


def test_levels_reach_the_eigenstate_pairings():
    report, code, _ = run({"command": "verify", **CIRCLE_LOOP, "theorem": "2",
                           "levels": [2, 0]})
    assert code == 0
    assert [p["level"] for p in report["results"]["eigenstate_pairings"]] == [2, 0]


TORUS_LOOP = {"chart": {"name": "product_torus"},
              "path": {"kind": "torus_loop", "winding": [1, 0]}}
CUSTOM = {"name": "custom", "q": {"cos": [[1, 1]]}, "p": {"sin": [[1, 1]]}}


def with_field(spec, field, value):
    """A copy of spec with the dotted field (under "chart", "path", ...) set."""
    spec = json.loads(json.dumps(spec))
    *parents, key = field.split(".")
    node = spec
    for p in parents:
        node = node.setdefault(p, {})
    node[key] = value
    return spec


@pytest.mark.parametrize("spec, field", [
    pytest.param(with_field({"command": "verify", **CIRCLE_LOOP}, "chart.radius", "abc"),
                 "spec.chart.radius", id="radius-string"),
    pytest.param(with_field({"command": "verify", **TORUS_LOOP}, "chart.radii", "ab"),
                 "spec.chart.radii", id="radii-string"),
    pytest.param({"command": "verify", "chart": {"name": "circle"},
                  "path": {"kind": "interval", "stop": ["x"]}}, "spec.path.stop",
                 id="stop-string"),
    pytest.param({"command": "verify", "chart": {"name": "gradient_graph", "hessian": [["a"]]},
                  "path": {"kind": "interval", "stop": [1.0]}}, "spec.chart.hessian",
                 id="hessian-string"),
    pytest.param({**KASHIWARA, "index": {"kashiwara": {"angles": [0, "x", 1]}}},
                 "spec.index.kashiwara.angles", id="angles-string"),
    pytest.param({**KASHIWARA, "index": {"kashiwara": {"angles": [0, 1]}}},
                 "spec.index.kashiwara.angles", id="angles-two"),
    pytest.param({**KASHIWARA, "seed": "x"}, "spec.seed", id="seed-string"),
    pytest.param({"command": "verify", **CIRCLE_LOOP, "chart": {**CUSTOM, "q": {"cos": [[1]]}}},
                 "spec.chart.q.cos", id="series-pair-short"),
    pytest.param(with_field({"command": "verify", **CIRCLE_LOOP}, "path.turns", "x"),
                 "spec.path.turns", id="turns-string"),
    pytest.param({**KASHIWARA, "output": {"path": 5}}, "spec.output.path", id="output-path-int"),
    pytest.param(with_field({"command": "verify", **CIRCLE_LOOP}, "path.samples", 50.7),
                 "spec.path.samples", id="samples-float"),
    pytest.param(with_field({"command": "verify", **CIRCLE_LOOP}, "path.turns", True),
                 "spec.path.turns", id="turns-bool"),
    pytest.param({"command": "verify", "chart": {"name": "circle"},
                  "path": {"kind": "interval", "stop": [1.0], "closed": "no"}},
                 "spec.path.closed", id="closed-string"),
    pytest.param(with_field({"command": "verify", **TORUS_LOOP}, "path.winding", [1.7, 0]),
                 "spec.path.winding", id="winding-float"),
    pytest.param(with_field({"command": "verify", **TORUS_LOOP}, "path.winding", [1, 0, 5]),
                 "spec.path.winding", id="winding-three"),
    pytest.param(with_field({"command": "verify", **TORUS_LOOP}, "chart.radii", []),
                 "spec.chart.radii", id="radii-empty"),
    pytest.param(with_field({"command": "verify", **TORUS_LOOP}, "chart.radii", [1.0, 2.0, 1.0]),
                 "spec.path.winding", id="winding-two-on-a-three-torus"),
    pytest.param(with_field({"command": "verify", **TORUS_LOOP}, "path.base", [0.0, 0.0, 0.0]),
                 "spec.path.base", id="base-three"),
    pytest.param(with_field({"command": "verify", **TORUS_LOOP}, "path.base", [0.5]),
                 "spec.path.base", id="base-one"),
    pytest.param(with_field({"command": "verify", **CIRCLE_LOOP}, "path.samples", True),
                 "spec.path.samples", id="samples-bool"),
    pytest.param({**KASHIWARA, "seed": 2.7}, "spec.seed", id="seed-float"),
    pytest.param({"command": "verify", **CIRCLE_LOOP, "chart": {**CUSTOM, "q": {"coss": [[1, 1]]}}},
                 "spec.chart.q.coss", id="series-unknown-key"),
    # rival fields, mismatched parts, falsy stand-ins and one-sample paths
    pytest.param({"command": "verify", "path": {"kind": "interval", "stop": [1.0]},
                  "chart": {"name": "gradient_graph", "phi_coeffs": [0, 0, 0.5],
                            "hessian": [[5.0]]}}, "spec.chart", id="phi-coeffs-and-hessian"),
    pytest.param({"command": "verify", "path": {"kind": "interval", "stop": [1.0]},
                  "chart": {"name": "flat_plane", "frame": [[1.0], [0.0]], "angle": 0.5}},
                 "spec.chart", id="frame-and-angle"),
    pytest.param({"command": "index", "index": {"leray": {
        "x": {"w_re": [[-1]], "w_im": [[0, 0], [0, 0]], "theta": 0.0},
        "y": {"w_re": [[1.0]], "w_im": [[0.0]], "theta": 0.0}}}},
        "spec.index.leray.x.w_im", id="w-parts-of-two-shapes"),
    pytest.param({**KASHIWARA, "output": []}, "spec.output", id="output-list"),
    pytest.param({**KASHIWARA, "tolerances": 0}, "spec.tolerances", id="tolerances-zero"),
    *[pytest.param(with_field({"command": "verify", **spec}, "path.samples", k),
                   "spec.path.samples", id="%s-samples-%d" % (spec["path"]["kind"], k))
      for spec in (CIRCLE_LOOP, TORUS_LOOP,
                   {"chart": {"name": "circle"}, "path": {"kind": "interval", "stop": [1.0]}})
      for k in (0, 1)],
    pytest.param({"command": "verify", "chart": {"name": "circle"},
                  "path": {"kind": "samples", "values": [0.5]}}, "spec.path.values",
                 id="one-value"),
    # Corollary 1 over no loop would pass vacuously
    pytest.param({"command": "verify", "theorem": "corollary1", "chart": {"name": "circle"},
                  "loops": []}, "spec.loops", id="corollary1-no-loops"),
    # levels are read by the tangent case only: a transverse endpoint rejects them
    pytest.param({"command": "verify", **CIRCLE_ARC, "theorem": "2", "levels": [7, 11]},
                 "spec.levels", id="levels-at-a-transverse-endpoint"),
    pytest.param({"command": "verify", **CIRCLE_ARC, "levels": [0, 1, 2]},
                 "spec.levels", id="default-levels-given-at-a-transverse-endpoint"),
])
def test_spec_values_are_type_checked_where_read(tmp_path, spec, field):
    with pytest.raises(SpecError, match=r"^%s: " % re.escape(field)):
        run(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["--spec", str(path)]) == 1


def test_theorem1_on_a_three_torus_spec():
    # radii are n entries, and so are the winding and base of a loop on T^n
    spec = {"command": "verify", "chart": {"name": "product_torus", "radii": [1.0, 0.5, 1.5]},
            "path": {"kind": "torus_loop", "winding": [1, -2, 2], "base": [0.1, -0.2, 0.3]}}
    report, code, _ = run(spec)
    rep = report["results"]
    assert code == 0 and rep["pass"] and (rep["n"], rep["mu_clm"]) == (3, 2)
    assert rep["phase_label"] == "-1"


@pytest.mark.parametrize("levels", [[18], [20], [24]])
def test_high_eigenstate_levels_pass_on_the_command_line(tmp_path, levels):
    spec = {"command": "verify", **CIRCLE_LOOP, "theorem": "2", "levels": levels}
    report, code, _ = run(spec)
    assert code == 0 and report["results"]["eigenstate_pairings"][0]["pass"]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["--spec", str(path), "--out", str(tmp_path / "out.json")]) == 0
