"""Command line front end: spec validation, report content, determinism,
golden files."""

import json
import math
import pathlib

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
    for name in ("circle_verify", "quarter_verify", "kashiwara_index",
                 "torus_corollary"):
        _, code, payload = run(load_spec(name))
        assert code == 0
        assert payload == (GOLDEN / f"{name}.report.json").read_text()


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
    assert "chart.name" in str(err.value)


def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(canonical_json(load_spec("kashiwara_index")))
    out = tmp_path / "out.json"
    assert main(["--spec", str(good), "--out", str(out)]) == 0
    assert out.exists()

    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "nope"}')
    assert main(["--spec", str(bad)]) == 1

    assert main(["--spec", str(tmp_path / "missing.json")]) == 1


def test_tolerance_overrides():
    spec = load_spec("kashiwara_index")
    report, code, _ = run(spec, tol_phase=1e-9)
    assert code == 0
    with pytest.raises(SpecError):
        run({**spec, "tolerances": {"phase_tol": -1.0}})


@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_non_finite_tolerances_are_spec_errors(tmp_path, value):
    spec = load_spec("kashiwara_index")
    for name in ("residual_tol", "rank_tol", "phase_tol"):
        with pytest.raises(SpecError, match=r"^tolerances\.%s:" % name):
            run({**spec, "tolerances": {name: value}})
    with pytest.raises(SpecError, match="^--tol-phase:"):
        run(spec, tol_phase=value)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, "tolerances": {"phase_tol": value}}))
    assert main(["--spec", str(path)]) == 1
    path.write_text(json.dumps(spec))
    assert main(["--spec", str(path), "--tol-phase", repr(value)]) == 1


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


@pytest.mark.parametrize("spec", [
    load_spec("kashiwara_index"),
    load_spec("circle_verify"),
    {"command": "report"},
], ids=["index", "verify", "report"])
def test_refine_max_rejected_outside_holonomy(spec):
    # the spec field and the flag, each error naming the one given
    for kwargs, fields, name in (({}, {"refine_max": 20}, "spec.refine_max"),
                                 ({"refine_max": 20}, {}, "--refine-max")):
        with pytest.raises(SpecError) as err:
            run({**spec, **fields}, **kwargs)
        assert str(err.value).startswith(name + ":")


def test_refine_max_flag_outside_holonomy_names_the_flag(capsys):
    # a verify spec that has no refine_max field, run with the flag
    assert main(["--spec", str(GOLDEN / "circle_verify.spec.json"), "--refine-max", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("maslov: invalid spec: --refine-max: read by holonomy only")
    assert "spec.refine_max" not in err


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
])
def test_fields_a_command_does_not_read_are_rejected(tmp_path, spec, field):
    with pytest.raises(SpecError, match=r"^spec\.%s: not read by " % field):
        run(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["--spec", str(path)]) == 1


def test_fields_each_theorem_reads_are_accepted():
    _, code, _ = run({"command": "verify", **CIRCLE_ARC, **LEVELS})
    assert code == 0
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


def test_refine_max_reaches_holonomy():
    spec = load_spec("circle_holonomy")
    _, code, _ = run({**spec, "refine_max": 20})
    assert code == 0
    from maslov.errors import SamplingError
    with pytest.raises(SamplingError):
        run({**spec, "refine_max": 0})


@pytest.mark.parametrize("value", [-1, 2.5, True, "3"])
def test_refine_max_must_be_a_non_negative_integer(tmp_path, value):
    # a fine loop (no refinement needed) and a coarse one: both are
    # rejected before any transport, from the spec field and from the flag
    for samples in (900, 6):
        spec = {"command": "holonomy", "chart": {"name": "circle"},
                "path": {"kind": "arc", "turns": 1.0, "samples": samples}}
        with pytest.raises(SpecError, match=r"^spec\.refine_max: must be a non-negative"):
            run({**spec, "refine_max": value})
        with pytest.raises(SpecError, match=r"^--refine-max: must be a non-negative"):
            run(spec, refine_max=value)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, "refine_max": value}))
    assert main(["--spec", str(path)]) == 1
    if value == -1:
        path.write_text(json.dumps(spec))
        assert main(["--spec", str(path), "--refine-max", "-1"]) == 1
