"""Command line front end: spec validation, report content, determinism,
golden files."""

import json
import pathlib

import pytest

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


def test_convention_profile_guard(monkeypatch):
    monkeypatch.setenv("MASLOV_CONVENTION_LEDGER", "nonsense")
    with pytest.raises(SpecError):
        run(load_spec("kashiwara_index"))
    monkeypatch.setenv("MASLOV_CONVENTION_LEDGER", "paper-v1")
    _, code, _ = run(load_spec("kashiwara_index"))
    assert code == 0


@pytest.mark.parametrize("spec", [
    load_spec("kashiwara_index"),
    load_spec("circle_verify"),
    {"command": "report"},
], ids=["index", "verify", "report"])
def test_refine_max_rejected_outside_holonomy(spec):
    for kwargs, fields in (({}, {"refine_max": 20}), ({"refine_max": 20}, {})):
        with pytest.raises(SpecError) as err:
            run({**spec, **fields}, **kwargs)
        assert "spec.refine_max" in str(err.value)


def test_refine_max_reaches_holonomy():
    spec = load_spec("circle_holonomy")
    _, code, _ = run({**spec, "refine_max": 20})
    assert code == 0
    from maslov.errors import SamplingError
    with pytest.raises(SamplingError):
        run({**spec, "refine_max": 0})
