"""The scripts that show two trees give the same output: tools/golden_drift.py,
tools/leray_pairs.py (its Leray pairs, Kashiwara triples and Lagrangian paths),
tools/word_lifts.py (the lifted endpoint states of gaussian_words) and
tools/battery_payloads.py (the report payloads of holonomy_battery); and
the selection and failure parsing of tools/hypothesis_sweep.py."""

import importlib.util
import json
import pathlib
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location("tool_" + name, TOOLS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden_drift():
    return load_tool("golden_drift")


REPORT = {"n": 1, "pass": True, "label": "i^1", "trace": [{"theta": 0.5}, {"theta": 1.25}]}


def drift_of(golden_drift, tmp_path, old, new):
    """(exit code, printed lines) of golden_drift on two JSON documents."""
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(doc))
    return golden_drift.main(paths)


def test_golden_drift_passes_identical_files(golden_drift, tmp_path, capsys):
    assert drift_of(golden_drift, tmp_path, REPORT, REPORT) == 0
    out = capsys.readouterr().out
    assert "max float drift: 0.000e+00" in out and "non-float values: identical" in out


def test_golden_drift_passes_a_float_drift_and_prints_it(golden_drift, tmp_path, capsys):
    moved = json.loads(json.dumps(REPORT))
    moved["trace"][1]["theta"] += 3e-14
    assert drift_of(golden_drift, tmp_path, REPORT, moved) == 0
    lines = capsys.readouterr().out.splitlines()
    key = next(line for line in lines if line.startswith("trace[].theta"))
    assert abs(float(key.split()[-1]) - 3e-14) < 1e-15
    assert "non-float values: identical" in lines


def test_golden_drift_fails_a_key_set_difference(golden_drift, tmp_path, capsys):
    extra = dict(REPORT, diagnostics={})
    assert drift_of(golden_drift, tmp_path, REPORT, extra) == 1
    assert "keys differ: ['diagnostics']" in capsys.readouterr().out


def test_golden_drift_fails_an_integer_difference(golden_drift, tmp_path, capsys):
    assert drift_of(golden_drift, tmp_path, REPORT, dict(REPORT, n=2)) == 1
    assert "DIFFERS n: 1 != 2" in capsys.readouterr().out


def test_leray_pairs_writes_the_same_bytes_twice(tmp_path, monkeypatch):
    leray_pairs = load_tool("leray_pairs")
    monkeypatch.setattr(leray_pairs, "PAIRS", 12)
    monkeypatch.setattr(leray_pairs, "TRIPLES", 9)
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        leray_pairs.write_pairs(77, str(tmp_path / run))
    for name, lines in (("seed77.txt", 12), ("triples77.txt", 9)):
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes()
        assert len(first.splitlines()) == lines


def test_leray_pairs_paths_write_the_same_bytes_twice(tmp_path, monkeypatch):
    leray_pairs = load_tool("leray_pairs")
    monkeypatch.setattr(leray_pairs, "PATHS", 30)
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        leray_pairs.write_paths(77, str(tmp_path / run))
    first = (tmp_path / "a" / "paths77.txt").read_bytes()
    assert first == (tmp_path / "b" / "paths77.txt").read_bytes()
    lines = first.decode().splitlines()
    assert len(lines) == 30
    # an induced path also has mu_hat_on_cover, a frame stack only clm_index
    for line in lines:
        fields = dict(field.split("=") for field in line.split()[1:])
        assert set(fields) == {"n", "k", "induced", "near", "clm"} | (
            {"mu"} if fields["induced"] == "1" else set())


def test_leray_pairs_triples_meet_the_leray_coboundary(tmp_path, monkeypatch):
    # every triple, the degenerate ones (x and y sharing k lines) included,
    # has tau = mu(x, y) - mu(x, z) + mu(y, z)
    leray_pairs = load_tool("leray_pairs")
    monkeypatch.setattr(leray_pairs, "PAIRS", 0)
    monkeypatch.setattr(leray_pairs, "TRIPLES", 80)
    assert leray_pairs.write_pairs(5, str(tmp_path)) == 0
    shared = set()
    for line in (tmp_path / "triples5.txt").read_text().splitlines():
        fields = dict(field.split("=") for field in line.split()[1:])
        assert fields["tau"] == fields["cob"], line
        shared.add(int(fields["k"]) > 0)
    assert shared == {False, True}


def test_word_lifts_writes_the_same_bytes_twice(tmp_path, monkeypatch):
    # the tool puts src/ and perfbench/ first on the path and writes no bytecode
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    word_lifts = load_tool("word_lifts")
    monkeypatch.setattr(word_lifts.gaussian_words, "ROUNDS", 1)  # 12 lift operations
    for run in ("a", "b"):
        assert word_lifts.write_lifts(3, str(tmp_path / run)) == 12
    names = sorted(p.name for p in (tmp_path / "a" / "seed3").iterdir())
    assert len(names) == 12
    for name in names:
        first = (tmp_path / "a" / "seed3" / name).read_bytes()
        assert first == (tmp_path / "b" / "seed3" / name).read_bytes()
        record = json.loads(first)
        assert record["op"] == name[3:-5]
        assert [level["level"] for level in record["levels"]] == [0, 1, 2, 3, 4]


def test_word_lifts_records_do_not_depend_on_the_order_of_the_operations(monkeypatch):
    # every operation of seed 1 run in list order, where each lift.fwd's
    # ground state reuses the refinement of the identities operation before
    # it, and in reverse order, where it refines afresh: the lift records
    # are the same bytes
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    word_lifts = load_tool("word_lifts")
    monkeypatch.setattr(word_lifts.gaussian_words, "ROUNDS", 1)
    ops = list(enumerate(word_lifts.gaussian_words.make_ops(1)))

    def records(order):
        out = {}
        for i, op in order:
            if op.name.startswith("lift."):
                out[i] = word_lifts.canonical_json(word_lifts.endpoint_record(op))
            else:
                op.call()
        return out
    forward = records(ops)
    assert len(forward) == 12 and all('"levels"' in record for record in forward.values())
    assert records(ops[::-1]) == forward


def test_battery_payloads_writes_the_same_bytes_twice(tmp_path, monkeypatch):
    # the tool puts src/ and perfbench/ first on the path and writes no bytecode
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    battery_payloads = load_tool("battery_payloads")
    battery = battery_payloads.holonomy_battery
    make_ops = battery.make_ops
    monkeypatch.setattr(battery, "make_ops", lambda seed: make_ops(seed)[:6])
    for run in ("a", "b"):
        assert battery_payloads.write_payloads(3, str(tmp_path / run)) == 6
    names = sorted(p.name for p in (tmp_path / "a" / "seed3").iterdir())
    assert names == ["%02d_%s.json" % (i, op.name) for i, op in enumerate(make_ops(3)[:6])]
    for name in names:
        first = (tmp_path / "a" / "seed3" / name).read_bytes()
        assert first == (tmp_path / "b" / "seed3" / name).read_bytes()
        assert json.loads(first)["command"] in ("verify", "holonomy", "report")


def test_hypothesis_sweep_keeps_the_property_tests_and_reads_the_failures():
    from hypothesis import given
    from hypothesis import strategies as st
    sweep = load_tool("hypothesis_sweep")

    class Item:
        def __init__(self, obj):
            self.obj = obj
    prop = given(st.integers())(lambda x: None)
    items = [Item(prop), Item(lambda: None), Item(None)]
    sweep.pytest_collection_modifyitems(None, items)
    assert [item.obj for item in items] == [prop]
    out = ("..F\nFAILED tests/a.py::test_x - AssertionError: bad - worse\n"
           "FAILED tests/b.py::test_y[1]\n1 failed, 2 passed")
    assert sweep.failures(out) == {"tests/a.py::test_x": "AssertionError: bad - worse",
                                   "tests/b.py::test_y[1]": ""}
