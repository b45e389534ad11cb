"""The scripts that show two trees give the same output: tools/golden_drift.py,
tools/leray_pairs.py (its Leray pairs, Kashiwara triples and Lagrangian paths),
tools/word_lifts.py (the lifted endpoint states of gaussian_words),
tools/battery_payloads.py (the report payloads of holonomy_battery) and
tools/transport_levels.py (its refinement levels and dense counts); and the
selection and failure parsing of tools/hypothesis_sweep.py."""

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


def drift_of(golden_drift, tmp_path, old, new, *options):
    """The exit code of golden_drift on two JSON documents."""
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(doc))
    return golden_drift.main(paths + list(options))


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


def test_golden_drift_leaves_out_the_key_paths_it_is_told_to_ignore(golden_drift, tmp_path,
                                                                    capsys):
    # a top-level key only one side has, and a key inside list entries
    old = dict(REPORT, seed=0, trace=[{"theta": 0.5, "w": []}, {"theta": 1.25, "w": [1]}])
    ignore = ("--ignore", "seed", "--ignore", "trace[].w")
    assert drift_of(golden_drift, tmp_path, old, REPORT, *ignore) == 0
    assert "non-float values: identical" in capsys.readouterr().out
    # every other value is still compared
    assert drift_of(golden_drift, tmp_path, old, dict(REPORT, n=2), *ignore) == 1
    out = capsys.readouterr().out
    assert "DIFFERS n: 1 != 2" in out and "keys differ" not in out
    assert drift_of(golden_drift, tmp_path, old, REPORT, "--ignore", "trace[].w") == 1
    assert "keys differ: ['seed']" in capsys.readouterr().out
    # a trace CSV has columns, not key paths
    for name in ("old.csv", "new.csv"):
        (tmp_path / name).write_text("t,theta\n0,1\n")
    with pytest.raises(SystemExit):
        golden_drift.main([str(tmp_path / "old.csv"), str(tmp_path / "new.csv"), *ignore])


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
    monkeypatch.setattr(word_lifts.gaussian_words, "ROUNDS", 1)  # 6 identities, 12 lifts
    for run in ("a", "b"):
        assert word_lifts.write_lifts(3, str(tmp_path / run)) == 18
    names = sorted(p.name for p in (tmp_path / "a" / "seed3").iterdir())
    assert len(names) == 18
    for name in names:
        first = (tmp_path / "a" / "seed3" / name).read_bytes()
        assert first == (tmp_path / "b" / "seed3" / name).read_bytes()
        record = json.loads(first)
        assert record["op"] == name[3:-5]
        if name[3:].startswith("identities."):
            # three routes, one cocycle value per factor, and the miss
            assert len(record["routes"]) == 3 and len(record["values"]) == 2
            assert record["routes"] == [record["routes"][0]] * 3 and 0 <= record["miss"] < 1e-8
            continue
        assert [level["level"] for level in record["levels"]] == [0, 1, 2, 3, 4]
        for level in record["levels"]:
            # the lift keeps the level and the norm of each Hermite state
            assert level["oscillator_level"] == level["level"]
            norm0, norm1 = level["norms"]
            assert abs(norm1 - norm0) <= 1e-9 * max(1.0, norm0)


def test_word_lifts_writes_a_failing_operation_as_its_error(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    word_lifts = load_tool("word_lifts")
    from maslov.metaplectic import ground_state
    op = word_lifts.gaussian_words.Op("identities.n1", lambda: ground_state(0), None)
    assert word_lifts.endpoint_record(op) == {
        "op": "identities.n1", "error": "InvariantViolation",
        "message": "dimension n must be a positive integer, got 0"}


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
        return {i: word_lifts.canonical_json(word_lifts.endpoint_record(op)) for i, op in order}
    forward = records(ops)
    assert len(forward) == 18
    assert sum('"levels"' in record for record in forward.values()) == 12
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


def test_transport_levels_counts_the_same_dense_samples_twice(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ first
    transport_levels = load_tool("transport_levels")
    out = tmp_path / "levels.json"
    assert transport_levels.main(["--repeats", "1", "--out", str(out)]) == 0
    first, second = json.loads(out.read_text()), transport_levels.measure(1)
    assert sorted(first) == sorted(transport_levels.CASES)
    for name, record in first.items():
        counts = ("levels", "input_samples", "dense_samples")
        assert [record[k] for k in counts] == [second[name][k] for k in counts]
        assert record["wall_s"] > 0 and record["us_per_dense_sample"] > 0
    assert first["circle.coarse"]["dense_samples"] == 897  # 8 samples, 7 levels
    assert first["circle.fine"]["levels"] == 0
