"""Run the property tests under the opt-in Hypothesis profile ``sweep`` for
several seeds and write which of them fail.

    python tools/hypothesis_sweep.py [--seeds 1 2 3 4 5] [--tests TEST ...] [--out FILE]

The tier-1 suite runs Hypothesis derandomized with 40 examples (profile
``tier1`` in ``tests/conftest.py``), so it sees one fixed set of draws.
For each seed this runs pytest once, in a fresh interpreter, with
``--hypothesis-profile=sweep --hypothesis-seed=SEED`` (not derandomized,
300 examples) on the tests decorated with ``@given`` only, from ``tests/``
or the given TEST paths or ids.  It prints, and writes as JSON to FILE if
given, the failing test ids of each seed, each with pytest's one-line
summary of its failure.  Exits 1 if any seed has a failure.  The package
is imported from the ``src/`` of the tree this script sits in; nothing is
written there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pytest_collection_modifyitems(config, items):
    """As a pytest plugin (-p hypothesis_sweep): keep the property tests."""
    items[:] = [item for item in items
                if getattr(getattr(item, "obj", None), "is_hypothesis_test", False)]


def failures(output: str) -> dict:
    """{test id: message} from the short test summary of pytest -rf."""
    out = {}
    for line in output.splitlines():
        if line.startswith("FAILED "):
            test, _, message = line[len("FAILED "):].partition(" - ")
            out[test] = message
    return out


def sweep(seed: int, tests) -> dict:
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools")]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    # a wide terminal keeps pytest from cutting the messages off the summary
    env = dict(os.environ, COLUMNS="1000", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(path))
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
           "-p", "hypothesis_sweep", "--hypothesis-profile=sweep",
           "--hypothesis-seed=%d" % seed, *tests]
    run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):  # 1: tests failed; anything else: pytest did not run
        raise SystemExit("pytest exited %d for seed %d:\n%s%s"
                         % (run.returncode, seed, run.stdout[-2000:], run.stderr[-2000:]))
    return failures(run.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--out", default=None, help="JSON file for the failures per seed")
    ap.add_argument("--tests", nargs="+", default=["tests"])
    args = ap.parse_args(argv)
    result = {}
    for seed in args.seeds:
        result[str(seed)] = found = sweep(seed, args.tests)
        print("seed %d: %d failing" % (seed, len(found)))
        for test, message in sorted(found.items()):
            print("  %s - %s" % (test, message))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if any(result.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
