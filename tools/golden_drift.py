"""Compare two maslov report JSON files or two holonomy trace CSV files.

    python tools/golden_drift.py OLD NEW [--ignore KEY ...]

Every non-float value (integer, string, boolean, null, key set) and every
length must be identical; floats may drift.  Prints the largest absolute
float drift for each key (JSON: the key path with list indices dropped;
CSV: the column name) and exits 1 if anything other than a float differs.
A float printed without a fraction ("1") parses as an integer, so a number
pair counts as floats when either side is a float; two integers must match.
Each ``--ignore KEY`` (repeatable; JSON only) drops that key path, written as
in the drift table (``seed``, ``results.warnings``, ``loops[].phase``), from
both files before comparing, so a change that removes or adds a key can show
that every other value is unchanged.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import re


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _walk(a, b, path, drift, errors):
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            errors.append("%s: keys differ: %s" % (path or "$", sorted(set(a) ^ set(b))))
        for k in sorted(set(a) & set(b)):
            _walk(a[k], b[k], "%s.%s" % (path, k) if path else k, drift, errors)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            errors.append("%s: length %d != %d" % (path, len(a), len(b)))
        for i, (u, v) in enumerate(zip(a, b)):
            _walk(u, v, "%s[%d]" % (path, i), drift, errors)
    elif _is_number(a) and _is_number(b) and (isinstance(a, float) or isinstance(b, float)):
        key = re.sub(r"\[\d+\]", "[]", path)
        drift[key] = max(drift.get(key, 0.0), abs(float(a) - float(b)))
    elif type(a) is not type(b) or a != b:
        errors.append("%s: %r != %r" % (path, a, b))


def _drop(node, ignore, path=""):
    """A copy of a JSON document without the key paths in ignore."""
    if isinstance(node, list):
        return [_drop(v, ignore, path + "[]") for v in node]
    if isinstance(node, dict):
        keys = {k: "%s.%s" % (path, k) if path else k for k in node}
        return {k: _drop(v, ignore, keys[k]) for k, v in node.items() if keys[k] not in ignore}
    return node


def _csv_rows(name):
    with open(name, newline="") as fh:
        return list(csv.reader(fh))


def compare_csv(old, new, drift, errors):
    a, b = _csv_rows(old), _csv_rows(new)
    if not a or not b or a[0] != b[0]:
        errors.append("headers differ: %r != %r" % (a[:1], b[:1]))
        return
    if len(a) != len(b):
        errors.append("row count %d != %d" % (len(a), len(b)))
    header = a[0]
    for i, (ra, rb) in enumerate(zip(a[1:], b[1:]), start=2):
        if len(ra) != len(rb) or len(ra) != len(header):
            errors.append("line %d: field count differs" % i)
            continue
        for col, u, v in zip(header, ra, rb):
            try:
                x, y = float(u), float(v)
            except ValueError:
                if u != v:
                    errors.append("line %d, %s: %r != %r" % (i, col, u, v))
                continue
            drift[col] = max(drift.get(col, 0.0), abs(x - y))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--ignore", action="append", default=[], metavar="KEY",
                    help="a JSON key path to leave out of the comparison (repeatable)")
    args = ap.parse_args(argv)
    old, new, ignore = args.old, args.new, frozenset(args.ignore)
    drift, errors = {}, []
    if old.endswith(".csv"):
        if ignore:
            ap.error("--ignore takes JSON key paths; CSV columns are compared whole")
        compare_csv(old, new, drift, errors)
    else:
        with open(old) as fa, open(new) as fb:
            _walk(_drop(json.load(fa), ignore), _drop(json.load(fb), ignore), "", drift, errors)
    for key in sorted(drift):
        print("%-50s %.3e" % (key, drift[key]))
    print("max float drift: %.3e" % max(drift.values(), default=0.0))
    for e in errors:
        print("DIFFERS %s" % e)
    print("non-float values: %s" % ("identical" if not errors else "%d differ" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
