#!/usr/bin/env python
"""Two runs of the same benchmark scenarios must agree byte for byte.

The modelled clock is deterministic, and every "same numbers, less code"
or "same numbers, faster simulator" change leans on that: its proof is
that the artifact bodies did not move.  This script compares the
``BENCH_*.json`` documents of two output directories (or two files),
ignoring only ``meta`` (timestamp, git sha, generator), and exits
non-zero naming the first differing path of each document that moved.

Usage::

    PYTHONPATH=src python -m repro.bench --scenarios A,B --quick --out-dir run1 --no-trends
    PYTHONPATH=src python -m repro.bench --scenarios A,B --quick --out-dir run2 --no-trends
    python scripts/bench_determinism.py run1 run2
"""

import json
import os
import sys


def body(path):
    with open(path) as handle:
        document = json.load(handle)
    document.pop("meta", None)
    return document


def first_difference(left, right, where="$"):
    """Path of the first value that differs, depth first."""
    if isinstance(left, dict) and isinstance(right, dict):
        for key in sorted(set(left) | set(right)):
            if key not in left or key not in right:
                return "%s.%s (missing on one side)" % (where, key)
            found = first_difference(left[key], right[key],
                                     "%s.%s" % (where, key))
            if found:
                return found
        return None
    if isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            return "%s (length %d vs %d)" % (where, len(left), len(right))
        for index, (a, b) in enumerate(zip(left, right)):
            found = first_difference(a, b, "%s[%d]" % (where, index))
            if found:
                return found
        return None
    return None if left == right else "%s: %r vs %r" % (where, left, right)


def documents(path):
    if os.path.isdir(path):
        return {name: os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.startswith("BENCH_") and name.endswith(".json")}
    return {"document": path}


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    first, second = documents(argv[0]), documents(argv[1])
    if not first:
        print("no BENCH_*.json documents in %s" % argv[0])
        return 2
    failed = sorted(set(first) ^ set(second))
    for name in failed:
        print("%s: present in one run only" % name)
    for name in sorted(set(first) & set(second)):
        difference = first_difference(body(first[name]), body(second[name]))
        if difference:
            failed.append(name)
            print("%s: %s" % (name, difference))
        else:
            print("%s: identical modulo meta" % name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
