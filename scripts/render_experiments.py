#!/usr/bin/env python
"""Rewrite the tables of EXPERIMENTS.md from the committed BENCH_paper.json.

Each table sits between ``<!-- BEGIN paper:<id> -->`` and
``<!-- END paper:<id> -->`` markers and is the rendering of that
experiment's payload (:func:`repro.bench.workloads.paper.render_into`);
the prose around the markers is hand-written and left alone.  With
``--check`` nothing is written and the exit status says whether the
document is current — the same assertion tier-1 makes.

Usage::

    PYTHONPATH=src python -m repro.bench --family paper     # the artifact
    PYTHONPATH=src python scripts/render_experiments.py     # the document
"""

import argparse
import json
import sys

from repro.bench.workloads import paper


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", default=paper.DEFAULT_OUT)
    parser.add_argument("--document", default="EXPERIMENTS.md")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the document is stale; write nothing")
    args = parser.parse_args(argv)
    with open(args.artifact) as handle:
        doc = json.load(handle)
    with open(args.document, encoding="utf-8") as handle:
        current = handle.read()
    rendered = paper.render_into(current, doc)
    if args.check:
        print("%s is %s" % (args.document, "current" if rendered == current
                            else "STALE against %s" % args.artifact))
        return 0 if rendered == current else 1
    with open(args.document, "w", encoding="utf-8") as handle:
        handle.write(rendered)
    print("rendered %s from %s" % (args.document, args.artifact))
    return 0


if __name__ == "__main__":
    sys.exit(main())
