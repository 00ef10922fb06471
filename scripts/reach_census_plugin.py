"""pytest plugin: record the ``src/repro`` functions a test run calls.

    PYTHONPATH=src:scripts python -m pytest -q -p reach_census_plugin \
        tests perfbench/tests          # writes ./reach_tests.json

for ``scripts/reach_census.py reach_tests.json`` to merge.
"""

import json
import sys

from reach_census import REACHED, profile


def pytest_runtest_logstart(nodeid, location):
    sys.setprofile(profile)   # per test: tests/test_host_calls.py clears it


def pytest_sessionfinish(session):
    with open("reach_tests.json", "w") as out:
        json.dump(sorted(REACHED), out)
