"""Smoke tests: every shipped example runs end to end.

Examples are documentation that executes; these tests keep them honest.
The slower ones are run with reduced parameters.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        "example_%s" % name, EXAMPLES_DIR / ("%s.py" % name)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "detector recognized" in out
        assert "active bypasses = 0" in out  # the fallback at the end

    def test_nffg_deploy(self, capsys):
        load_example("nffg_deploy").main()
        out = capsys.readouterr().out
        assert "bypass/show" in out
        assert "2 active channel" in out
        assert "p2p-detected" in out

    def test_dynamic_rules(self, capsys):
        load_example("dynamic_rules").main()
        out = capsys.readouterr().out
        assert "lost=0" in out
        assert "re-established" in out

    def test_service_chain_small(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["service_chain.py", "2"])
        load_example("service_chain").main()
        out = capsys.readouterr().out
        assert "Mpps (bidir)" in out

    def test_firewall_monitor_cache(self, capsys):
        load_example("firewall_monitor_cache").main()
        out = capsys.readouterr().out
        assert "3 bypasses active" in out
        assert "monitor" in out

    def test_operator_session(self, capsys):
        node = load_example("operator_session").main()
        out = capsys.readouterr().out
        # Every burst ran inside a PMD loop: the stage tables decompose
        # the cores' busy time.
        assert node.obs.pmd_cycle_report().reconciles()
        assert "bypasses after restore: 2" in out
        assert "invariant checks passed" in out
        assert "POLICED" in out
