"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_range, build_parser, main


class TestParseRange:
    def test_colon_range(self):
        assert _parse_range("2:5") == [2, 3, 4, 5]

    def test_comma_list(self):
        assert _parse_range("2,4,8") == [2, 4, 8]

    def test_single(self):
        assert _parse_range("3") == [3]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig3a_defaults(self):
        args = build_parser().parse_args(["fig3a"])
        assert args.lengths == [2, 3, 4, 5, 6, 7, 8]
        assert args.duration == 0.002

    def test_latency_rate(self):
        args = build_parser().parse_args(["latency", "--rate", "2e6"])
        assert args.rate == 2e6


class TestCommands:
    def test_setup_time(self, capsys):
        assert main(["setup-time"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "teardown" in out

    def test_fig3a_small(self, capsys):
        assert main(["fig3a", "--lengths", "2,3",
                     "--duration", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "traditional Mpps" in out
        assert out.count("\n") >= 4

    def test_latency_small(self, capsys):
        assert main(["latency", "--lengths", "2",
                     "--duration", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "improvement" in out

    def test_service_small(self, capsys):
        assert main(["service", "--duration", "0.001",
                     "--rate", "2e6"]) == 0
        out = capsys.readouterr().out
        assert "cache hits" in out
