"""Tests for the shared experiment helpers: timer, report, durations."""

import pytest

from repro.errors import AnalysisError

from experiment import ExperimentReport, format_seconds, time_call


class TestHarness:
    def test_time_call_returns_result(self):
        seconds, result = time_call(lambda: 42, repeats=2, warmup=1)
        assert result == 42
        assert seconds >= 0

    def test_time_call_bad_repeats(self):
        with pytest.raises(AnalysisError):
            time_call(lambda: 1, repeats=0)

    def test_experiment_report_renders(self):
        rep = ExperimentReport("EX", "claim", ["a", "b"])
        rep.add_row(1, 2)
        rep.add_note("note")
        out = rep.render()
        assert "[EX] claim" in out
        assert "note" in out


class TestFormatSeconds:
    @pytest.mark.parametrize("value, expect", [
        (2e-9, "ns"), (3e-6, "us"), (4e-3, "ms"), (2.0, "s"),
        (300.0, "min"), (10_000.0, "h"),
    ])
    def test_units(self, value, expect):
        assert expect in format_seconds(value)

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            format_seconds(-1.0)
