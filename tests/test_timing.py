"""Tests for timing utilities."""

import pytest

from repro.errors import AnalysisError
from repro.util.timing import format_seconds


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
