"""Human-readable durations for the experiment reports (E1–E12)."""

from __future__ import annotations

from repro.errors import AnalysisError

__all__ = ["format_seconds"]


def format_seconds(seconds: float) -> str:
    """Render a duration human-readably (``"1.23 ms"``, ``"2.5 s"``...)."""
    if seconds < 0:
        raise AnalysisError(f"negative duration: {seconds}")
    if seconds < 1e-6:
        return f"{seconds * 1e9:.1f} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    if seconds < 7200.0:
        return f"{seconds / 60.0:.1f} min"
    return f"{seconds / 3600.0:.2f} h"
