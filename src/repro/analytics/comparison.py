"""Cross-engine equivalence checking.

Every engine must produce the same YLT for the same inputs — that is the
library's central correctness invariant (the engines differ only in
execution substrate).  These helpers compare the results of engines that
have already run — the ``{name: EngineResult}`` dict
:meth:`RiskSession.run_all <repro.session.RiskSession.run_all>` returns —
so the test suite and the speedup benches check the very runs they time,
and a disagreement can never hide inside a performance number.
"""

from __future__ import annotations

import numpy as np

from repro.core.engines import EngineResult
from repro.errors import AnalysisError

__all__ = ["compare_engines", "assert_engines_equivalent"]


def compare_engines(
    results: dict[str, EngineResult],
    reference: str = "sequential",
) -> dict[str, dict]:
    """Report each result's deviation from the reference engine's.

    Returns ``{engine: {result, max_abs_diff, max_rel_diff, seconds}}``.
    """
    if reference not in results:
        raise AnalysisError(
            f"reference engine {reference!r} did not run; "
            f"ran: {sorted(results)}"
        )
    ref = results[reference].portfolio_ylt.losses
    report = {}
    for name, res in results.items():
        losses = res.portfolio_ylt.losses
        if losses.shape != ref.shape:
            raise AnalysisError(
                f"engine {name!r} produced {losses.shape} trials, "
                f"reference has {ref.shape}"
            )
        diff = np.abs(losses - ref)
        scale = np.maximum(np.abs(ref), 1.0)
        report[name] = {
            "result": res,
            "max_abs_diff": float(diff.max()) if diff.size else 0.0,
            "max_rel_diff": float((diff / scale).max()) if diff.size else 0.0,
            "seconds": res.seconds,
        }
    return report


def assert_engines_equivalent(
    results: dict[str, EngineResult],
    rtol: float = 1e-9,
    atol: float = 1e-6,
) -> None:
    """Raise :class:`AnalysisError` if any result deviates from sequential.

    The tolerance is for ``sequential``, the scalar oracle and the one
    engine that prices off its own arithmetic; the host driver's engines
    — ``vectorized``, ``multicore``, ``mapreduce`` and ``device`` —
    answer ``np.array_equal`` to one another, which their own tests
    assert.
    """
    report = compare_engines(results)
    failures = []
    for name, entry in report.items():
        if entry["max_abs_diff"] > atol and entry["max_rel_diff"] > rtol:
            failures.append(
                f"{name}: max_abs={entry['max_abs_diff']:.3g}, "
                f"max_rel={entry['max_rel_diff']:.3g}"
            )
    if failures:
        raise AnalysisError("engine disagreement: " + "; ".join(failures))
