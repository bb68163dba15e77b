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

    Returns ``{engine: {result, max_abs_diff, max_rel_diff, seconds,
    layers}}``: ``layers`` maps each layer id and ``"total"`` to its
    ``(max_abs_diff, max_rel_diff)``, the maxima are over all of them.
    """
    if reference not in results:
        raise AnalysisError(
            f"reference engine {reference!r} did not run; "
            f"ran: {sorted(results)}"
        )
    ref = results[reference]
    report = {}
    for name, res in results.items():
        if set(res.ylt_by_layer) != set(ref.ylt_by_layer):
            raise AnalysisError(
                f"engine {name!r} priced layers {sorted(res.ylt_by_layer)}, "
                f"reference has {sorted(ref.ylt_by_layer)}"
            )
        pairs = {lid: (res.ylt_by_layer[lid].losses, ylt.losses)
                 for lid, ylt in ref.ylt_by_layer.items()}
        pairs["total"] = res.portfolio_ylt.losses, ref.portfolio_ylt.losses
        layers = {}
        for lid, (losses, want) in pairs.items():
            if losses.shape != want.shape:
                raise AnalysisError(
                    f"engine {name!r} produced {losses.shape} trials for "
                    f"layer {lid}, reference has {want.shape}"
                )
            diff = np.abs(losses - want)
            scale = np.maximum(np.abs(want), 1.0)
            layers[lid] = (float(diff.max(initial=0.0)),
                           float((diff / scale).max(initial=0.0)))
        report[name] = {
            "result": res,
            "max_abs_diff": max(diff for diff, _ in layers.values()),
            "max_rel_diff": max(rel for _, rel in layers.values()),
            "seconds": res.seconds,
            "layers": layers,
        }
    return report


def assert_engines_equivalent(
    results: dict[str, EngineResult],
    rtol: float = 1e-9,
    atol: float = 1e-6,
) -> None:
    """Raise :class:`AnalysisError` if any result deviates from sequential.

    Each layer and the total is checked on its own, and the error names
    every one that exceeds both tolerances, with its two maxima.  The
    tolerance is for ``sequential``, the scalar oracle and the one
    engine that prices off its own arithmetic; the host driver's engines
    — ``vectorized``, ``multicore``, ``mapreduce`` and ``device`` —
    answer ``np.array_equal`` to one another, which the equivalence
    matrix (``tests/test_equivalence_matrix.py``) asserts cell by cell.
    """
    report = compare_engines(results)
    failures = [
        f"{name} layer {lid}: max_abs={diff:.3g}, max_rel={rel:.3g}"
        for name, entry in report.items()
        for lid, (diff, rel) in entry["layers"].items()
        if diff > atol and rel > rtol
    ]
    if failures:
        raise AnalysisError("engine disagreement: " + "; ".join(failures))
