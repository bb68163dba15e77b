"""The session layer: one staged, planner-driven entry point.

========= ==============================================================
module     responsibility
========= ==============================================================
session    :class:`RiskSession` — bind a YET (and optionally a
           portfolio) once, stage it through the shared-memory data
           plane, and expose every stage-2/3 workload (aggregate runs,
           quotes, EP curves, sensitivities) over that one staged
           substrate with a single close.  Every workload reads the
           session's YET: a pricing service is
           ``session.pricing_service()``, and another trial set is
           another session.
planner    :class:`EnginePlanner` / :class:`ExecutionPlan` — resolve
           ``engine="auto"`` through the HPC cost model over its own
           table of the two host substrates, with an ``explain()``
           rendering of the decision.
========= ==============================================================

Quickstart::

    import repro

    wl = repro.bench.companion_study_workload(n_trials=10_000)
    with repro.RiskSession(wl.yet, wl.portfolio) as session:
        result = session.aggregate()            # engine="auto", planned
        print(result.details["plan"].explain())
        quotes = session.quote_many(list(wl.portfolio))  # same staged YET
        curves, total = session.ep_curves()     # one more staged sweep
"""

from repro.session.planner import (
    EngineEstimate,
    EnginePlanner,
    ExecutionPlan,
)
from repro.session.session import RiskSession

__all__ = [
    "EngineEstimate",
    "EnginePlanner",
    "ExecutionPlan",
    "RiskSession",
]
