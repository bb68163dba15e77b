"""repro — reproduction of *Data Challenges in High-Performance Risk
Analytics* (Varghese & Rau-Chaplin, SC 2012).

The library implements the paper's three-stage reinsurance risk-analytics
pipeline and the substrates it runs on:

- :mod:`repro.catmod` — stage 1, catastrophe modelling (catalogues,
  exposure, hazard/vulnerability/financial modules → ELTs);
- :mod:`repro.core` — stage 2, portfolio aggregate analysis (YET × layers
  → YLTs) with five interchangeable engines (sequential, vectorized,
  simulated-GPU, multicore, MapReduce);
- :mod:`repro.dfa` — stage 3, dynamic financial analysis and enterprise
  risk (risk combination, PML/VaR/TVaR, reporting, real-time pricing);
- :mod:`repro.data` — the data-management substrate (columnar scans,
  row-store baseline, simulated DFS + MapReduce, warehouse cube);
- :mod:`repro.hpc` — the HPC substrate (simulated-GPU capacities and
  chunk planner, process pool over shared memory, cost model);
- :mod:`repro.serve` — the serving layer (request micro-batching into
  fused sweeps, content-addressed result cache, SLO admission control)
  that turns stage-2 speed into many-user pricing throughput;
- :mod:`repro.session` — the staged entry point: a
  :class:`~repro.session.RiskSession` binds the YET once, stages it
  through the shared-memory data plane, and runs every stage-2/3
  workload (aggregate runs, quotes, EP curves, sensitivities) over that
  one staged substrate, with ``engine="auto"`` resolved by a cost-model
  planner whose :class:`~repro.session.ExecutionPlan` explains itself.

Quickstart::

    import repro
    wl = repro.bench.companion_study_workload(n_trials=10_000)
    with repro.RiskSession(wl.yet, wl.portfolio) as session:
        result = session.aggregate()              # engine="auto", planned
        print(result.details["plan"].explain())   # why that substrate
        quotes = session.quote_many(list(wl.portfolio))  # same staged YET
        print(repro.regulator_report(
            repro.RiskMetrics.from_ylt(result.portfolio_ylt)))

Every workload takes the session it runs on, never a YET of its own:
:class:`~repro.serve.service.PricingService` is
``session.pricing_service(...)`` and
:func:`~repro.analytics.sensitivity.term_sensitivities` is
``session.sensitivities(...)``; to price another trial set, open a
session over it.
"""

from repro import (
    analytics,
    bench,
    catmod,
    core,
    data,
    dfa,
    hpc,
    obs,
    serve,
    session,
    util,
)
from repro.core import (
    EltTable,
    Layer,
    LayerTerms,
    LossLookup,
    Portfolio,
    YeltTable,
    YelltModel,
    YetTable,
    YltTable,
    available_engines,
    get_engine,
)
from repro.dfa import (
    Enterprise,
    BusinessUnit,
    PricingQuote,
    RiskMetrics,
    combine_ylts,
    probable_maximum_loss,
    regulator_report,
    tail_value_at_risk,
    value_at_risk,
)
from repro.errors import ExecutionError, ReproError
from repro.hpc import FaultPlan, PoolHealth, WorkPool
from repro.obs import MetricsRegistry, Telemetry
from repro.serve import BatchPolicy, CachePolicy, PricingService
from repro.session import ExecutionPlan, RiskSession
from repro.util.rng import RngHierarchy

__version__ = "1.0.0"

__all__ = [
    "analytics",
    "bench",
    "catmod",
    "core",
    "data",
    "dfa",
    "hpc",
    "obs",
    "serve",
    "session",
    "util",
    "MetricsRegistry",
    "Telemetry",
    "EltTable",
    "Layer",
    "LayerTerms",
    "LossLookup",
    "Portfolio",
    "YeltTable",
    "YelltModel",
    "YetTable",
    "YltTable",
    "available_engines",
    "get_engine",
    "Enterprise",
    "BusinessUnit",
    "PricingQuote",
    "RiskMetrics",
    "combine_ylts",
    "probable_maximum_loss",
    "regulator_report",
    "tail_value_at_risk",
    "value_at_risk",
    "ReproError",
    "ExecutionError",
    "FaultPlan",
    "PoolHealth",
    "WorkPool",
    "PricingService",
    "BatchPolicy",
    "CachePolicy",
    "RiskSession",
    "ExecutionPlan",
    "RngHierarchy",
    "__version__",
]
