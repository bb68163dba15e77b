""":class:`RiskSession` — the staged, planner-driven entry point.

The paper's central claim is that risk analytics is data-bound: the YET
is simulated once and every downstream workload — aggregate analysis,
pricing quotes, EP curves, sensitivities — should be a cheap sweep over
data that is *already staged* ("a consistent lens through which to view
results", §II).  The classic entry points contradict that by each
binding, shipping, and tearing down the same payloads independently;
the zero-copy guarantee of the shm data plane only held *within* one
entry point.

A session restores the invariant across all of them:

- **bind once** — the YET (and optionally a portfolio) are bound at
  construction; every workload prices against the same trial set.
- **stage once** — pooled substrates share ONE
  :class:`~repro.serve.dispatch.PooledDispatcher` (one
  :class:`~repro.hpc.pool.WorkPool`, one shared-memory arena): the YET
  is staged for the workers at most once per session, whether the next
  request is an aggregate run, a quote batch, or an EP curve
  (``session.payload_ships`` exposes the counter the tests assert on).
- **plan, don't guess** — ``engine="auto"`` resolves through the
  :class:`~repro.session.planner.EnginePlanner`: the HPC cost model
  prices the two host substrates at the rates the session's own
  dispatchers measured (the rates its services' admission sheds by),
  charges a cold pool its startup, and the returned
  :class:`~repro.session.planner.ExecutionPlan` can ``explain()``
  itself.
- **close exactly once** — ``close()`` (or the context manager) tears
  down services, pools, and arenas idempotently (an engine owns none:
  it rides a session dispatcher, or an inline one that holds nothing);
  use after close raises instead of silently resurrecting resources.

:class:`~repro.serve.service.PricingService` and
:func:`~repro.analytics.sensitivity.term_sensitivities` take the session
they run on (:meth:`RiskSession.pricing_service`,
:meth:`RiskSession.sensitivities`) and read its YET, never one of their
own: to price another trial set, open a session over it.
This seam is where the ROADMAP's next axes plug in: multi-node sharding
is per-shard sessions over sub-YETs; multi-tenant scheduling is
per-tenant sessions over one staged trial set.
"""

from __future__ import annotations

import threading

from repro.analytics.ep_curves import EpCurve, aep_curve, portfolio_ep_curves
from repro.analytics.sensitivity import term_sensitivities
from repro.core.engines import Engine, EngineResult
from repro.core.engines.registry import available_engines, engine_class
from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.core.tables import YetTable
from repro.errors import ConfigurationError
from repro.hpc import shm
from repro.hpc.pool import available_parallelism
from repro.obs import Telemetry, as_telemetry
from repro.serve.dispatch import Dispatcher, InlineDispatcher, PooledDispatcher
from repro.serve.service import PricingService
from repro.session.planner import (EnginePlanner, ExecutionPlan,
                                   dispatcher_for)

__all__ = ["RiskSession"]


class RiskSession:
    """One staged entry point for every stage-2/3 workload.

    Parameters
    ----------
    yet:
        The pre-simulated year-event table every workload sweeps.
    portfolio:
        Optional default book for :meth:`aggregate` / :meth:`ep_curves`;
        per-call portfolios may always be passed explicitly.
    n_workers:
        Processors for pooled substrates: the calling thread and
        ``n_workers - 1`` worker processes (``None`` = host
        parallelism).
    transport:
        ``"shm"`` only, its default: pooled substrates ride the
        shared-memory data plane (:mod:`repro.hpc.shm`), and a host
        without it runs them in process as a counted degraded fallback.
        The keyword selects nothing; any other value raises
        :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, yet: YetTable, portfolio: Portfolio | None = None, *,
                 n_workers: int | None = None, transport: str = "shm",
                 telemetry: Telemetry | bool | None = None) -> None:
        if not isinstance(yet, YetTable):
            raise ConfigurationError(
                f"expected YetTable, got {type(yet).__name__}"
            )
        if portfolio is not None and not isinstance(portfolio, Portfolio):
            raise ConfigurationError(
                f"expected Portfolio, got {type(portfolio).__name__}"
            )
        if transport != "shm":
            raise ConfigurationError(
                f"unknown transport {transport!r}; the one transport is "
                "'shm'")
        self.yet = yet
        self.portfolio = portfolio
        self.n_workers = n_workers
        self._n_procs = (n_workers if n_workers is not None
                         else available_parallelism())
        #: The session's telemetry plane — the public scrape point.  One
        #: plane covers planner, pool, dispatch, and any pricing service
        #: built through this session; ``telemetry=False`` is the no-op
        #: mode the overhead guard compares against.
        self.telemetry = as_telemetry(telemetry)
        self._planner = EnginePlanner(n_workers=self._n_procs,
                                      telemetry=self.telemetry)
        # The workload counters, registered up front so a fresh plane
        # reads 0; the plane is the one place they are read.
        tel = self.telemetry
        self._m_aggregates = tel.counter("session.aggregates")
        self._m_quotes = tel.counter("session.quotes")
        self._m_ep_curves = tel.counter("session.ep_curves")
        self._m_sensitivity_sweeps = tel.counter("session.sensitivity_sweeps")
        self._m_plans = tel.counter("session.plans")
        self._m_stages = tel.counter("session.stages")
        self._m_stage_reuse = tel.counter("session.stage_reuse")
        # Staged state, all lazy: nothing is spawned or placed until a
        # workload actually needs it.
        self._inline: InlineDispatcher | None = None
        self._pooled: PooledDispatcher | None = None
        self._engines: dict[str, Engine] = {}
        self._services: list = []
        self._default_service = None
        #: Guards the default-service lazy init: concurrent quote()
        #: callers must coalesce into ONE service's micro-batcher, not
        #: each build their own.
        self._service_lock = threading.Lock()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("session is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def warmup(self, engine: str = "pooled") -> None:
        """Pay substrate startup now (worker spawn, YET staging) so the
        first workload's latency is pure compute.  No-op for inline."""
        self._check_open()
        with self.telemetry.span("session.stage", engine=str(engine)):
            self.dispatcher(engine).warmup(self.yet)

    def close(self) -> None:
        """Tear down services, pools, and arenas — exactly once each, in
        dependency order (idempotent).  The session's engines ride its
        dispatchers (or inline ones that hold nothing), so closing these
        frees every worker a run in the session used."""
        if self._closed:
            return
        self._closed = True
        for svc in self._services:
            svc.close()
        self._services.clear()
        self._default_service = None
        self._engines.clear()
        if self._pooled is not None:
            self._pooled.close()
            self._pooled = None
        self._inline = None

    def __enter__(self) -> "RiskSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- staged substrates -------------------------------------------------

    @property
    def pool_health(self):
        """The staged pool's :class:`~repro.hpc.pool.PoolHealth` record
        (``None`` until a pooled substrate exists).  ``degraded`` here
        means pooled workloads run serial inline fallbacks until
        :meth:`~repro.hpc.pool.WorkPool.reset_health`."""
        return (self._pooled.pool.health
                if self._pooled is not None else None)

    @property
    def payload_ships(self) -> int:
        """Times the YET was staged for the session's pool workers
        (0 until a pooled workload runs; stays 1 across a whole mixed
        aggregate + quote + EP-curve workload — the session invariant)."""
        return (self._pooled.payload_ships
                if self._pooled is not None else 0)

    def dispatcher(self, spec="auto") -> Dispatcher:
        """The session-owned dispatcher for a serving-style workload.

        ``"auto"`` plans the choice; ``"inline"``/``"vectorized"`` and
        ``"pooled"``/``"multicore"`` name the substrates directly (an
        engine name stands for the dispatcher on its row of the
        planner's table).  The returned dispatcher is owned (and closed)
        by the session; a custom substrate is a session built with the
        worker count it needs (``n_workers``).
        """
        self._check_open()
        if spec in (None, "auto"):
            name = self.plan("serving").dispatcher
        else:
            name = dispatcher_for(spec)
        if name == "inline":
            if self._inline is None:
                self._inline = InlineDispatcher(telemetry=self.telemetry)
            return self._inline
        if name == "pooled":
            if self._pooled is None:
                self._pooled = PooledDispatcher(
                    n_workers=self.n_workers, telemetry=self.telemetry)
                self._m_stages.inc()
            else:
                # Staged-substrate reuse: another workload rides the
                # already-staged pool/arena instead of building its own.
                self._m_stage_reuse.inc()
            return self._pooled
        raise ConfigurationError(
            f"unknown dispatcher {spec!r}; expected 'auto', "
            "'inline'/'vectorized' or 'pooled'/'multicore'"
        )

    def engine(self, name: str | Engine = "auto") -> Engine:
        """A session-cached, warm engine.

        ``"auto"`` resolves through the planner.  A name is the
        registry's default-constructed engine, one per session; a name
        on the planner's table (``"vectorized"``, ``"multicore"``) rides
        the session's own dispatcher for its row, the one quote batches
        ride — so an aggregate run followed by quote batches ships the
        YET zero more times, and the session's ``close`` frees its
        workers.  To configure an engine, build it
        (:func:`~repro.core.engines.get_engine` or the class) and pass
        the instance, which comes back as-is.  Unknown names raise
        :class:`~repro.errors.EngineError` with the available list —
        here, at the boundary.
        """
        self._check_open()
        if isinstance(name, Engine):
            return name
        if name == "auto":
            name = self.plan("aggregate").engine
        eng = self._engines.get(name)
        if eng is None:
            cls = engine_class(name)
            row = dispatcher_for(name)
            eng = self._engines[name] = (
                cls.riding(self.dispatcher(row)) if row != name else cls())
        return eng

    # -- planning ----------------------------------------------------------

    def plan(self, workload: str = "aggregate", *,
             portfolio: Portfolio | None = None,
             n_layers: int | None = None) -> ExecutionPlan:
        """Price the planner's substrates for a workload on this
        session's data shape, each at the rate its session dispatcher
        has measured (its seed until that dispatcher has run); see
        :meth:`ExecutionPlan.explain`."""
        self._check_open()
        if n_layers is None:
            pf = portfolio if portfolio is not None else self.portfolio
            n_layers = pf.n_layers if pf is not None else 1
        # A degraded pool is not warm capacity: it executes serial
        # inline fallbacks, so the planner must price it that way
        # rather than crediting parallelism that no longer exists.  So
        # is the pool a host without shared memory would build.
        pool_degraded = (self._pooled.degraded if self._pooled is not None
                         else not shm.shm_available())
        pool_warm = (self._pooled is not None and self._pooled.pool.started
                     and not pool_degraded)
        rates = {d.name: d.throughput.rate
                 for d in (self._inline, self._pooled) if d is not None}
        with self.telemetry.span("session.plan", workload=workload):
            plan = self._planner.plan(
                workload,
                n_trials=self.yet.n_trials,
                n_occurrences=self.yet.n_occurrences,
                n_layers=n_layers,
                pool_warm=pool_warm,
                pool_degraded=pool_degraded,
                rates=rates,
            )
        self._m_plans.inc()
        return plan

    #: Engine-result detail keys re-exported as per-engine counters
    #: (rows/lanes swept, device uploads — the engine-side telemetry).
    _ENGINE_DETAIL_COUNTERS = ("occurrences_processed", "tail_group_rows",
                               "stack_uploads", "sparse_stack_uploads",
                               "yet_uploads")

    def _observe(self, res: EngineResult, n_layers: int,
                 eng: Engine) -> None:
        """Export a measured run's per-engine counters (the substrate's
        rate is its dispatcher's to measure), and its routing when the
        engine rode a dispatcher of its own, whose plane is not this
        one (a session's dispatchers export theirs from ``run``)."""
        lanes = self.yet.n_occurrences * max(n_layers, 1)
        tel = self.telemetry
        prefix = f"engine.{res.engine}"
        tel.counter(prefix + ".runs").inc()
        tel.counter(prefix + ".seconds").inc(max(res.seconds, 0.0))
        tel.counter(prefix + ".lanes").inc(lanes)
        details = res.details or {}
        for key in self._ENGINE_DETAIL_COUNTERS:
            value = details.get(key)
            if value:
                tel.counter(f"{prefix}.{key}").inc(value)
        riding = getattr(eng, "dispatcher", None)
        if riding is None or riding not in (self._inline, self._pooled):
            for name, rows in details.get("routed", {}).items():
                if rows:
                    tel.counter(name).inc(rows)

    # -- aggregate analysis ------------------------------------------------

    def aggregate(self, portfolio: Portfolio | None = None,
                  engine: str | Engine = "auto", *,
                  emit_yelt: bool = False) -> EngineResult:
        """Run one aggregate analysis over staged state.

        ``engine="auto"`` plans the substrate; the chosen
        :class:`~repro.session.planner.ExecutionPlan` rides along in
        ``result.details["plan"]``.  A name runs the registry default,
        session-cached (unknown names fail here with the available
        list); to configure, pass an :class:`~repro.core.engines.Engine`
        *instance*, which is used as-is, on the dispatcher it rides
        (``MulticoreEngine.riding(session.dispatcher("pooled"))`` rides
        this session's pool).  Every engine emits YELTs on request, so
        ``emit_yelt`` does not constrain what ``"auto"`` plans.
        """
        self._check_open()
        pf = portfolio if portfolio is not None else self.portfolio
        if pf is None:
            raise ConfigurationError(
                "no portfolio bound to this session; pass one to aggregate()"
            )
        plan = None
        if isinstance(engine, Engine):
            eng = engine
        else:
            name = engine
            if name == "auto":
                plan = self.plan("aggregate", portfolio=pf)
                name = plan.engine
            eng = self.engine(name)
        with self.telemetry.span("session.sweep",
                                 engine=getattr(eng, "name", "engine"),
                                 n_layers=pf.n_layers):
            res = eng.run(pf, self.yet, emit_yelt=emit_yelt)
        self._observe(res, pf.n_layers, eng)
        self._m_aggregates.inc()
        if plan is not None:
            res.details["plan"] = plan
        return res

    def run_all(self, names: list[str] | None = None,
                portfolio: Portfolio | None = None) -> dict[str, EngineResult]:
        """Run several engines over the same staged inputs.

        Every name is validated against the registry *before* any engine
        runs, and pooled engines reuse the session's one staged arena —
        a sweep ships the YET at most once, and a repeat sweep ships it
        zero times.
        """
        self._check_open()
        names = list(names) if names is not None else available_engines()
        for name in names:
            engine_class(name)
        return {name: self.aggregate(portfolio, engine=name) for name in names}

    # -- serving-style workloads -------------------------------------------

    def pricing_service(self, engine="auto", **kwargs):
        """A :class:`~repro.serve.service.PricingService` bound to this
        session's YET and staged substrate (closed with the session;
        closing it earlier is allowed and leaves the session's pools
        running).  ``kwargs`` are the service's own keywords."""
        self._check_open()
        svc = PricingService(self, engine=engine, **kwargs)
        self._services.append(svc)
        return svc

    def _service(self):
        with self._service_lock:
            if self._default_service is None or self._default_service._closed:
                self._default_service = self.pricing_service()
            return self._default_service

    def quote(self, layer: Layer, timeout: float | None = None):
        """Price one candidate layer against the staged YET.

        §II: "A 1 million trial aggregate simulation on a typical
        contract only takes 25 seconds and can therefore support
        real-time pricing."  The quote is the technical premium
        (expected loss + volatility and tail loadings) with its latency
        and the measured trials/second, from which the E4 bench
        extrapolates the million-trial figure.  To
        price on one named engine instead, run
        ``aggregate(Portfolio([layer]), engine=...)`` and feed the
        layer's YLT to :func:`~repro.dfa.quote.premium_components`.
        """
        self._check_open()
        self._m_quotes.inc()
        return self._service().quote(layer, timeout=timeout)

    def quote_many(self, layers, timeout: float | None = None) -> list:
        """Price several candidates through one coalesced sweep."""
        self._check_open()
        layers = list(layers)
        self._m_quotes.inc(len(layers))
        return self._service().quote_many(layers, timeout=timeout)

    def ep_curve(self, layer: Layer | None = None, *,
                 engine: str | Engine = "auto") -> EpCurve:
        """An aggregate EP curve over the staged YET.

        With a ``layer``: that layer's curve through the (cached,
        coalesced) pricing path.  Without: the bound portfolio's total
        curve from one aggregate run.
        """
        self._check_open()
        self._m_ep_curves.inc()
        if layer is not None:
            return self._service().ep_curve(layer)
        result = self.aggregate(engine=engine)
        return aep_curve(result.portfolio_ylt)

    def ep_curves(self, portfolio: Portfolio | None = None, *,
                  engine: str | Engine = "auto"):
        """``(per-layer curves, portfolio curve)`` from ONE staged run
        (see :func:`~repro.analytics.ep_curves.portfolio_ep_curves`)."""
        self._check_open()
        result = self.aggregate(portfolio, engine=engine)
        self._m_ep_curves.inc()
        return portfolio_ep_curves(result.ylt_by_layer, result.portfolio_ylt)

    def sensitivities(self, layer: Layer, *, engine: str | Engine = "auto",
                      **kwargs) -> dict[str, float]:
        """Term sensitivities of ``layer`` over the session's YET, in one
        run on a warm, session-owned engine (see
        :func:`~repro.analytics.sensitivity.term_sensitivities`)."""
        self._check_open()
        self._m_sensitivity_sweeps.inc()
        return term_sensitivities(self, layer, engine=engine, **kwargs)
