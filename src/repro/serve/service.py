"""The pricing service facade: quotes and EP curves over a shared YET.

This is the user-facing door of the serving layer.  A
:class:`PricingService` rides one :class:`~repro.session.RiskSession`
— its pre-simulated YET ("a consistent lens through which to view
results", §II) and its dispatcher — and turns concurrent ad-hoc
requests — each a candidate :class:`~repro.core.layer.Layer` — into as
few fused kernel sweeps as possible:

1. every call is one request of its candidates (:meth:`quote_many`'s N,
   :meth:`submit`'s one): it validates them, takes one clock stamp and
   reads the content-addressed
   :class:`~repro.serve.cache.ResultCache` once for all their keys;
   the hits are answered at once, and the misses go through one
   admission decision (SLO-aware shedding, all or nothing) and are
   queued with the :class:`~repro.serve.batcher.MicroBatcher` as one
   entry per ``max_batch`` of them, each with one future;
2. the batcher takes whatever is queued the moment it is free, up to
   ``max_batch`` rows — an idle service prices a lone request at once,
   and the requests that arrive during a sweep form the next batch —
   and coalesces it into one
   ephemeral
   :meth:`PortfolioKernel.from_layers <repro.core.kernels.PortfolioKernel.from_layers>`
   stack (duplicate layers collapse to one kernel row);
3. a :class:`~repro.serve.dispatch.Dispatcher` executes the batch —
   inline vectorized or over pool workers; the batch's quote metrics
   (expected loss, volatility and tail loads) are computed for all of
   its quote rows in one pass
   (:func:`~repro.dfa.quote.premium_components_rows`), the cache is
   written once, and every candidate resolves with its own metric and
   an honest latency, counted from its call's stamp for hits and misses
   alike.

Every ``serve.*`` count is per candidate, whichever call brought it:
``serve.requests``, ``serve.cache.*``, ``serve.shed``,
``serve.batched_requests``, ``serve.request.seconds`` and
``serve.queue.wait_seconds`` (one observation each).

The synchronous helpers (:meth:`quote`, :meth:`quote_many`,
:meth:`ep_curve`) wrap that flow for library callers
(:meth:`RiskSession.quote <repro.session.RiskSession.quote>` is the
session's own default service).  Throughput framing follows the
MapReduce companion study (Yao, Varghese & Rau-Chaplin 2013): once one
aggregate run is seconds, the binding problem is many users per second,
not one run's wall time.

Failure semantics
-----------------
A worker death or deadline overrun inside a pooled batch is absorbed by
:class:`~repro.hpc.pool.WorkPool` supervision — the lost trial blocks
re-execute and every ticket in the batch still resolves with results
bit-identical to a fault-free sweep.  The admission SLO is propagated
into pooled dispatch as each batch's deadline
(``Dispatcher.run(..., deadline_seconds=)``), so a wedged worker cannot
hold a quote past the latency the service promised; the retry budget
and backoff are the pool's own constants.  Only a *terminal*
failure (retry budget exhausted, or a genuine task error) reaches the
tickets, and it reaches them typed: every future in the failed batch
resolves with an :class:`~repro.errors.ExecutionError` carrying the
failure chain, never a bare executor traceback.  The batcher and the
service survive a failed batch; once the pool degrades
(:attr:`pool_health` ``.degraded``) batches price inline until an
operator resets the pool's health.
"""

from __future__ import annotations

import time
from concurrent.futures import Future

from repro.analytics.ep_curves import EpCurve
from repro.core.kernels import PortfolioKernel
from repro.core.layer import Layer
from repro.core.tables import YltTable
from repro.dfa.quote import PricingQuote, premium_components_rows
from repro.errors import (AdmissionError, AnalysisError, ConfigurationError,
                          ExecutionError, ReproError)
from repro.serve.admission import AdmissionController
from repro.serve.batcher import BatchPolicy, MicroBatcher, Ticket
from repro.serve.cache import (CachePolicy, ResultCache, layer_digest,
                               payload_nbytes)

__all__ = ["PricingService"]

#: Metrics a request may ask for.
_METRICS = ("quote", "ylt", "ep_curve")


class _Request:
    """One queued batcher entry: a call's cache misses (at most
    ``max_batch`` of them) and the one metric they asked for."""

    __slots__ = ("layers", "digests", "metric", "submitted")

    def __init__(self, layers: list[Layer], digests: list[str], metric: str,
                 submitted: float) -> None:
        self.layers = layers
        self.digests = digests
        self.metric = metric
        #: ``perf_counter`` at the call's entry — every candidate's
        #: latency starts here, before digest, cache and admission.
        self.submitted = submitted


class PricingService:
    """Batched pricing and EP-curve queries against one shared YET.

    Built by :meth:`RiskSession.pricing_service
    <repro.session.RiskSession.pricing_service>`, which passes itself.

    Parameters
    ----------
    session:
        The :class:`~repro.session.RiskSession` whose YET every quote
        prices against and whose dispatcher the batches run on (one
        worker pool, one shared-memory arena across aggregate runs and
        quote batches).  The service leaves it open on :meth:`close`;
        to price another trial set, open a session over it.
    engine:
        The session dispatcher to run on, by name: ``"inline"``/
        ``"vectorized"`` (default), ``"pooled"``/``"multicore"``, or
        ``"auto"`` to let the session's planner pick.  A custom
        substrate is a session built with its settings, e.g.
        ``RiskSession(yet, n_workers=2).pricing_service(engine="pooled")``.
    volatility_loading / tail_loading:
        Multipliers on the annual-loss std-dev and on TVaR₉₉ (cost of
        capital) added to the expected loss to make the premium.
    batch:
        :class:`~repro.serve.batcher.BatchPolicy` — batch cap and
        whether a broker thread auto-flushes.
    cache:
        :class:`~repro.serve.cache.CachePolicy` (or a ready
        :class:`~repro.serve.cache.ResultCache`) for result reuse.
    slo_seconds / max_pending:
        Admission control: shed requests whose modelled latency, at the
        dispatcher's measured rate, exceeds the SLO, and cap the queue.
        ``None`` SLO = never shed on cost; nor does a dispatcher that
        has not run yet.
    """

    def __init__(
        self,
        session,
        *,
        engine: str = "inline",
        volatility_loading: float = 0.25,
        tail_loading: float = 0.02,
        batch: BatchPolicy | None = None,
        cache: CachePolicy | ResultCache | None = None,
        slo_seconds: float | None = None,
        max_pending: int = 10_000,
    ) -> None:
        if volatility_loading < 0 or tail_loading < 0:
            raise AnalysisError("loadings must be non-negative")
        #: The session whose YET and substrate the batches run on.
        self.session = session
        self.yet = session.yet
        self.volatility_loading = volatility_loading
        self.tail_loading = tail_loading
        self.dispatcher = session.dispatcher(engine)
        # One plane for the whole stack: scraping either the session or
        # the service sees session, planner, pool, and serve metrics
        # together.
        self.telemetry = session.telemetry
        self.cache = (cache if isinstance(cache, ResultCache)
                      else ResultCache(cache))
        # Admission sheds by the measured rate of the dispatcher the
        # batches run on — the one the session's aggregates and other
        # services feed too.
        self.admission = AdmissionController(
            slo_seconds=slo_seconds, max_pending=max_pending,
            throughput=self.dispatcher.throughput,
        )
        self.batcher = MicroBatcher(self._price_batch, batch)
        # The cache-key metric component carries the loadings: a shared
        # ResultCache between services configured with different premium
        # loadings must never serve one service's quote to the other.
        # (ylt/ep_curve payloads are loading-free, so the bare name is
        # the whole identity.)
        self._metric_keys = {
            "quote": f"quote/v{volatility_loading!r}/t{tail_loading!r}",
            "ylt": "ylt",
            "ep_curve": "ep_curve",
        }
        # Every metric handle is grabbed once here, so a fresh plane
        # reads 0 rather than a missing key and the request path pays
        # one lock + one add per touch point, never a registry lookup.
        # The plane is the one place these counts are read.
        tel = self.telemetry
        self._m_requests = tel.counter("serve.requests")
        self._m_cache_hits = tel.counter("serve.cache.hits")
        self._m_shed = tel.counter("serve.shed")
        self._m_batches = tel.counter("serve.batches")
        self._m_batched_requests = tel.counter("serve.batched_requests")
        self._m_kernel_rows = tel.counter("serve.kernel_rows")
        # Batches whose stacked kernel held a structural tail group
        # (>= 16 same-book rows, the many-quotes-one-book shape
        # ``quote_many`` produces) and the rows in such groups.  Where
        # those rows actually priced is the dispatcher's count on the
        # same plane: "What a run counted" in :mod:`repro.serve.dispatch`.
        self._m_sublinear_batches = tel.counter("serve.sublinear.batches")
        self._m_sublinear_rows = tel.counter("serve.sublinear.rows")
        self._m_sweep_seconds = tel.counter("serve.sweep_seconds")
        self._m_cache_hit_bytes = tel.counter("serve.cache.hit_bytes")
        self._m_cache_miss_bytes = tel.counter("serve.cache.miss_bytes")
        self._m_cache_evictions = tel.counter("serve.cache.evictions")
        self._m_queue_depth = tel.gauge("serve.queue.depth", track_max=True)
        self._m_queue_wait = tel.histogram("serve.queue.wait_seconds")
        self._m_request_seconds = tel.histogram("serve.request.seconds")
        self._m_batch_occupancy = tel.histogram(
            "serve.batch.occupancy",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
        )
        # A policy is frozen, so a cache that is off stays off: such a
        # service builds no key and never hashes the YET (``None``).
        self._yet_fp = (self.yet.fingerprint()
                        if self.cache.policy.max_entries > 0 else None)
        self._closed = False
        if self.batcher.policy.auto_flush:
            self.batcher.start()

    # -- lifecycle ---------------------------------------------------------

    @property
    def pool_health(self):
        """The dispatch substrate's :class:`~repro.hpc.pool.PoolHealth`
        (``None`` for inline dispatch — nothing to supervise)."""
        return self.dispatcher.health

    def warmup(self) -> None:
        """Pre-pay dispatcher setup (worker spawn, YET shipping)."""
        self.dispatcher.warmup(self.yet)

    def close(self) -> None:
        """Flush outstanding work and stop the broker (idempotent).  The
        session stays open: its owner closes it."""
        if self._closed:
            return
        self.batcher.stop()
        self.batcher.drain()
        self._closed = True

    def __enter__(self) -> "PricingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the request path --------------------------------------------------

    def submit(self, layer: Layer, metric: str = "quote") -> Ticket:
        """Queue one request; returns a :class:`Ticket` resolving to the
        metric.  Raises :class:`~repro.errors.AdmissionError` when shed.
        """
        results, entries = self._request([layer], metric)
        if entries:
            return Ticket(entries[0][1])
        future: Future = Future()
        future.set_result(results)
        return Ticket(future)

    def _request(self, layers, metric: str):
        """The one request path: a call's candidates enter as one request.

        Returns ``(results, entries)``: a result per candidate, in
        order, filled for the cache hits and ``None`` for the misses,
        and one ``(indices, future)`` per queued entry.  The misses are
        admitted or shed together: a shed call raises
        :class:`~repro.errors.AdmissionError` and queues nothing.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        layers = list(layers)
        for layer in layers:
            if not isinstance(layer, Layer):
                raise ConfigurationError(
                    f"expected Layer, got {type(layer).__name__}"
                )
        if metric not in _METRICS:
            raise ConfigurationError(
                f"unknown metric {metric!r}; expected one of {_METRICS}"
            )
        submitted = time.perf_counter()
        self._m_requests.inc(len(layers))
        digests = [layer_digest(layer) for layer in layers]
        results: list = [None] * len(layers)
        misses = list(range(len(layers)))
        if self._yet_fp is not None:
            metric_key = self._metric_keys[metric]
            payloads = self.cache.get_many(
                [(self._yet_fp, digest, metric_key) for digest in digests])
            misses, hit_bytes = [], 0
            for i, payload in enumerate(payloads):
                if payload is None:
                    misses.append(i)
                else:
                    results[i] = self._materialise(payload, metric, submitted)
                    hit_bytes += payload_nbytes(payload)
            if len(misses) < len(layers):
                self._m_cache_hits.inc(len(layers) - len(misses))
                self._m_cache_hit_bytes.inc(hit_bytes)
        if not misses:
            return results, []
        decision = self.admission.decide(
            self.batcher.n_pending,
            lanes_per_request=max(self.yet.n_occurrences, 1),
            n_procs=self.dispatcher.n_procs,
            n_requests=len(misses),
        )
        if not decision.accepted:
            self._m_shed.inc(len(misses))
            self.telemetry.event("serve.shed", reason=decision.reason,
                                 queue_depth=self.batcher.n_pending,
                                 n_requests=len(misses))
            raise AdmissionError(decision.reason)
        cap = self.batcher.policy.max_batch
        entries = []
        for start in range(0, len(misses), cap):
            rows = misses[start:start + cap]
            request = _Request([layers[i] for i in rows],
                               [digests[i] for i in rows], metric, submitted)
            entries.append((rows, self.batcher.submit(request, len(rows))))
        self._m_queue_depth.set(self.batcher.n_pending)
        return results, entries

    def flush(self) -> int:
        """Price one batch of queued requests now (manual mode)."""
        return self.batcher.flush()

    def drain(self, timeout: float | None = None) -> None:
        """Block until every queued request has been priced."""
        self.batcher.drain(timeout=timeout)

    # -- synchronous facade ------------------------------------------------

    def _settle(self, layers, metric: str,
                timeout: float | None = None) -> list:
        """Price one call's candidates: its hits at once, its misses
        after their entries resolve, driving the batcher inline when no
        broker thread is running.  The timeout covers the drain too: it
        bounds queue wait and other threads' in-flight batches
        (surfacing as :class:`TimeoutError`), though a sweep already
        running inline on this thread completes before the deadline is
        rechecked.
        """
        results, entries = self._request(layers, metric)
        if entries and not self.batcher.policy.auto_flush:
            self.drain(timeout=timeout)
        for rows, future in entries:
            for i, result in zip(rows, future.result(timeout=timeout)):
                results[i] = result
        return results

    def quote(self, layer: Layer, timeout: float | None = None) -> PricingQuote:
        """Price one candidate layer (synchronous)."""
        return self._settle([layer], "quote", timeout)[0]

    def quote_many(self, layers, timeout: float | None = None) -> list[PricingQuote]:
        """Price several candidates as one request: one cache pass, one
        admission decision for the misses (all are queued or none, and a
        shed call raises :class:`~repro.errors.AdmissionError`), and one
        queued entry per ``max_batch`` misses.  The quotes are in input
        order and ``==`` to the same candidates submitted one by one."""
        return self._settle(layers, "quote", timeout)

    def ylt(self, layer: Layer, timeout: float | None = None) -> YltTable:
        """The layer's full year-loss table under this YET."""
        return self._settle([layer], "ylt", timeout)[0]

    def ep_curve(self, layer: Layer, timeout: float | None = None) -> EpCurve:
        """The layer's aggregate exceedance-probability curve."""
        return self._settle([layer], "ep_curve", timeout)[0]

    # -- batch pricing (the batcher's flush_fn) ----------------------------

    def _price_batch(self, pendings) -> list:
        """Price one micro-batch: stack, sweep once, settle every entry.

        Traced as a ``serve.batch`` span with ``serve.stack`` →
        ``serve.dispatch`` → ``serve.merge`` children, so the request
        path's wall/CPU split is scrapeable per stage.
        """
        n_requests = sum(p.rows for p in pendings)
        with self.telemetry.span("serve.batch", n_requests=n_requests):
            return self._price_batch_inner(pendings, n_requests)

    def _price_batch_inner(self, pendings, n_requests: int) -> list:
        batch_start = time.perf_counter()
        for p in pendings:
            wait = max(batch_start - p.enqueued_at, 0.0)
            for _ in range(p.rows):
                self._m_queue_wait.observe(wait)
        self._m_batch_occupancy.observe(n_requests)
        self._m_queue_depth.set(self.batcher.n_pending)
        requests = [p.item for p in pendings]
        with self.telemetry.span("serve.stack"):
            # Duplicate candidates inside one batch collapse to one
            # kernel row; rows are keyed by first-seen digest order.
            row_ids: dict[str, int] = {}
            unique_layers: list[Layer] = []
            for req in requests:
                for digest, layer in zip(req.digests, req.layers):
                    if digest not in row_ids:
                        row_ids[digest] = len(unique_layers)
                        unique_layers.append(layer)
            kernel = PortfolioKernel.from_layers(
                unique_layers, layer_ids=range(len(unique_layers)))
        t0 = time.perf_counter()
        try:
            with self.telemetry.span("serve.dispatch",
                                     rows=kernel.n_layers,
                                     dispatcher=self.dispatcher.name):
                # The admission SLO reaches the workers as the run's
                # deadline, so a wedged worker is cycled and its blocks
                # re-executed instead of quietly holding quotes past the
                # promised latency (no SLO = no deadline).
                final = self.dispatcher.run(
                    kernel, self.yet,
                    deadline_seconds=self.admission.slo_seconds)
        except ReproError:
            raise  # already typed (ExecutionError from supervision etc.)
        except Exception as exc:
            # Never hand tickets a bare executor traceback: terminal
            # execution failures surface typed, with their chain.
            raise ExecutionError(
                f"batch of {n_requests} request(s) failed terminally: "
                f"{type(exc).__name__}: {exc}",
                attempts=1, failures=(exc,),
            ) from exc
        sweep_seconds = time.perf_counter() - t0
        # Simulation throughput of this sweep: the whole trial set passed
        # once for every row in the batch.  Stamped into quote
        # payloads so cached re-quotes report the throughput that
        # *produced* the number, not a dict-lookup fiction.
        sim_tps = self.yet.n_trials / max(sweep_seconds, 1e-12)
        # Structural property of the stacked batch: rows in same-lookup
        # groups of >= MIN_TAIL_GROUP.  Where the sweep sent them (book
        # profile, or lanes and why) is the kernel's own count.
        tail_rows = kernel.tail_group_rows
        self._m_batches.inc()
        self._m_batched_requests.inc(n_requests)
        self._m_kernel_rows.inc(kernel.n_layers)
        self._m_sweep_seconds.inc(sweep_seconds)
        if tail_rows:
            self._m_sublinear_batches.inc()
            self._m_sublinear_rows.inc(tail_rows)

        # One payload per (digest, metric) actually requested, cached
        # once and fanned back out to every candidate that asked for it.
        with self.telemetry.span("serve.merge"):
            wanted: dict[tuple[str, str], Layer] = {}
            for req in requests:
                for digest, layer in zip(req.digests, req.layers):
                    wanted.setdefault((digest, req.metric), layer)
            # The batch's quote metrics, all quote rows in one pass.  No
            # ``YltTable`` is built for them: of its checks on kernel
            # output, non-empty and finite are repeated there, and
            # non-negative is not — nothing relied on it for quotes (a
            # kernel row is a sum of clipped, non-negative terms).
            quoted = [(pkey, layer) for pkey, layer in wanted.items()
                      if pkey[1] == "quote"]
            payloads: dict[tuple[str, str], object] = {
                pkey: (*components, sim_tps)
                for (pkey, _), components in zip(quoted, premium_components_rows(
                    final[[kernel.row_of(row_ids[pkey[0]])
                           for pkey, _ in quoted]],
                    [layer.terms.occ_limit for _, layer in quoted],
                    self.volatility_loading, self.tail_loading,
                ))
            } if quoted else {}
            miss_bytes = 0
            for pkey in wanted:
                payload = payloads.get(pkey)
                if payload is None:
                    payload = payloads[pkey] = self._build_payload(
                        final[kernel.row_of(row_ids[pkey[0]])], pkey[1])
                miss_bytes += payload_nbytes(payload)
            self._m_cache_miss_bytes.inc(miss_bytes)
            freed = 0 if self._yet_fp is None else self.cache.put_many(
                ((self._yet_fp, digest, self._metric_keys[metric]),
                 payloads[digest, metric])
                for digest, metric in wanted)
            results = [
                [self._materialise(payloads[digest, req.metric], req.metric,
                                   req.submitted)
                 for digest in req.digests]
                for req in requests
            ]
            if freed:
                self._m_cache_evictions.inc(freed)
                self.telemetry.event("cache.evicted", n_entries=freed)
        return results

    # -- payloads ----------------------------------------------------------

    @staticmethod
    def _build_payload(losses, metric: str):
        """The cacheable value of one ``ylt`` / ``ep_curve`` request
        (quote payloads are computed for the whole batch at once)."""
        ylt = YltTable(losses.copy())
        return ylt if metric == "ylt" else EpCurve(ylt.losses)

    def _materialise(self, payload, metric: str, submitted_at: float):
        """Stamp a cached payload into a per-request result.

        YLTs are handed out as fresh copies — callers may scale or
        combine their result, and a shared cached array must not be
        corruptible.  EP curves are immutable (a private sorted sample)
        and quotes rebuild from a tuple, so both share safely.
        """
        latency = max(time.perf_counter() - submitted_at, 1e-9)
        self._m_request_seconds.observe(latency)
        if metric == "ylt":
            return YltTable(payload.losses.copy())
        if metric == "ep_curve":
            return payload
        expected, vol_load, tail, premium, rol, sim_tps = payload
        return PricingQuote(
            expected_loss=expected,
            volatility_load=vol_load,
            tail_load=tail,
            premium=premium,
            rate_on_line=rol,
            latency_seconds=latency,
            trials_per_second=sim_tps,
        )
