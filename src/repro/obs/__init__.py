"""Process-wide telemetry plane: metrics, spans, structured events.

The observability substrate ROADMAP aim 4 calls for: every subsystem
that used to keep ad-hoc private counters (session ships, serve stats,
pool health) now instruments through one :class:`Telemetry` plane, and
operators/benches scrape it through public pull-based endpoints —
``RiskSession.telemetry`` and ``PricingService.telemetry`` — instead of
reaching into private fields.

Metric naming convention (the repo's rules of record)
-----------------------------------------------------
- **Flat, dot-separated, lowercase**: ``<subsystem>.<noun>[.<detail>]``
  — e.g. ``serve.requests``, ``pool.worker_deaths``,
  ``engine.vectorized.lanes``.  Units are spelled in the last segment
  when they matter: ``serve.request.seconds``, ``serve.cache.hit_bytes``.
- **Counters are monotone** (requests, retries, bytes); **gauges** are
  point-in-time levels (``serve.queue.depth``; peak-tracking gauges add
  a derived ``.max`` key); **histograms** have fixed bucket bounds and
  expand in snapshots to ``.count``/``.sum``/``.max``/``.p50``/
  ``.p95``/``.p99``.
- **The plane is the one scrape**: every serving and session count is
  read from ``telemetry.snapshot()["metrics"]``, a flat
  ``{dot.name: value}`` dict, and nowhere else.  A ratio of counts is
  computed by the reader, never stored beside them: the hit rate is
  ``serve.cache.hits / serve.requests``, requests per sweep
  ``serve.batched_requests / serve.batches``.
- **Spans** record the request path (``session.stage`` → ``session.plan``
  → ``serve.batch`` → ``serve.dispatch`` → ``serve.merge``) with
  per-thread parent/child nesting and wall *and* CPU seconds; each span
  also feeds a ``span.<name>.seconds`` histogram.
- **Events** are bounded, typed occurrences (``plan.decision``,
  ``pool.degraded``, ``pool.recovered``, ``cache.evicted``,
  ``fault.injected``, ``serve.shed``) with an ``events.<kind>`` counter
  that outlives the rotating buffer.
- **Prometheus export**: ``to_prometheus_text()`` renders the standard
  exposition format with names mangled dot→underscore under the
  ``repro_`` prefix (``serve.request.seconds`` →
  ``repro_serve_request_seconds``); ``parse_prometheus_text`` inverts it
  so benches assert the round trip against ``samples()``.

Adding a metric: grab a handle once at construction time
(``self._m_thing = telemetry.counter("subsystem.thing")``), update it on
the hot path (one lock + one add), and never cache values outside the
registry — snapshots must be the single source of truth.
"""

from repro.obs.events import Event, EventLog
from repro.obs.registry import (Counter, DEFAULT_LATENCY_BUCKETS, Gauge,
                                Histogram, MetricsRegistry,
                                parse_prometheus_text, prometheus_name)
from repro.obs.telemetry import Telemetry, as_telemetry
from repro.obs.tracing import SpanRecord, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS", "prometheus_name", "parse_prometheus_text",
    "Event", "EventLog", "SpanRecord", "Tracer",
    "Telemetry", "as_telemetry",
]
