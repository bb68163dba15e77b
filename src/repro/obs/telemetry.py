"""The :class:`Telemetry` facade: one plane of metrics + spans + events.

A ``Telemetry`` instance is the unit of observability scope.  A
:class:`~repro.session.RiskSession` owns one and threads it through
everything it builds — planner, dispatcher, pool, pricing service — so
one scrape of ``session.telemetry`` sees the whole request path.
Standalone components (a bare :class:`~repro.hpc.pool.WorkPool`, a
:class:`~repro.serve.PricingService` over a raw dispatcher) default to a
private enabled plane of their own.

``Telemetry(enabled=False)`` is the no-op mode: metric handles become a
shared do-nothing singleton, spans skip the clock reads, events return
``None`` — the hot path pays one attribute call per touch point, which
the tier-1 overhead guard holds to an absolute per-call budget (in
microseconds; ``tests/test_obs.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.obs.events import EventLog
from repro.obs.registry import (MetricsRegistry, parse_prometheus_text,
                                prometheus_name)
from repro.obs.tracing import Tracer

__all__ = ["Telemetry", "as_telemetry"]


class Telemetry:
    """One metrics registry + tracer + event log, scraped as a unit."""

    def __init__(self, enabled: bool = True, *,
                 max_events: int = 1024, max_spans: int = 512) -> None:
        self.enabled = bool(enabled)
        self.metrics = MetricsRegistry(self.enabled)
        self.events = EventLog(self.metrics, max_events=max_events)
        self.tracer = Tracer(self.metrics, max_spans=max_spans)

    # -- instrument handles ------------------------------------------------

    def counter(self, name: str):
        return self.metrics.counter(name)

    def gauge(self, name: str, track_max: bool = False):
        return self.metrics.gauge(name, track_max=track_max)

    def histogram(self, name: str,
                  buckets: Sequence[float] | None = None):
        return self.metrics.histogram(name, buckets)

    def span(self, name: str, **annotations):
        return self.tracer.span(name, **annotations)

    def event(self, kind: str, /, **fields):
        return self.events.emit(kind, **fields)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """The stable nested scrape: flat dot-keyed ``metrics``, plus the
        bounded ``events`` and ``spans`` buffers (all JSON-ready)."""
        return {
            "enabled": self.enabled,
            "metrics": self.metrics.snapshot(),
            "events": self.events.snapshot(),
            "spans": self.tracer.snapshot(),
        }

    def samples(self) -> Dict[str, float]:
        return self.metrics.samples()

    def to_prometheus_text(self) -> str:
        return self.metrics.to_prometheus_text()


def as_telemetry(value) -> Telemetry:
    """Coerce a constructor argument into a :class:`Telemetry` plane.

    ``True``/``None`` build a fresh enabled plane, ``False`` a disabled
    one, and an existing instance passes through (how a session shares
    its plane with the components it builds).
    """
    if isinstance(value, Telemetry):
        return value
    if value is None or value is True:
        return Telemetry(enabled=True)
    if value is False:
        return Telemetry(enabled=False)
    raise TypeError(
        f"telemetry must be a Telemetry instance or bool, got {value!r}"
    )
