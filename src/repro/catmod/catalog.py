"""Stochastic event-catalogue generation.

An event catalogue is a "mathematical representation of natural
occurrence patterns and characteristics of catastrophes" (§II): a large
table of hypothetical events, each with a peril, location, severity,
footprint, and an annual occurrence *rate* used later when the YET is
simulated.  Catalogues here are a :class:`ColumnTable` wrapped with typed
accessors, generated deterministically from a peril book and a region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.catmod.geography import Region
from repro.catmod.perils import Peril, PerilKind
from repro.data.columnar import ColumnTable
from repro.data.schema import Schema
from repro.errors import ConfigurationError
from repro.util.validation import check_unique_ids

__all__ = ["CATALOG_SCHEMA", "EventCatalog", "generate_catalog"]

CATALOG_SCHEMA = Schema([
    ("event_id", np.int64),
    ("peril", np.int16),
    ("magnitude", np.float64),
    ("lat", np.float64),
    ("lon", np.float64),
    ("radius_km", np.float64),
    ("rate", np.float64),  # expected occurrences per contractual year
])


@dataclass(frozen=True)
class EventCatalog:
    """A typed wrapper around the catalogue table."""

    table: ColumnTable

    def __post_init__(self):
        if self.table.schema != CATALOG_SCHEMA:
            raise ConfigurationError("catalogue table does not match CATALOG_SCHEMA")
        check_unique_ids("catalogue", self.table["event_id"])
        if (self.table["rate"] <= 0).any():
            raise ConfigurationError("event rates must be positive")

    @property
    def n_events(self) -> int:
        return self.table.n_rows

    @property
    def event_ids(self) -> np.ndarray:
        return self.table["event_id"]

    @property
    def rates(self) -> np.ndarray:
        return self.table["rate"]

    @property
    def total_rate(self) -> float:
        """Expected total events per contractual year across the catalogue."""
        return float(self.table["rate"].sum())

    def for_peril(self, kind: PerilKind) -> "EventCatalog":
        return EventCatalog(self.table.filter(self.table["peril"] == int(kind)))


def generate_catalog(
    perils: dict[PerilKind, Peril],
    region: Region,
    n_events: int,
    rng: np.random.Generator,
) -> EventCatalog:
    """Generate an ``n_events``-row stochastic catalogue.

    Events are apportioned to perils proportionally to their annual rates,
    so each event's own occurrence rate is ``peril_rate / peril_events``
    and the catalogue-wide total rate equals the book's total rate
    regardless of ``n_events`` (refining a catalogue adds resolution, not
    frequency).
    """
    if n_events <= 0:
        raise ConfigurationError(f"n_events must be positive, got {n_events}")
    if not perils:
        raise ConfigurationError("need at least one peril")

    kinds = sorted(perils, key=int)
    total_rate = sum(perils[k].annual_rate for k in kinds)
    counts = {}
    assigned = 0
    for i, kind in enumerate(kinds):
        if i == len(kinds) - 1:
            counts[kind] = n_events - assigned
        else:
            share = perils[kind].annual_rate / total_rate
            counts[kind] = max(1, int(round(n_events * share)))
            assigned += counts[kind]
    if counts[kinds[-1]] <= 0:
        raise ConfigurationError(
            f"n_events={n_events} too small for {len(kinds)} perils"
        )

    parts = []
    next_id = 0
    for kind in kinds:
        peril = perils[kind]
        n = counts[kind]
        prng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        magnitude = peril.sample_magnitudes(n, prng)
        lat = prng.uniform(region.lat_min, region.lat_max, size=n)
        lon = prng.uniform(region.lon_min, region.lon_max, size=n)
        parts.append(ColumnTable.from_arrays(
            CATALOG_SCHEMA,
            event_id=np.arange(next_id, next_id + n, dtype=np.int64),
            peril=np.full(n, int(kind), dtype=np.int16),
            magnitude=magnitude,
            lat=lat,
            lon=lon,
            radius_km=peril.footprint_radius_km(magnitude),
            rate=np.full(n, peril.annual_rate / n, dtype=np.float64),
        ))
        next_id += n
    return EventCatalog(ColumnTable.concat(parts))
