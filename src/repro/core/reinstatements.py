"""Reinstatement provisions — the paper's contracts, one step closer.

Real excess-of-loss treaties rarely give unlimited annual cover: the
layer's occurrence limit can be used a fixed number of times per year
(the original limit plus ``n`` *reinstatements*), and each reinstatement
is bought back at a premium pro-rata to the limit consumed.  This module
implements the standard arithmetic on top of the engine outputs:

- :func:`apply_reinstatement_limit` caps each trial-year's occurrence
  losses at ``(1 + n) × occ_limit`` of total recovery, consuming
  occurrences in row order within each trial (the order the engines
  emit a YELT in, which is the YET's row order);
- :func:`reinstatement_premiums` computes the per-trial reinstatement
  premium income at a given rate.

It operates on the YELT (the event-granularity intermediate §II
describes), which is exactly why engines can emit it.
"""

from __future__ import annotations

import numpy as np

from repro.core.tables import YELT_SCHEMA, YeltTable
from repro.data.columnar import ColumnTable
from repro.errors import ConfigurationError

__all__ = ["apply_reinstatement_limit", "reinstatement_premiums"]


def apply_reinstatement_limit(
    yelt: YeltTable,
    occ_limit: float,
    n_reinstatements: int,
) -> YeltTable:
    """Cap annual recoveries at ``(1 + n_reinstatements) * occ_limit``.

    Occurrence losses are consumed in row order within each trial (the
    engines emit YELT rows in YET order, i.e. chronologically within the
    year).  Once the annual capacity is exhausted later occurrences
    recover nothing — the contractual behaviour of a fully-burned layer.

    Returns a new YELT with the same rows and clipped losses.
    """
    if occ_limit <= 0 or not np.isfinite(occ_limit):
        raise ConfigurationError("occ_limit must be positive and finite")
    if n_reinstatements < 0:
        raise ConfigurationError("n_reinstatements must be non-negative")
    capacity = (1 + n_reinstatements) * occ_limit

    trials = yelt.table["trial"]
    losses = yelt.table["loss"].astype(np.float64, copy=False)
    if losses.size == 0:
        return YeltTable(yelt.table, yelt.n_trials)
    if (np.diff(trials) < 0).any():
        raise ConfigurationError(
            "YELT rows must be grouped by trial in year order (as engines "
            "emit them) for reinstatement accounting"
        )

    # Loss occurring *before* each row within its trial, summed in year
    # order by a running sum that restarts every trial — never a global
    # cumsum minus a trial base, which would carry the rounding of every
    # earlier trial into each row.  One step per within-trial position,
    # vectorised over the trials that reach it (longest trials first, so
    # they are a prefix).  A row's answer then depends on its own trial
    # alone, and applying the limit twice gives exactly the once-applied
    # losses.
    starts = np.flatnonzero(np.concatenate(([True], np.diff(trials) != 0)))
    lengths = np.diff(np.append(starts, losses.size))
    order = np.argsort(-lengths, kind="stable")
    firsts, neg_lengths = starts[order], -lengths[order]
    running = np.zeros(starts.size)
    before = np.empty_like(losses)
    for k in range(int(lengths.max())):
        reach = int(np.searchsorted(neg_lengths, -k))  # trials longer than k
        rows = firsts[:reach] + k
        before[rows] = running[:reach]
        running[:reach] += losses[rows]
    recovered = np.clip(capacity - before, 0.0, losses)

    table = ColumnTable.from_arrays(
        YELT_SCHEMA,
        trial=trials,
        event_id=yelt.table["event_id"],
        loss=recovered,
    )
    return YeltTable(table, yelt.n_trials)


def reinstatement_premiums(
    original: YeltTable,
    limited: YeltTable,
    occ_limit: float,
    rate_on_line: float,
    n_reinstatements: int,
) -> np.ndarray:
    """Per-trial reinstatement premium income.

    Consumed limit (up to ``n_reinstatements × occ_limit`` beyond the
    first fill) is reinstated pro-rata at ``rate_on_line × occ_limit``
    per full reinstatement — the market's standard "pro rata as to
    amount" clause.
    """
    if rate_on_line < 0:
        raise ConfigurationError("rate_on_line must be non-negative")
    if original.n_trials != limited.n_trials:
        raise ConfigurationError("YELTs must share the trial count")
    annual = limited.to_ylt().losses
    # Limit consumed beyond the original (first) limit, capped at the
    # reinstated capacity.
    reinstated = np.clip(annual - occ_limit, 0.0, n_reinstatements * occ_limit)
    return (reinstated / occ_limit) * rate_on_line * occ_limit
