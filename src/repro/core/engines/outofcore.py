"""Out-of-core engine: aggregate analysis over a disk-resident YET.

At paper scale the YET does not fit memory; §II's scan-oriented remedy
is to stream it.  This engine reads YET chunks from a
:class:`~repro.data.store.ChunkStore` (one chunk resident at a time) and
runs the fused :class:`~repro.core.kernels.PortfolioKernel` sweep per
chunk — every layer consumes the chunk while it is resident, so the YET
is scanned once total rather than once per layer.  Chunks are read as
they were written, cut anywhere; the engine holds back each chunk's
last, possibly partial, trial and sweeps it with the next chunk, so
every sweep is a block of whole trials written to its own columns of
one dense ``(L, n_trials)`` annual matrix, which *does* fit memory (the
whole point of the YLT-level representation) — map over trial-aligned
splits, reduce by concatenation, and the answer is ``np.array_equal``
to the in-memory engines' whatever the chunk size.  Resident: one chunk
plus the longest trial.  Aggregate terms apply once at the end.

A chunk is seen once, so rows the kernel prices by events (or off a book
profile) build their index (profile) per block.  Against pricing every
row on the stream, which the engine did before it swept whole-trial
blocks, one by-event row over a 500 k-occurrence table pays ≈ +4 to
+8 ms, 8 rows break even and 32 rows gain ≈ 10 ms (whole
``run_from_store``, ≈ 20 ms of it read + unpack; CHANGES.md, PR 21);
by-stream rows are unchanged.  That is the price of routing that reads
the row alone.

It is not in the default registry because its input is a stored table
rather than an in-memory :class:`YetTable`; use :meth:`run_from_store`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.engines.base import EngineResult
from repro.core.portfolio import Portfolio
from repro.core.tables import TrialSegments, YltTable
from repro.data.store import ChunkStore
from repro.errors import EngineError

__all__ = ["OutOfCoreEngine"]


class OutOfCoreEngine:
    """Streamed aggregate analysis over a stored YET."""

    name = "outofcore"

    def run_from_store(
        self,
        portfolio: Portfolio,
        store: ChunkStore,
        table_name: str,
        n_trials: int,
    ) -> EngineResult:
        """Run the analysis reading YET chunks from ``store``.

        The stored table must have the YET columns (``trial``,
        ``event_id``) with rows in trial order, split across chunks
        anywhere; what is read from disk is checked before it is swept.
        """
        if n_trials <= 0:
            raise EngineError(f"n_trials must be positive, got {n_trials}")
        t0 = time.perf_counter()

        kernel = portfolio.kernel()
        routed_before = dict(kernel.routed)
        annual = np.zeros((kernel.n_layers, n_trials), dtype=np.float64)
        chunks_read = rows_read = n_blocks = 0

        def sweep_block(trials: np.ndarray, events: np.ndarray) -> None:
            t_lo, t_hi = int(trials[0]), int(trials[-1]) + 1
            segments = TrialSegments(
                np.searchsorted(trials, np.arange(t_lo, t_hi + 1)))
            annual[:, t_lo:t_hi] = kernel.sweep_segments(segments, events)

        # The trial held back from the chunks read so far.
        held_trials = held_events = np.empty(0, dtype=np.int64)
        for ordinal, chunk in enumerate(store.iter_chunks(table_name)):
            if "trial" not in chunk.schema or "event_id" not in chunk.schema:
                raise EngineError(
                    f"stored table {table_name!r} lacks YET columns"
                )
            chunks_read += 1
            rows_read += chunk.n_rows
            if not chunk.n_rows:
                continue
            trials = np.asarray(chunk["trial"], dtype=np.int64)
            events = np.asarray(chunk["event_id"], dtype=np.int64)
            where = f"stored table {table_name!r}, chunk {ordinal}"
            last = held_trials[-1] if held_trials.size else trials[0]
            if trials[0] < last or np.any(trials[1:] < trials[:-1]):
                raise EngineError(f"{where}: rows step back in trial order")
            if trials[0] < 0 or trials[-1] >= n_trials:
                raise EngineError(
                    f"{where}: trial indices outside [0, {n_trials})")
            if events.min() < 0:
                raise EngineError(f"{where}: negative event id")
            if held_trials.size:
                trials = np.concatenate((held_trials, trials))
                events = np.concatenate((held_events, events))
            cut = int(np.searchsorted(trials, trials[-1]))
            if cut:
                sweep_block(trials[:cut], events[:cut])
                n_blocks += 1
                # Copied: a view would keep the chunk's whole columns alive.
                trials, events = trials[cut:].copy(), events[cut:].copy()
            held_trials, held_events = trials, events
        if held_trials.size:
            sweep_block(held_trials, held_events)
            n_blocks += 1

        final = kernel.apply_aggregate(annual)
        ylt_by_layer = {
            lid: YltTable(final[row]) for row, lid in enumerate(kernel.layer_ids)
        }
        portfolio_ylt = YltTable.sum(list(ylt_by_layer.values()))
        return EngineResult(
            engine=self.name,
            ylt_by_layer=ylt_by_layer,
            portfolio_ylt=portfolio_ylt,
            seconds=time.perf_counter() - t0,
            details={"chunks_read": chunks_read, "rows_read": rows_read,
                     "fused_layers": kernel.n_layers, "n_blocks": n_blocks,
                     "routed": kernel.routed_since(routed_before)},
        )
