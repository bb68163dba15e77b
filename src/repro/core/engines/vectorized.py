"""The vectorised NumPy engine — the data-parallel path.

This is the "GPU with everything in global memory" model of DESIGN.md,
now executed as **one fused sweep for the whole portfolio**: the shared
:class:`~repro.core.kernels.PortfolioKernel` prices every layer row
with one gather from its net table (occurrence terms pre-applied per
table entry) and one ``reduceat`` over the YET's cached whole-trial
segments — the trial column is decoded once per ``YetTable``, not once
per layer or per sweep.  One occurrence is one array lane, exactly as
one CUDA thread handles one occurrence in the companion study.
"""

from __future__ import annotations

import time

from repro.core.engines.base import Engine, EngineResult
from repro.core.portfolio import Portfolio
from repro.core.tables import YELT_SCHEMA, YeltTable, YetTable, YltTable
from repro.data.columnar import ColumnTable

__all__ = ["VectorizedEngine"]


class VectorizedEngine(Engine):
    """Whole-array aggregate analysis over the fused portfolio kernel."""

    name = "vectorized"

    def run(self, portfolio: Portfolio, yet: YetTable, *,
            emit_yelt: bool = False) -> EngineResult:
        self._validate(portfolio, yet)
        t0 = time.perf_counter()

        trials = yet.trials
        event_ids = yet.event_ids
        n_trials = yet.n_trials

        kernel = portfolio.kernel()
        routed_before = dict(kernel.routed)
        final = kernel.apply_aggregate(
            kernel.sweep_segments(*yet.trial_block()))
        ylt_by_layer = {
            lid: YltTable(final[row]) for row, lid in enumerate(kernel.layer_ids)
        }

        yelt_by_layer: dict[int, YeltTable] | None = None
        if emit_yelt:
            yelt_by_layer = {}
            for row, lid in enumerate(kernel.layer_ids):
                # One YELT row per *covered* occurrence (the layer's ELTs
                # price the event), carrying the post-occurrence-terms
                # loss — zero rows are real occurrences below retention.
                losses = kernel.gather_layer(row, event_ids)
                retained = kernel.occurrence_row(row, losses)
                covered = losses > 0.0
                table = ColumnTable.from_arrays(
                    YELT_SCHEMA,
                    trial=trials[covered],
                    event_id=event_ids[covered],
                    loss=retained[covered],
                )
                yelt_by_layer[lid] = YeltTable(table, n_trials)

        portfolio_ylt = YltTable.sum(list(ylt_by_layer.values()))
        return EngineResult(
            engine=self.name,
            ylt_by_layer=ylt_by_layer,
            portfolio_ylt=portfolio_ylt,
            yelt_by_layer=yelt_by_layer,
            seconds=time.perf_counter() - t0,
            details={
                "occurrences_processed": event_ids.size * portfolio.n_layers,
                "fused_layers": kernel.n_layers,
                "tail_group_rows": kernel.tail_group_rows,
                # Where this run's structural tail-group rows went
                # (the kernel is the portfolio's, shared across runs).
                "routed": {name: rows - routed_before[name]
                           for name, rows in kernel.routed.items()},
            },
        )
