"""The sequential scalar engine — the paper's CPU baseline.

The companion study's "15x times faster than the sequential counterpart"
(§II) compares a GPU implementation against a scalar, one-occurrence-at-
a-time loop.  This engine *is* that counterpart, implemented honestly:
Python dict lookups, scalar min/max arithmetic, an explicit loop over
trials and occurrences, no NumPy in the inner loop.  It doubles as the
numerical oracle for every other engine.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.engines.base import Engine, EngineResult
from repro.core.portfolio import Portfolio
from repro.core.tables import YELT_SCHEMA, YeltTable, YetTable, YltTable
from repro.data.columnar import ColumnTable

__all__ = ["SequentialEngine"]


class SequentialEngine(Engine):
    """Scalar reference implementation of aggregate analysis."""

    name = "sequential"

    def run(self, portfolio: Portfolio, yet: YetTable, *,
            emit_yelt: bool = False) -> EngineResult:
        self._validate(portfolio, yet)
        t0 = time.perf_counter()

        # Hoist the YET into plain Python structures: the engine under
        # test is the scalar compute loop, and a realistic sequential code
        # would read native rows, not NumPy scalars.
        trials_list = yet.trials.tolist()
        events_list = yet.event_ids.tolist()
        offsets = yet.trial_offsets.tolist()
        n_trials = yet.n_trials

        ylt_by_layer: dict[int, YltTable] = {}
        yelt_by_layer: dict[int, YeltTable] = {} if emit_yelt else None
        occurrences_processed = 0

        for layer in portfolio:
            loss_map = layer.lookup().as_dict()
            terms = layer.terms
            occ_ret = terms.occ_retention
            occ_lim = terms.occ_limit
            annual = [0.0] * n_trials
            yelt_rows: list[tuple[int, int, float]] = [] if emit_yelt else None

            for t in range(n_trials):
                start, stop = offsets[t], offsets[t + 1]
                total = 0.0
                for i in range(start, stop):
                    event_id = events_list[i]
                    loss = loss_map.get(event_id, 0.0)
                    retained = loss - occ_ret
                    if retained < 0.0:
                        retained = 0.0
                    elif retained > occ_lim:
                        retained = occ_lim
                    total += retained
                    if emit_yelt and loss > 0.0:
                        yelt_rows.append((trials_list[i], event_id, retained))
                annual[t] = terms.aggregate_scalar(total)
                occurrences_processed += stop - start

            ylt_by_layer[layer.layer_id] = YltTable(np.array(annual, dtype=np.float64))
            if emit_yelt:
                if yelt_rows:
                    tr, ev, lo = zip(*yelt_rows)
                else:
                    tr, ev, lo = (), (), ()
                table = ColumnTable.from_arrays(
                    YELT_SCHEMA,
                    trial=np.array(tr, dtype=np.int64),
                    event_id=np.array(ev, dtype=np.int64),
                    loss=np.array(lo, dtype=np.float64),
                )
                yelt_by_layer[layer.layer_id] = YeltTable(table, n_trials)

        portfolio_ylt = YltTable.sum(list(ylt_by_layer.values()))
        return EngineResult(
            engine=self.name,
            ylt_by_layer=ylt_by_layer,
            portfolio_ylt=portfolio_ylt,
            yelt_by_layer=yelt_by_layer,
            seconds=time.perf_counter() - t0,
            details={"occurrences_processed": occurrences_processed},
        )
