"""The chunked simulated-GPU engine — the paper's optimised path.

This engine reproduces the data-management strategy of the companion
study [7] — chunking, "utilising shared and constant memory as much as
possible" (§II) — as a plan over
:class:`~repro.hpc.device.DeviceProperties`, and prices through the
same block task as every host engine.  Before anything runs, the plan
is drawn from the portfolio kernel's metadata alone:

- a book is placed by its id range
  (:func:`~repro.core.lookup.fits_direct`): a book inside
  ``DENSE_MAX_ENTRIES`` as a direct-index table trimmed to its
  effective width (8 B per slot), a wider one as its sorted
  ``(event, loss)`` pair (16 B per entry);
- kernel rows are grouped into **resident batches** sized to the
  global-memory budget; rows sharing a merged book count it once.  Per
  batch there is one stacked table upload (plus one pair upload when a
  wide book is read), not one buffer per layer;
- which tables live in the **64 KiB-class constant space** is chosen by
  a greedy (hit-frequency × size) packer: tables scoring the most
  referencing-rows × bytes claim constant first, the rest ride the
  stacked global upload, padded to its widest effective table;
- one :class:`~repro.hpc.chunking.ChunkPlanner` plan per run, sized to
  the largest batch's resident bytes, gives the YET chunk
  (``rows_per_chunk``, E5's chunk-size sweep caps it) and the
  shared-memory tile (``rows_per_block``: one 8 B accumulator per row in
  the 48 KiB per-block space).

The chunks are the plan's too: the YET cut into whole-trial chunks of
at most ``rows_per_chunk`` occurrences (a longer trial is a chunk on
its own: :func:`~repro.core.tables.whole_trial_cuts`, the rule a
sweep's blocks are cut by), counted, never copied.  The transfer counts
in ``details`` are the plan's arithmetic: each batch streams the whole
YET (its ``trial`` and ``event_id`` columns, 8 B per occurrence) in
chunk by chunk with its lookups, and downloads its rows' annual losses
(8 B per row and trial).  The host runs one sweep of the whole YET on
the engine's inline dispatcher, so every chunk size answers
``np.array_equal`` to ``vectorized``.

``use_constant`` exists for the E5 ablation: turning it off yields the
naive all-global placement the study improved on.
"""

from __future__ import annotations

import numpy as np

from repro.core.engines.host import HostEngine
from repro.core.kernels import PortfolioKernel
from repro.core.lookup import effective_width, fits_direct
from repro.core.tables import YET_SCHEMA, YetTable, whole_trial_cuts
from repro.hpc.chunking import ChunkPlanner
from repro.hpc.device import DeviceProperties

__all__ = ["DeviceEngine"]

#: Bytes per YET row the transfer model moves to the device: an int32
#: ``trial`` and ``event_id`` per occurrence.  A model of a row-format
#: upload, not of what a :class:`YetTable` holds (4 B per occurrence +
#: 8 B per trial); E5's ``h2d`` rows are priced by it.
_YET_ROW_BYTES = YET_SCHEMA["trial"].itemsize + YET_SCHEMA["event_id"].itemsize


def _placement(ids: np.ndarray, values: np.ndarray) -> tuple[str, int]:
    """``(kind, bytes)`` a book places as: a direct-index table up to its
    effective width while its id range fits, else its sorted pair."""
    if fits_direct(ids):
        return "dense", effective_width(ids, values) * 8
    return "sparse", ids.size * 16


class DeviceEngine(HostEngine):
    """Aggregate analysis planned onto a simulated GPU — resident
    batches, constant packing and whole-trial chunks — and run as one
    sweep of the engine's inline dispatcher."""

    name = "device"

    def __init__(
        self,
        properties: DeviceProperties | None = None,
        max_rows_per_chunk: int | None = None,
        use_constant: bool = True,
    ) -> None:
        super().__init__()
        self.properties = properties or DeviceProperties()
        self.max_rows_per_chunk = max_rows_per_chunk
        self.use_constant = use_constant
        self.planner = ChunkPlanner(self.properties)

    # -- placement -----------------------------------------------------------

    def _batches(self, meta: list, n_trials: int) -> list:
        """Partition kernel rows into resident batches.

        A batch's worst-case footprint (every distinct stored lookup
        counted once even if spilled to global, plus one annual row per
        kernel row) may claim at most half the global budget, leaving
        the rest for the streamed YET chunk.  Small portfolios form one
        batch; a portfolio too big to co-reside degrades gracefully to
        one YET pass per batch.
        """
        resident_cap = max(self.planner.budget_bytes // 2, 1)
        batches: list[list[int]] = [[]]
        batch_bytes = 0
        seen: set = set()
        for row, (key, _, store_bytes) in enumerate(meta):
            need = (0 if key in seen else store_bytes) + n_trials * 8
            if batches[-1] and batch_bytes + need > resident_cap:
                batches.append([])
                batch_bytes = 0
                seen = set()
                need = store_bytes + n_trials * 8
            batches[-1].append(row)
            batch_bytes += need
            seen.add(key)
        return batches

    def _place(self, batch_meta: list) -> tuple[dict, dict, dict]:
        """One batch's distinct books, ``{(kind, store): bytes}`` each,
        split into the constant bank, the stacked table upload and the
        pair upload.

        Greedy constant packing over the batch's tables: score =
        referencing rows × effective bytes, highest first — the most-hit
        bytes earn the broadcast-cached bank.
        """
        refs: dict = {}
        for key, _, store_bytes in batch_meta:
            hits, _ = refs.get(key, (0, store_bytes))
            refs[key] = (hits + 1, store_bytes)
        dense = [key for key in refs if key[0] == "dense"]
        constant: dict = {}
        if self.use_constant:
            free = self.properties.constant_mem_bytes
            for key in sorted(dense,
                              key=lambda k: (-refs[k][0] * refs[k][1], k[1])):
                if refs[key][1] <= free:
                    constant[key] = refs[key][1]
                    free -= refs[key][1]
        stacked = {key: refs[key][1] for key in dense if key not in constant}
        sparse = {key: refs[key][1] for key in refs if key[0] == "sparse"}
        return constant, stacked, sparse

    # -- run -----------------------------------------------------------------

    def _execute(self, kernel: PortfolioKernel,
                 yet: YetTable) -> tuple[np.ndarray, dict]:
        n_trials = yet.n_trials
        # ``((kind, store), kind, bytes)`` of the book behind each row.
        books = [_placement(*kernel.book(store))
                 for store in range(kernel.n_unique_lookups)]
        meta = [((books[store][0], store), *books[store])
                for store in kernel.source.tolist()]
        batches = self._batches(meta, n_trials)

        in_constant = [False] * kernel.n_layers
        lookup_h2d = resident = stack_uploads = sparse_stack_uploads = 0
        for batch in batches:
            constant, stacked, sparse = self._place([meta[row] for row in batch])
            for row in batch:
                in_constant[row] = meta[row][0] in constant
            # The stacked upload is padded to its widest effective table.
            stack_bytes = len(stacked) * max(stacked.values(), default=0)
            sparse_bytes = sum(sparse.values())
            lookup_h2d += sum(constant.values()) + stack_bytes + sparse_bytes
            resident = max(resident, len(batch) * n_trials * 8
                           + stack_bytes + sparse_bytes)
            stack_uploads += bool(stacked)
            sparse_stack_uploads += bool(sparse)

        plan = self.planner.plan(
            n_rows=yet.n_occurrences,
            row_bytes=_YET_ROW_BYTES,
            resident_bytes=resident,
            max_rows_per_chunk=self.max_rows_per_chunk,
        )
        cuts = whole_trial_cuts(yet.trial_offsets, plan.rows_per_chunk)
        final = self.dispatcher.run(kernel, yet)

        n_passes = len(batches) * (len(cuts) - 1)
        return final, {
            "layers": {
                lid: {
                    "rows_per_chunk": plan.rows_per_chunk,
                    "rows_per_block": plan.rows_per_block,
                    "lookup_in_constant": in_constant[row],
                    "lookup_kind": meta[row][1],
                    "lookup_bytes": meta[row][2],
                }
                for row, lid in enumerate(kernel.layer_ids)
            },
            "n_batches": len(batches),
            "n_chunks_total": n_passes,
            "stack_uploads": stack_uploads,
            "sparse_stack_uploads": sparse_stack_uploads,
            "yet_uploads": n_passes,
            "h2d_bytes": (len(batches) * _YET_ROW_BYTES * yet.n_occurrences
                          + lookup_h2d),
            "d2h_bytes": final.nbytes,
        }
