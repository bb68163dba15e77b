"""The chunked simulated-GPU engine — the paper's optimised path.

This engine reproduces the data-management strategy of the companion
study [7] on :class:`~repro.hpc.device.SimulatedGpu`, driving the same
stacked :class:`~repro.core.kernels.PortfolioKernel` every host engine
uses:

- the YET is **streamed through global memory in chunks** sized by the
  :class:`~repro.hpc.chunking.ChunkPlanner` against the device's real
  capacity (E5's chunk-size sweep drives ``max_rows_per_chunk``);
- kernel rows are grouped into **resident batches** sized to the
  global-memory budget; within a batch each YET chunk is uploaded once
  and ONE stacked kernel launch prices every row against it, resolving
  each row's lookup — constant bank, row offset into the uploaded
  ``dense_stack``, or CSR segment bounds — in-kernel.  Rows sharing a
  merged book ship their table once: per batch there is exactly one
  stacked dense upload (plus one CSR pair when sparse rows exist), not
  one buffer per layer;
- which merged lookups live in the **64 KiB-class constant space** is
  chosen by a greedy (hit-frequency × size) packer: tables scoring the
  most referencing-rows × bytes claim constant first, the rest ride the
  stacked global upload.  Stacked tables are trimmed to their effective
  width before shipping, so one wide book does not inflate its
  neighbours' padding onto the bus;
- each kernel block reduces its occurrences into a **shared-memory
  accumulator** when the block's (rows × trial-span) tile fits the
  48 KiB shared space, falling back to global-memory accumulation (the
  analogue of global atomics) otherwise;
- aggregate terms run as one trials-wide kernel per batch over the
  stacked annual matrix, which then downloads in a single D2H copy.

``use_constant`` / ``use_shared`` switches exist purely for the E5
ablation: turning them off yields the "naive GPU" the study improved on.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.engines.base import Engine, EngineResult
from repro.core.engines.host import emit_yelt_row
from repro.core.kernels import PortfolioKernel
from repro.core.portfolio import Portfolio
from repro.core.tables import YeltTable, YetTable, YltTable
from repro.hpc.chunking import ChunkPlanner
from repro.hpc.device import SimulatedGpu
from repro.hpc.kernel import Kernel

__all__ = ["DeviceEngine"]

#: Bytes per YET row resident on device: trial (i8) + event_id (i8).
_YET_ROW_BYTES = 16

#: Row lookup modes resolved in-kernel.
_MODE_CONSTANT, _MODE_STACK, _MODE_SPARSE = 0, 1, 2


def _effective_width(table: np.ndarray) -> int:
    """Entries of a (zero-padded) dense table worth shipping.

    Trailing zeros read identically to "unknown event → 0", so a table
    trimmed to its last non-zero entry is functionally the same lookup;
    a floor of one entry keeps downstream indexing trivially safe.
    """
    nz = np.flatnonzero(table)
    return int(nz[-1]) + 1 if nz.size else 1


class DeviceEngine(Engine):
    """Aggregate analysis on the simulated GPU with explicit chunking."""

    name = "device"

    def __init__(
        self,
        gpu: SimulatedGpu | None = None,
        max_rows_per_chunk: int | None = None,
        use_constant: bool = True,
        use_shared: bool = True,
        global_budget_fraction: float = 0.9,
    ) -> None:
        self.gpu = gpu or SimulatedGpu()
        self.max_rows_per_chunk = max_rows_per_chunk
        self.use_constant = use_constant
        self.use_shared = use_shared
        self.planner = ChunkPlanner(self.gpu.properties, global_budget_fraction)

    # -- kernels -------------------------------------------------------------

    def _make_batch_kernel(self, *, occ_ret, occ_lim, modes, const_names,
                           stack_pos, seg_bounds, use_shared: bool) -> Kernel:
        n_rows = occ_ret.size

        def body(ctx, trial, event, annual, **stack_bufs):
            s = ctx.rows()
            ev = event[s]
            tr = trial[s]
            acc = None
            if use_shared and tr.size:
                tmin = int(tr[0])
                span = int(tr[-1]) - tmin + 1
                if span * n_rows * 8 <= ctx.shared.free_bytes:
                    # Block-local reduction of the whole row stack in
                    # shared memory, then one coalesced add per row into
                    # the global annual matrix.
                    acc = ctx.shared.alloc("acc", (n_rows, span), np.float64)
            for i in range(n_rows):
                mode = modes[i]
                if mode == _MODE_SPARSE:
                    lo, hi = seg_bounds[i]
                    ids = stack_bufs["sparse_ids"][lo:hi]
                    vals = stack_bufs["sparse_values"][lo:hi]
                    if ids.size:
                        pos = np.minimum(np.searchsorted(ids, ev),
                                         ids.size - 1)
                        losses = np.where(ids[pos] == ev, vals[pos], 0.0)
                    else:
                        losses = np.zeros(ev.size)
                else:
                    table = (ctx.constant[const_names[i]]
                             if mode == _MODE_CONSTANT
                             else stack_bufs["dense_stack"][stack_pos[i]])
                    clipped = np.clip(ev, 0, table.size - 1)
                    losses = np.where(ev < table.size, table[clipped], 0.0)
                retained = np.clip(losses - occ_ret[i], 0.0, occ_lim[i])
                if acc is not None:
                    np.add.at(acc[i], tr - tmin, retained)
                else:
                    # Fallback: per-occurrence accumulation into global
                    # memory (the analogue of global atomics).
                    np.add.at(annual[i], tr, retained)
            if acc is not None:
                annual[:, tmin:tmin + span] += acc

        return Kernel("portfolio_stack", body)

    def _make_agg_kernel(self, agg_ret, agg_lim, share) -> Kernel:
        def body(ctx, annual):
            s = ctx.rows()
            block = annual[:, s]
            np.clip(block - agg_ret[:, None], 0.0, agg_lim[:, None], out=block)
            block *= share[:, None]

        return Kernel("aggregate_terms", body)

    # -- placement -----------------------------------------------------------

    def _store_meta(self, kernel: PortfolioKernel, row: int):
        """``(key, kind, bytes)`` of the stored lookup behind one row."""
        if row < kernel.n_dense:
            store = int(kernel.dense_source[row])
            width = _effective_width(kernel.dense_stack[store])
            return ("dense", store), "dense", width * 8
        seg = int(kernel.sparse_source[row - kernel.n_dense])
        lo = int(kernel.sparse_offsets[seg])
        hi = int(kernel.sparse_offsets[seg + 1])
        return ("sparse", seg), "sparse", (hi - lo) * 16

    # -- run -----------------------------------------------------------------

    def run(self, portfolio: Portfolio, yet: YetTable, *,
            emit_yelt: bool = False) -> EngineResult:
        self._validate(portfolio, yet)
        t0 = time.perf_counter()
        gpu = self.gpu
        h2d0, d2h0 = gpu.transfers.h2d_bytes, gpu.transfers.d2h_bytes
        launches0 = len(gpu.launch_log)

        trials = yet.trials
        event_ids = yet.event_ids
        n_rows = yet.n_occurrences
        n_trials = yet.n_trials

        kernel = portfolio.kernel()

        ylt_by_layer: dict[int, YltTable] = {}
        yelt_by_layer: dict[int, YeltTable] | None = {} if emit_yelt else None
        layer_details = {}

        store_meta = [self._store_meta(kernel, row)
                      for row in range(kernel.n_layers)]

        # Partition kernel rows into resident batches: a batch's
        # worst-case footprint (every distinct stored lookup counted once
        # even if spilled to global, plus one annual row per kernel row)
        # may claim at most half the global budget, leaving the rest for
        # the streamed YET chunk.  Small portfolios form one batch (fully
        # fused); a portfolio too big to co-reside degrades gracefully to
        # one YET pass per batch instead of failing mid-upload.
        resident_cap = max(self.planner.budget_bytes // 2, 1)
        batches: list[list[int]] = [[]]
        batch_bytes = 0
        seen_stores: set = set()
        for row in range(kernel.n_layers):
            key, _, store_bytes = store_meta[row]
            need = (0 if key in seen_stores else store_bytes) + n_trials * 8
            if batches[-1] and batch_bytes + need > resident_cap:
                batches.append([])
                batch_bytes = 0
                seen_stores = set()
            batches[-1].append(row)
            batch_bytes += (0 if key in seen_stores else store_bytes)
            batch_bytes += n_trials * 8
            seen_stores.add(key)

        n_chunks_total = 0
        stack_uploads = 0
        sparse_stack_uploads = 0
        yet_uploads = 0
        for batch in batches:
            gpu.reset()
            n_batch = len(batch)

            # Greedy constant packing over the batch's distinct dense
            # stores: score = referencing rows × effective bytes, highest
            # first — the most-hit bytes earn the broadcast-cached bank.
            refs: dict = {}
            for row in batch:
                key, _, store_bytes = store_meta[row]
                hits, _ = refs.get(key, (0, store_bytes))
                refs[key] = (hits + 1, store_bytes)
            dense_keys = [k for k in refs if k[0] == "dense"]
            constant_stores: set[int] = set()
            if self.use_constant:
                free = gpu.properties.constant_mem_bytes
                for key in sorted(
                        dense_keys,
                        key=lambda k: (-refs[k][0] * refs[k][1], k[1])):
                    if refs[key][1] <= free:
                        constant_stores.add(key[1])
                        free -= refs[key][1]

            # One stacked global upload for the spilled dense stores,
            # trimmed to the widest effective table among them; one CSR
            # pair for the batch's sparse segments.
            stack_stores = sorted(
                k[1] for k in dense_keys if k[1] not in constant_stores
            )
            stack_of = {u: i for i, u in enumerate(stack_stores)}
            sparse_segs = sorted(k[1] for k in refs if k[0] == "sparse")
            global_resident = n_batch * n_trials * 8
            stack_bufs: dict[str, str] = {}
            if stack_stores:
                width = max(
                    _effective_width(kernel.dense_stack[u])
                    for u in stack_stores
                )
                dense_stack = np.zeros((len(stack_stores), width))
                for i, u in enumerate(stack_stores):
                    w = _effective_width(kernel.dense_stack[u])
                    dense_stack[i, :w] = kernel.dense_stack[u, :w]
                gpu.upload("dense_stack", dense_stack)
                stack_bufs["dense_stack"] = "dense_stack"
                stack_uploads += 1
                global_resident += dense_stack.nbytes
            seg_base: dict[int, int] = {}
            if sparse_segs:
                ids_parts, val_parts, at = [], [], 0
                for seg in sparse_segs:
                    lo = int(kernel.sparse_offsets[seg])
                    hi = int(kernel.sparse_offsets[seg + 1])
                    seg_base[seg] = at
                    ids_parts.append(kernel.sparse_ids[lo:hi])
                    val_parts.append(kernel.sparse_values[lo:hi])
                    at += hi - lo
                gpu.upload("sparse_ids", np.concatenate(ids_parts))
                gpu.upload("sparse_values", np.concatenate(val_parts))
                stack_bufs["sparse_ids"] = "sparse_ids"
                stack_bufs["sparse_values"] = "sparse_values"
                sparse_stack_uploads += 1
                global_resident += at * 16

            plan = self.planner.plan(
                n_rows=n_rows,
                row_bytes=_YET_ROW_BYTES,
                lookup_bytes=0,  # placement already decided above
                resident_bytes=global_resident,
                shared_bytes_per_row=8,
                max_rows_per_chunk=self.max_rows_per_chunk,
            )

            # Stage: constant uploads (once per store, however many rows
            # read it) + the stacked annual matrix, then resolve each
            # row's in-kernel lookup coordinates.
            uploaded_const: set[int] = set()
            modes = np.empty(n_batch, dtype=np.int64)
            stack_pos = np.zeros(n_batch, dtype=np.int64)
            const_names: list[str | None] = [None] * n_batch
            seg_bounds: list[tuple[int, int] | None] = [None] * n_batch
            for i, row in enumerate(batch):
                key, kind, _ = store_meta[row]
                if kind == "dense":
                    store = key[1]
                    if store in constant_stores:
                        modes[i] = _MODE_CONSTANT
                        const_names[i] = f"const_table_{store}"
                        if store not in uploaded_const:
                            w = _effective_width(kernel.dense_stack[store])
                            gpu.upload_constant(
                                f"const_table_{store}",
                                kernel.dense_stack[store, :w],
                            )
                            uploaded_const.add(store)
                    else:
                        modes[i] = _MODE_STACK
                        stack_pos[i] = stack_of[store]
                else:
                    seg = key[1]
                    lo = int(kernel.sparse_offsets[seg])
                    hi = int(kernel.sparse_offsets[seg + 1])
                    base = seg_base[seg]
                    modes[i] = _MODE_SPARSE
                    seg_bounds[i] = (base, base + (hi - lo))
            gpu.alloc("annual_stack", (n_batch, n_trials), np.float64)

            rows_idx = np.asarray(batch, dtype=np.int64)
            batch_kernel = self._make_batch_kernel(
                occ_ret=kernel.occ_retention[rows_idx],
                occ_lim=kernel.occ_limit[rows_idx],
                modes=modes,
                const_names=const_names,
                stack_pos=stack_pos,
                seg_bounds=seg_bounds,
                use_shared=self.use_shared,
            )

            # Fused streaming: each YET chunk is uploaded once and ONE
            # stacked launch prices every batch row against it before the
            # next chunk replaces it — H2D traffic is one YET pass and
            # one launch per chunk for the whole batch, instead of one
            # per layer.
            start = 0
            chunk_index = 0
            while start < n_rows:
                stop = min(start + plan.rows_per_chunk, n_rows)
                gpu.upload("trial_chunk", trials[start:stop])
                gpu.upload("event_chunk", event_ids[start:stop])
                yet_uploads += 1
                gpu.launch(
                    batch_kernel,
                    stop - start,
                    rows_per_block=plan.rows_per_block,
                    trial="trial_chunk",
                    event="event_chunk",
                    annual="annual_stack",
                    **stack_bufs,
                )
                gpu.free("trial_chunk")
                gpu.free("event_chunk")
                start = stop
                chunk_index += 1
            n_chunks_total += chunk_index

            agg_kernel = self._make_agg_kernel(
                kernel.agg_retention[rows_idx],
                kernel.agg_limit[rows_idx],
                kernel.participation[rows_idx],
            )
            gpu.launch(agg_kernel, n_trials,
                       rows_per_block=plan.rows_per_block,
                       annual="annual_stack")
            annual = gpu.download("annual_stack")

            for i, row in enumerate(batch):
                lid = kernel.layer_ids[row]
                key, kind, store_bytes = store_meta[row]
                ylt_by_layer[lid] = YltTable(annual[i])
                layer_details[lid] = {
                    "n_chunks": chunk_index,
                    "rows_per_chunk": plan.rows_per_chunk,
                    "rows_per_block": plan.rows_per_block,
                    "lookup_in_constant": bool(
                        kind == "dense" and key[1] in constant_stores
                    ),
                    "lookup_kind": kind,
                    "lookup_bytes": store_bytes,
                }

                if emit_yelt:
                    # The YELT is a host-side artefact; regenerate it with
                    # the same arithmetic (device memory could not hold it
                    # anyway, which is §II's point about YELT-level
                    # analysis).
                    yelt_by_layer[lid] = emit_yelt_row(kernel, row, yet)

        portfolio_ylt = YltTable.sum(list(ylt_by_layer.values()))
        return EngineResult(
            engine=self.name,
            ylt_by_layer=ylt_by_layer,
            portfolio_ylt=portfolio_ylt,
            yelt_by_layer=yelt_by_layer,
            seconds=time.perf_counter() - t0,
            details={
                "layers": layer_details,
                "n_batches": len(batches),
                "n_chunks_total": n_chunks_total,
                "stack_uploads": stack_uploads,
                "sparse_stack_uploads": sparse_stack_uploads,
                "yet_uploads": yet_uploads,
                "h2d_bytes": gpu.transfers.h2d_bytes - h2d0,
                "d2h_bytes": gpu.transfers.d2h_bytes - d2h0,
                "launches": len(gpu.launch_log) - launches0,
            },
        )
