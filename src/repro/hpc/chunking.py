"""Chunk planning against device memory capacities.

"The management of large data in memory employs the notion of chunking,
which is utilising shared and constant memory as much as possible" (§II).
The planner answers the two sizing questions a CUDA implementation of
aggregate analysis must answer before any kernel runs:

1. *Global chunking*: how many rows of the YET fit in global memory at
   once beside the resident state (per-trial outputs, lookups in global
   memory)?  The input is streamed through the device in chunks of that
   size.
2. *Shared tiling*: how many rows does one block's shared-memory
   accumulator hold?

Which lookups earn constant memory is the caller's decision
(:mod:`repro.core.engines.device` packs them greedily); what it leaves in
global memory arrives here as ``resident_bytes``.  The plan is pure
arithmetic over the schema row widths, so it is exact and testable
independently of execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapacityError, ConfigurationError
from repro.hpc.device import DeviceProperties

__all__ = ["DeviceChunkPlan", "ChunkPlanner"]


@dataclass(frozen=True)
class DeviceChunkPlan:
    """Result of planning one workload onto one device.

    Attributes
    ----------
    rows_per_chunk:
        YET rows resident on-device per streaming step.
    n_chunks:
        Number of streaming steps to cover the workload.
    rows_per_block:
        Rows handled per kernel block (bounded by shared-memory budget).
    resident_bytes:
        Global-memory bytes occupied at the peak of one step.
    """

    rows_per_chunk: int
    n_chunks: int
    rows_per_block: int
    resident_bytes: int


class ChunkPlanner:
    """Plans chunk sizes for streaming a rowset through a device.

    Parameters
    ----------
    properties:
        Capabilities of the target device.
    global_budget_fraction:
        Fraction of global memory the plan may occupy (leaving headroom for
        the CUDA context/driver, as real codes must).
    """

    def __init__(self, properties: DeviceProperties,
                 global_budget_fraction: float = 0.9) -> None:
        if not (0.0 < global_budget_fraction <= 1.0):
            raise ConfigurationError(
                f"global_budget_fraction must lie in (0, 1], got {global_budget_fraction}"
            )
        self.properties = properties
        self.global_budget_fraction = global_budget_fraction

    @property
    def budget_bytes(self) -> int:
        """Global-memory bytes the plan may occupy."""
        return int(self.properties.global_mem_bytes * self.global_budget_fraction)

    def plan(
        self,
        n_rows: int,
        row_bytes: int,
        shared_bytes_per_row: int = 8,
        max_rows_per_chunk: int | None = None,
        resident_bytes: int = 0,
    ) -> DeviceChunkPlan:
        """Plan streaming ``n_rows`` of ``row_bytes`` each.

        ``shared_bytes_per_row`` is the per-row shared-memory need of the
        kernel (e.g. one f8 accumulator per in-flight trial).
        ``resident_bytes`` is global-resident state beside the streamed
        rows (output accumulators, lookups the caller has placed in
        global memory).
        """
        if n_rows < 0:
            raise ConfigurationError(f"n_rows must be non-negative, got {n_rows}")
        if row_bytes <= 0:
            raise ConfigurationError(f"row_bytes must be positive, got {row_bytes}")
        if resident_bytes < 0:
            raise ConfigurationError(f"resident_bytes must be non-negative, got {resident_bytes}")

        budget = self.budget_bytes
        global_for_rows = budget - resident_bytes
        if global_for_rows < row_bytes:
            raise CapacityError(
                f"device global budget {budget} B cannot hold resident state "
                f"({resident_bytes} B) plus one {row_bytes} B row"
            )
        rows_per_chunk = global_for_rows // row_bytes
        if max_rows_per_chunk is not None:
            if max_rows_per_chunk <= 0:
                raise ConfigurationError("max_rows_per_chunk must be positive")
            rows_per_chunk = min(rows_per_chunk, max_rows_per_chunk)
        rows_per_chunk = min(rows_per_chunk, n_rows) if n_rows else rows_per_chunk

        if shared_bytes_per_row <= 0:
            raise ConfigurationError("shared_bytes_per_row must be positive")
        rows_per_block = min(
            self.properties.shared_mem_per_block_bytes // shared_bytes_per_row,
            max(rows_per_chunk, 1),
        )
        if rows_per_block == 0:
            raise CapacityError(
                f"one row needs {shared_bytes_per_row} B shared memory but the "
                f"block limit is {self.properties.shared_mem_per_block_bytes} B"
            )

        n_chunks = 0 if n_rows == 0 else -(-n_rows // rows_per_chunk)
        return DeviceChunkPlan(
            rows_per_chunk=rows_per_chunk,
            n_chunks=n_chunks,
            rows_per_block=rows_per_block,
            resident_bytes=rows_per_chunk * row_bytes + resident_bytes,
        )
