"""The simulated many-core GPU's capabilities.

:class:`DeviceProperties` is the library's stand-in for the paper's
many-core GPU (§II: *"methods for accumulating large shared memory
includes the use of many-core GPUs ... utilising shared and constant
memory as much as possible"*): the capacities of its three memory
spaces (Fermi-class defaults: 3 GiB global, 48 KiB shared per block,
64 KiB constant).  The :class:`~repro.hpc.chunking.ChunkPlanner` and
the ``device`` engine (:mod:`repro.core.engines.device`) plan chunks,
tiles and lookup placement against them; the arithmetic itself runs as
the host engines' fused sweep.  What it does not model is cycle-level
timing — the paper's claims are about capacities and chunking.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DeviceProperties"]


@dataclass(frozen=True)
class DeviceProperties:
    """Static capabilities of a simulated device."""

    name: str = "SimGPU (Fermi-class model)"
    global_mem_bytes: int = 3 * 1024**3
    shared_mem_per_block_bytes: int = 48 * 1024
    constant_mem_bytes: int = 64 * 1024
