"""The simulated many-core GPU.

:class:`SimulatedGpu` is the library's stand-in for the paper's many-core
GPU (§II: *"methods for accumulating large shared memory includes the use
of many-core GPUs ... utilising shared and constant memory as much as
possible"*).  It is a *model with teeth*: the three memory spaces have
hard capacities (Fermi-class defaults: 3 GiB global, 48 KiB shared per
block, 64 KiB constant), uploads are accounted through a transfer ledger,
and kernels run block-by-block under those constraints.  What it does not
model is cycle-level timing — execution speed is whatever vectorised
NumPy achieves; the paper's claims are about capacities and chunking,
which it does model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import DEFAULTS, ReproConfig
from repro.errors import CapacityError, DeviceError
from repro.hpc.kernel import Kernel, LaunchStats
from repro.hpc.memory import MemorySpace, TransferLedger

__all__ = ["DeviceProperties", "SimulatedGpu"]


@dataclass(frozen=True)
class DeviceProperties:
    """Static capabilities of a simulated device."""

    name: str = "SimGPU (Fermi-class model)"
    global_mem_bytes: int = DEFAULTS.device_global_mem_bytes
    shared_mem_per_block_bytes: int = DEFAULTS.device_shared_mem_bytes
    constant_mem_bytes: int = DEFAULTS.device_constant_mem_bytes
    num_sms: int = DEFAULTS.device_num_sms
    threads_per_block: int = DEFAULTS.device_threads_per_block

    @classmethod
    def from_config(cls, config: ReproConfig) -> "DeviceProperties":
        return cls(
            global_mem_bytes=config.device_global_mem_bytes,
            shared_mem_per_block_bytes=config.device_shared_mem_bytes,
            constant_mem_bytes=config.device_constant_mem_bytes,
            num_sms=config.device_num_sms,
            threads_per_block=config.device_threads_per_block,
        )


class SimulatedGpu:
    """A capacity-faithful software model of a CUDA-era GPU.

    Use :meth:`upload` / :meth:`upload_constant` to move host arrays into
    the device's global / constant spaces, :meth:`launch` to run a
    :class:`~repro.hpc.kernel.Kernel` over resident buffers, and
    :meth:`download` to read results back.  All movement is tallied in
    :attr:`transfers`.
    """

    def __init__(self, properties: DeviceProperties | None = None) -> None:
        self.properties = properties or DeviceProperties()
        self.global_mem = MemorySpace("global", self.properties.global_mem_bytes)
        self.constant_mem = MemorySpace("constant", self.properties.constant_mem_bytes)
        self.transfers = TransferLedger()
        self.launch_log: list[LaunchStats] = []

    # -- data movement -----------------------------------------------------

    def upload(self, name: str, array: np.ndarray) -> np.ndarray:
        """Copy a host array into global memory."""
        data = self.global_mem.put(name, array, copy=True)
        self.transfers.record_h2d(data.nbytes)
        return data

    def alloc(self, name: str, shape, dtype) -> np.ndarray:
        """Allocate an uninitialised (zeroed) global buffer — no transfer."""
        return self.global_mem.alloc(name, shape, dtype)

    def upload_constant(self, name: str, array: np.ndarray) -> np.ndarray:
        """Copy a small lookup table into constant memory.

        Raises :class:`~repro.errors.CapacityError` if the table exceeds
        the 64 KiB-class constant space — callers fall back to a
        global-memory layout, which is precisely the optimisation choice
        the chunking experiment (E5) measures.
        """
        data = self.constant_mem.put(name, array, copy=True)
        self.transfers.record_h2d(data.nbytes)
        return data

    def download(self, name: str) -> np.ndarray:
        """Copy a global buffer back to the host."""
        data = self.global_mem.get(name)
        self.transfers.record_d2h(data.nbytes)
        return data.copy()

    def free(self, name: str) -> None:
        self.global_mem.free(name)

    def reset(self) -> None:
        """Free everything (as between benchmark repetitions)."""
        self.global_mem.free_all()
        self.constant_mem.free_all()

    # -- execution -----------------------------------------------------------

    def launch(self, kernel: Kernel, n_rows: int,
               rows_per_block: int | None = None, **buffer_names: str) -> LaunchStats:
        """Launch ``kernel`` over resident buffers.

        ``buffer_names`` maps kernel parameter names to the names of
        buffers previously uploaded/allocated on this device; passing raw
        arrays is rejected to keep the host/device boundary explicit.
        """
        buffers = {}
        for param, buf_name in buffer_names.items():
            if not isinstance(buf_name, str):
                raise DeviceError(
                    f"kernel parameter {param!r} must name a device buffer; "
                    "upload host arrays first"
                )
            buffers[param] = self.global_mem.get(buf_name)
        rpb = (self.properties.threads_per_block if rows_per_block is None
               else rows_per_block)
        stats = kernel.launch(
            n_rows,
            rpb,
            self.properties.shared_mem_per_block_bytes,
            constant=_ConstantView(self.constant_mem),
            **buffers,
        )
        self.launch_log.append(stats)
        return stats

    def fits_constant(self, nbytes: int) -> bool:
        """Would an ``nbytes`` allocation fit in free constant memory?"""
        return nbytes <= self.constant_mem.free_bytes


class _ConstantView:
    """Read-only mapping view over the constant memory space."""

    def __init__(self, space: MemorySpace) -> None:
        self._space = space

    def __getitem__(self, name: str) -> np.ndarray:
        arr = self._space.get(name)
        view = arr.view()
        view.flags.writeable = False
        return view

    def __contains__(self, name: str) -> bool:
        return name in self._space
