"""Library-wide configuration defaults.

The values here mirror the hardware constants of the platform the paper's
companion study [7] reports on (an NVIDIA Tesla-class device) and the
defaults of the simulated DFS.  They are plain module-level constants
collected into a frozen dataclass so call sites can either use the shared
:data:`DEFAULTS` instance or construct a modified copy for experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ReproConfig:
    """Immutable bundle of library defaults.

    Attributes
    ----------
    default_seed:
        Root seed used when a caller does not provide one.  All randomness
        in the library flows through :class:`repro.util.rng.RngHierarchy`,
        so a fixed root seed makes every artefact reproducible.
    device_global_mem_bytes:
        Global-memory capacity of the simulated GPU (Tesla C2050-era: 3 GB).
    device_shared_mem_bytes:
        Per-block shared-memory capacity (48 KiB on Fermi).
    device_constant_mem_bytes:
        Constant-memory capacity (64 KiB on Fermi).
    dfs_block_bytes:
        Default DFS block size (64 MiB, the classic HDFS default).
    dfs_replication:
        Default DFS replication factor.
    """

    default_seed: int = 20120612
    device_global_mem_bytes: int = 3 * 1024**3
    device_shared_mem_bytes: int = 48 * 1024
    device_constant_mem_bytes: int = 64 * 1024
    dfs_block_bytes: int = 64 * 1024**2
    dfs_replication: int = 3

    def with_(self, **kwargs) -> "ReproConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Shared default configuration used across the library.
DEFAULTS = ReproConfig()
