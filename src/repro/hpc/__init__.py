"""HPC substrate: simulated many-core device, process pool, and cost model.

The paper's first strategy for the pipeline's data challenge is
*"accumulation of large memory ... the use of many-core GPUs"* with
chunking into shared and constant memory (§II).  No GPU is assumed here:
:class:`repro.hpc.device.DeviceProperties` names a device's memory
capacities and :class:`repro.hpc.chunking.ChunkPlanner` sizes chunks and
tiles against them — the plan the ``device`` engine draws before its
whole-trial chunks run as the host engines' fused sweep.  This
preserves what the paper's claims are about (capacity-driven chunking
and placement) without CUDA; :mod:`repro.hpc.device` states what the
model keeps and what it leaves out.

The "thousands of processors" stages are priced by an analytic cost
model (:mod:`repro.hpc.cost_model`), which the burst / elasticity
analysis (experiment E9) reads; no cluster is simulated.

The *real* (not simulated) parallel substrate is :mod:`repro.hpc.pool`
plus the zero-copy shared-memory data plane of :mod:`repro.hpc.shm`:
large read-only payloads (the YET, stacked kernels) live in
``multiprocessing.shared_memory`` segments and cross process boundaries
as ~100-byte handles instead of pickled replicas — the one transport;
a host without shared memory runs pooled work in process as a counted
degraded fallback.  The pool runs every task it is given on its workers
(the pooled dispatcher decides which runs stay in process), each forked
by a small template process that ``import repro`` forks before any input
exists, so no worker shares the caller's heap; and it *supervises* them:
a per-call deadline and the pool's own retry constants resubmit lost
work idempotently,
:class:`~repro.hpc.pool.PoolHealth` records deaths/timeouts/degradation,
and :mod:`repro.hpc.faults` injects deterministic failures for chaos
testing.
"""

from repro.hpc.faults import FaultEvent, FaultPlan, FaultSpec
from repro.hpc.pool import PoolHealth, WorkPool
from repro.hpc.shm import SharedArena, ShmArrayHandle, ShmSlab, shm_available
from repro.hpc.device import DeviceProperties
from repro.hpc.chunking import ChunkPlanner, DeviceChunkPlan
from repro.hpc.cost_model import PipelineCostModel, StageSpec
from repro.hpc.elasticity import DemandPhase, ProvisioningPlan, compare_provisioning

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "PoolHealth",
    "WorkPool",
    "SharedArena",
    "ShmArrayHandle",
    "ShmSlab",
    "shm_available",
    "DeviceProperties",
    "ChunkPlanner",
    "DeviceChunkPlan",
    "PipelineCostModel",
    "StageSpec",
    "DemandPhase",
    "ProvisioningPlan",
    "compare_provisioning",
]
