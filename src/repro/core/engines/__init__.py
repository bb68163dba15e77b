"""The aggregate-analysis engine family.

Six engines execute the identical analysis (same YET, same portfolio,
same financial arithmetic) on different execution substrates:

========== ===============================================================
name        substrate
========== ===============================================================
sequential  pure-Python scalar loop — the paper's "sequential counterpart"
            and the numerical oracle every other engine is tested against
vectorized  whole-array NumPy over the fused portfolio kernel — the
            data-parallel, global-memory-only model
device      :class:`~repro.hpc.device.SimulatedGpu` with chunking and
            constant-memory lookup placement — the paper's optimised GPU;
            each YET chunk is uploaded once and consumed by every layer
multicore   trial-block decomposition over a process pool: a driver of
            :class:`~repro.serve.dispatch.PooledDispatcher` (a private
            one, or the session's), the one pooled execution path
mapreduce   a MapReduce job over the simulated DFS (large file space path)
distributed trial-scatter / lookup-broadcast / YLT-gather over SimCluster
========== ===============================================================

The portfolio hot path is the shared
:class:`~repro.core.kernels.PortfolioKernel`: per-layer lookups are
stacked once per (portfolio, ``dense_max_entries``) — dense layers as
one ``(D, width)`` matrix, sparse layers as a unified CSR structure,
terms as ``(L,)`` vectors.  Lane rows price **on the table, not the
stream**: occurrence terms are applied once per table entry into a
per-row net table, and a sweep is, per row, one gather from it into a
reused row buffer plus one ``np.add.reduceat`` over whole-trial
segments.  The
segments are derived once per ``YetTable`` (once per worker for an
attached copy) and handed to the sweep by every driver that holds a
YET; raw ``(trial, event)`` columns derive them per call, after one
stable sort if unsorted.  Bit-identity rule: a sweep takes a block of
whole trials and nothing else, so lane rows give ``np.array_equal``
answers whole-YET, blocked, pooled, degraded-serial or out-of-core.
Same-book layer groups whose occurrence terms reduce to
``clip(g, lo, hi)`` — the shifted-clip identity, which applies to
these groups only — price **without the stream**: off a per-(YET, book)
profile of the book's sorted positive losses per trial, kept by the
``YetTable`` and built once per book (once per worker for an attached
copy), two searches per (row, trial) — see the routing rule and the
counted lane fallbacks in :mod:`repro.core.kernels`.  Rows that don't
qualify take the lane path in the same sweep, and a profile answer is
a function of the trial and the row alone, so the bit-identity rule
covers tail rows too.
The vectorized, multicore, and
out-of-core engines are thin drivers of that sweep (whole-array,
per-trial-block through the pooled dispatcher, and per block of the
whole trials a stored chunk completes, respectively); the device engine
mirrors the same fusion on the simulated GPU — per resident batch it
ships ONE stacked ``dense_stack`` upload (row offsets resolved
in-kernel) plus one CSR pair, packs the constant bank greedily by
hit-frequency × size, and launches one stacked kernel per YET chunk.
The sequential engine
deliberately stays scalar: it is the baseline the paper's speedups are
measured against.

Numerical equivalence across all six is a tested invariant; their
relative wall-clock behaviour is experiments E3-E5, E7, E13 (the
fused-vs-per-layer sweep), and E18 (the same-book tail-group path).

``engine="auto"`` resolution: the planner prices the vectorized,
multicore, device, and distributed specs below through the HPC cost
model.  The simulated substrates carry deliberately conservative seed
rates (:mod:`repro.hpc.cost_model` named constants) plus a per-run
payload-transfer charge, so auto only routes real work onto them after
a measured run has calibrated them faster than the host engines.
"""

from repro.core.engines.base import Engine, EngineResult
from repro.core.engines.registry import (
    EngineSpec,
    auto_candidates,
    available_engines,
    engine_spec,
    get_engine,
    register_engine,
)
from repro.core.engines.sequential import SequentialEngine
from repro.core.engines.vectorized import VectorizedEngine
from repro.core.engines.device import DeviceEngine
from repro.core.engines.multicore import MulticoreEngine
from repro.core.engines.mapreduce_engine import MapReduceEngine
from repro.core.engines.distributed import DistributedEngine
from repro.errors import EngineError
from repro.hpc.cost_model import (
    CLUSTER_LINK_BYTES_PER_S,
    DEVICE_H2D_BYTES_PER_S,
    DEVICE_SEED_LANES_PER_S,
    DISTRIBUTED_SEED_LANES_PER_S,
)

__all__ = [
    "Engine",
    "EngineResult",
    "EngineSpec",
    "SequentialEngine",
    "VectorizedEngine",
    "DeviceEngine",
    "MulticoreEngine",
    "MapReduceEngine",
    "DistributedEngine",
    "auto_candidates",
    "available_engines",
    "engine_spec",
    "get_engine",
    "register_engine",
]

# The declarative registry (see :mod:`repro.core.engines.registry`):
# one capability record per engine, read by ``get_engine`` (factory),
# the session (stateful / emit_yelt gates), and the planner (cost-model
# hooks that resolve ``engine="auto"``).  Throughput seeds are
# order-of-magnitude priors; the planner replaces them with measured
# rates after the first observed run.
register_engine(EngineSpec(
    name="sequential", factory=SequentialEngine,
    summary="pure-Python scalar loop — the paper's sequential counterpart "
            "and the numerical oracle",
    parallelism="serial", supports_emit_yelt=True,
    lane_throughput=3e5,
))
register_engine(EngineSpec(
    name="vectorized", factory=VectorizedEngine,
    summary="whole-array NumPy over the fused portfolio kernel",
    parallelism="vector", supports_emit_yelt=True, auto_candidate=True,
    lane_throughput=2.5e7,
))
register_engine(EngineSpec(
    name="device", factory=DeviceEngine,
    summary="simulated GPU: stacked-kernel batches, greedy constant packing",
    parallelism="simulated-device", supports_emit_yelt=True,
    auto_candidate=True,
    # Conservative seed (below the vectorized host rate): auto picks the
    # device only after a measured run calibrates it faster.  Every run
    # pays the YET's H2D shipment — a warm session never waives a bus.
    lane_throughput=DEVICE_SEED_LANES_PER_S,
    startup_seconds=0.02,
    payload_row_bytes=16.0, transfer_bandwidth_bps=DEVICE_H2D_BYTES_PER_S,
))
register_engine(EngineSpec(
    name="multicore", factory=MulticoreEngine,
    summary="trial-block process pool over the zero-copy shm data plane",
    parallelism="process-pool", stateful=True, shm_transport=True,
    auto_candidate=True,
    lane_throughput=2.2e7, parallel_fraction=0.92,
    comm_overhead_per_proc_s=0.01, startup_seconds=0.35,
))
register_engine(EngineSpec(
    name="mapreduce", factory=MapReduceEngine,
    summary="MapReduce job over the simulated DFS",
    parallelism="simulated-mapreduce",
    lane_throughput=2e6,
))
register_engine(EngineSpec(
    name="distributed", factory=DistributedEngine,
    summary="trial-scatter / lookup-broadcast / YLT-gather over SimCluster",
    parallelism="simulated-cluster",
    auto_candidate=True,
    # Priced at the engine's default 8-node cluster; the scatter crosses
    # the interconnect every run, charged like the device's H2D upload.
    lane_throughput=DISTRIBUTED_SEED_LANES_PER_S,
    parallel_fraction=0.9, comm_overhead_per_proc_s=0.02,
    startup_seconds=0.15, fixed_procs=8,
    payload_row_bytes=16.0, transfer_bandwidth_bps=CLUSTER_LINK_BYTES_PER_S,
))
