"""The aggregate-analysis engine family.

Five engines execute the identical analysis (same YET, same portfolio,
same financial arithmetic) on different execution substrates:

========== ===============================================================
name        substrate
========== ===============================================================
sequential  pure-Python scalar loop — the paper's "sequential counterpart"
            and the numerical oracle every other engine is tested against
vectorized  whole-array NumPy over the fused portfolio kernel — the
            data-parallel, global-memory-only model (the host driver,
            :mod:`~repro.core.engines.host`, on an inline dispatcher)
device      :class:`~repro.hpc.device.SimulatedGpu` with chunking and
            constant-memory lookup placement — the paper's optimised GPU;
            each YET chunk is uploaded once and consumed by every layer
multicore   trial-block decomposition over a process pool: the same
            driver on :class:`~repro.serve.dispatch.PooledDispatcher`,
            the one pooled execution path
mapreduce   a MapReduce job over the simulated DFS (large file space
            path): one fused sweep per whole-trial split, the same
            driver's map tasks on an inline dispatcher
========== ===============================================================

The portfolio hot path is the shared
:class:`~repro.core.kernels.PortfolioKernel`: per-layer lookups are
stacked once per portfolio (:meth:`Portfolio.kernel()
<repro.core.portfolio.Portfolio.kernel>`, which with
:meth:`Layer.lookup <repro.core.layer.Layer.lookup>` is where a book's
dense-or-CSR threshold is decided) — dense layers as
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
copy), one counting pass per group — see the routing rule and the
counted lane fallbacks in :mod:`repro.core.kernels`.  Rows that don't
qualify take the lane path in the same sweep, and a profile answer is
a function of the trial and the row alone, so the bit-identity rule
covers tail rows too.
The vectorized, multicore and mapreduce engines are one driver
(:class:`~repro.core.engines.host.HostEngine`): ``portfolio.kernel()``
→ ``dispatcher.run(kernel, yet)`` → per-layer YLTs, one ``details``
schema read off the dispatcher — a private one (one whole-YET span
inline, one span per pool worker), or under ``RiskSession.engine`` the
session's own, the one its quote batches ride.  ``mapreduce``'s map
tasks are runs of its inline dispatcher over the whole-trial splits of
a YET written to the DFS.  The unregistered ``OutOfCoreEngine`` is the
same code, inline, over a YET on disk
(:class:`~repro.core.tables.StoredYet`), so every sweep, in memory, in
a DFS block or off disk, is the dispatchers' one block task.  The device engine
mirrors the same fusion on the simulated GPU — per resident batch it
ships ONE stacked ``dense_stack`` upload (row offsets resolved
in-kernel) plus one CSR pair, packs the constant bank greedily by
hit-frequency × size, and launches one stacked kernel per YET chunk.
The sequential engine
deliberately stays scalar: it is the baseline the paper's speedups are
measured against.

Numerical equivalence across all five is a tested invariant — the
host driver's three are ``np.array_equal`` to one another, ``sequential``
and ``device`` agree within a tolerance; their
relative wall-clock behaviour is experiments E3-E5 and E7, and, for
the fused sweep and the same-book tail-group path, the
``agg_lanes_inline`` and ``quotes_burst_churn`` workloads of
``benchmarks/e2e`` (``kernel.sweep_lanes_ms``, ``kernel.tail_speedup``).

``engine="auto"`` chooses between the two substrates that really
execute on the host — ``vectorized`` and ``multicore`` — from the one
table in :mod:`repro.session.planner`.  The other three stay registered,
constructible and runnable by name (the oracle, the simulated GPU of
E5, and E7's MapReduce job, whose DFS staging cannot win work).
"""

from repro.core.engines.base import Engine, EngineResult
from repro.core.engines.registry import (
    EngineSpec,
    available_engines,
    engine_spec,
    get_engine,
    register_engine,
)
from repro.core.engines.sequential import SequentialEngine
from repro.core.engines.host import MulticoreEngine, VectorizedEngine
from repro.core.engines.device import DeviceEngine
from repro.core.engines.mapreduce_engine import MapReduceEngine
from repro.errors import EngineError

__all__ = [
    "Engine",
    "EngineResult",
    "EngineSpec",
    "SequentialEngine",
    "VectorizedEngine",
    "DeviceEngine",
    "MulticoreEngine",
    "MapReduceEngine",
    "available_engines",
    "engine_spec",
    "get_engine",
    "register_engine",
]

# The declarative registry (see :mod:`repro.core.engines.registry`):
# one capability record per engine, read by ``get_engine`` (factory) and
# by the session and planner (the ``emit_yelt`` gate).
register_engine(EngineSpec(
    name="sequential", factory=SequentialEngine,
    summary="pure-Python scalar loop — the paper's sequential counterpart "
            "and the numerical oracle",
    supports_emit_yelt=True,
))
register_engine(EngineSpec(
    name="vectorized", factory=VectorizedEngine,
    summary="whole-array NumPy over the fused portfolio kernel",
    supports_emit_yelt=True,
))
register_engine(EngineSpec(
    name="device", factory=DeviceEngine,
    summary="simulated GPU: stacked-kernel batches, greedy constant packing",
    supports_emit_yelt=True,
))
register_engine(EngineSpec(
    name="multicore", factory=MulticoreEngine,
    summary="trial-block process pool over the zero-copy shm data plane",
))
register_engine(EngineSpec(
    name="mapreduce", factory=MapReduceEngine,
    summary="MapReduce job over the simulated DFS",
))
