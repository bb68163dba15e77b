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
            :mod:`~repro.core.engines.host`, on an inline dispatcher),
            over a YET in memory or on disk (the out-of-core path)
device      the paper's optimised GPU, planned on
            :class:`~repro.hpc.device.DeviceProperties` (resident batches,
            constant-memory lookup packing, shared-memory tiles): the same
            driver, each whole-trial YET chunk one inline dispatcher run
multicore   trial-block decomposition over a process pool: the same
            driver riding a :class:`~repro.serve.dispatch.PooledDispatcher`
            it does not own (a session's), the one pooled execution path
mapreduce   a MapReduce job over the simulated DFS (large file space
            path): one fused sweep per whole-trial split, the same
            driver's map tasks on an inline dispatcher
========== ===============================================================

The portfolio hot path is the shared
:class:`~repro.core.kernels.PortfolioKernel`: the layers' lookups (one
per book, its sorted ``(event, loss)`` entries —
:meth:`Layer.lookup <repro.core.layer.Layer.lookup>`) are stored once
per portfolio (:meth:`Portfolio.kernel()
<repro.core.portfolio.Portfolio.kernel>`) — each unique book once,
concatenated, with one row → book index — and the terms as ``(L,)``
vectors.  Lane rows price **on the table, not the
stream**: occurrence terms are applied once per table entry into a
per-row net table, and a sweep is, per row, one gather from it into a
reused row buffer plus one ``np.add.reduceat`` over whole-trial
segments.  A
trial span's segments are derived once per ``YetTable`` (once per worker
for an attached copy) and handed to the sweep by every engine that
holds a YET; raw ``(trial, event)`` columns derive them per call, after one
stable sort if unsorted.  Bit-identity rule: a sweep takes a block of
whole trials and nothing else, so lane rows give ``np.array_equal``
answers whole-YET, blocked, pooled, degraded-serial or out-of-core.
Same-book layer groups whose occurrence terms reduce to
``clip(g, lo, hi)`` — the shifted-clip identity, which applies to
these groups only — price **without the stream**: off a per-(span, book)
profile of the book's sorted positive losses per trial, kept by the
trial span the ``YetTable`` keeps and built once per book over the
span's rows (once per span per worker for an attached copy), one
counting pass per group — see the routing rule and the
counted lane fallbacks in :mod:`repro.core.kernels`.  Rows that don't
qualify take the lane path in the same sweep, and a profile answer is
a function of the trial and the row alone, so the bit-identity rule
covers tail rows too.
The vectorized, multicore, mapreduce and device engines are one driver
(:class:`~repro.core.engines.host.HostEngine`): ``portfolio.kernel()``
→ ``dispatcher.run(kernel, yet)`` → per-layer YLTs, one ``details``
schema read off the dispatcher.  An engine owns no dispatcher: under
``RiskSession.engine`` it rides the session's own, the one its quote
batches ride; built alone, it sweeps on an inline dispatcher it makes
on first use, which holds no process or segment (``multicore`` runs
only riding a pool).  Every engine emits YELTs on request, host-side.
``mapreduce``'s map tasks are runs of its inline dispatcher over the
whole-trial splits of a YET written to the DFS; ``device``'s are runs
of its inline dispatcher over the whole-trial chunks its device plan
cuts — the plan
(resident batches, one stacked table upload plus one pair upload per
batch, a constant bank packed greedily by hit-frequency × size, each
book placed by its id range) is
drawn from the kernel's metadata before anything runs, and its
transfer counts are arithmetic.  ``vectorized`` over a YET on disk
(:class:`~repro.core.tables.StoredYet`, a block per whole-trial chunk)
is the same code, inline, so every sweep, in memory, in a DFS block, in
a device chunk or off disk, is the dispatchers' one block task.
The sequential engine
deliberately stays scalar: it is the baseline the paper's speedups are
measured against.

Numerical equivalence across all five is an invariant tested cell by
cell in ``tests/test_equivalence_matrix.py``: the host driver's four
are ``np.array_equal`` to one another, and ``sequential`` agrees within
a tolerance.  Their relative wall-clock behaviour is experiments E3-E5
and E7 and, for the fused sweep and the same-book tail-group path, the
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
    available_engines,
    engine_class,
    get_engine,
)
from repro.core.engines.sequential import SequentialEngine
from repro.core.engines.host import MulticoreEngine, VectorizedEngine
from repro.core.engines.device import DeviceEngine
from repro.core.engines.mapreduce_engine import MapReduceEngine

__all__ = [
    "Engine",
    "EngineResult",
    "SequentialEngine",
    "VectorizedEngine",
    "DeviceEngine",
    "MulticoreEngine",
    "MapReduceEngine",
    "available_engines",
    "engine_class",
    "get_engine",
]
