"""Request broker and micro-batcher: N in-flight requests, one sweep.

The serving layer's central trade: coalesce the quote requests that are
waiting into one stacked :class:`~repro.core.kernels.PortfolioKernel`
and amortise the per-batch costs — stacking, dispatch, the quote
metrics — across the whole batch.  The fused-kernel measurements
(``serve.batch_ms.b1`` / ``.b32`` of the ``quotes_burst_churn``
benchmark workload) put a batch of L requests at a small multiple of
one request's cost, so coalescing converts concurrent load into
nearly-free extra kernel rows instead of N full sweeps.

Batches form from load, not from a timer (**natural batching**): the
broker takes whatever is queued, up to ``max_batch``, the moment it is
free.  An idle service therefore prices a lone request at once, and the
requests that arrive while a sweep runs are the next batch — the sweep
in flight *is* the window.  A stacked lane sweep is linear in its rows,
so below the saturation knee a timer would buy only latency; above it
the queue fills ``max_batch`` by itself.

When a flushed batch is the many-quotes-one-book shape (≥16 stacked
rows sharing one merged lookup, occurrence terms reducing to
``clip(g, lo, hi)``), the stacked kernel's sweep routes those rows
through the **sublinear tail-group path** automatically
(``kernel.tail_speedup`` on ``quotes_burst_churn``): they
price off the book's profile kept beside the YET, never the occurrence
stream — so a burst costs one profile build per (YET, book), ever,
plus one counting pass over the book's positive occurrences per batch,
whatever its row count.  Rows that don't qualify take exact lanes in
the same sweep (counted: ``kernel.fallback.*``); the
``serve.sublinear.batches`` / ``serve.sublinear.rows`` counters count
how often flushes qualified.

:class:`MicroBatcher` is deliberately generic: it queues opaque request
items against futures and hands batches to a ``flush_fn`` supplied by
the service.  It runs in two modes:

- **manual** — callers enqueue with :meth:`submit` and drive execution
  with :meth:`flush`/:meth:`drain`.  Deterministic; what the synchronous
  facade and the benchmarks use.
- **auto-flush** — :meth:`start` spawns a broker thread that prices
  batch after batch as described above.  What a many-user deployment
  runs.

The one rule of record for the broker: *wait until something is queued
(or the batcher is stopped), then take up to* ``max_batch`` *of it.*  No
timer is consulted; ``BatchPolicy.window_seconds`` is accepted and
ignored.

Failures in ``flush_fn`` propagate to every future in the failed batch;
the batcher itself stays usable.  Under the serving layer's failure
semantics that means a terminal pooled failure (a typed
:class:`~repro.errors.ExecutionError` after the supervised pool's
retries are exhausted) fails exactly the batch that hit it — later
batches run normally, degraded to inline execution if the pool has
given up (see :mod:`repro.serve.dispatch`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["BatchPolicy", "MicroBatcher", "Ticket"]


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing policy for the micro-batcher.

    Attributes
    ----------
    max_batch:
        Most requests fused into one kernel sweep.  Beyond ~64 rows the
        stacked loss matrix starts spilling cache (see
        ``DEFAULT_BLOCK_OCCURRENCES``), so bigger batches buy little.
    window_seconds:
        Unused: batches form from load, so nothing reads it.  The
        field keeps its name and positional slot only because callers
        (``benchmarks/e2e``) construct
        ``BatchPolicy(64, 0.002, auto_flush=True)``; it is validated
        non-negative and otherwise ignored.
    auto_flush:
        Start the broker thread (async mode) when the service is built;
        without it callers drive batches with ``flush()``/``drain()``
        (manual mode).
    """

    max_batch: int = 64
    window_seconds: float = 0.002
    auto_flush: bool = False

    def __post_init__(self):
        if self.max_batch <= 0:
            raise ConfigurationError("max_batch must be positive")
        if self.window_seconds < 0:
            raise ConfigurationError("window_seconds must be non-negative")


class Ticket:
    """Handle for one submitted request (a thin future wrapper)."""

    __slots__ = ("_future", "submitted_at", "cached")

    def __init__(self, future: Future, submitted_at: float,
                 cached: bool = False) -> None:
        self._future = future
        self.submitted_at = submitted_at
        self.cached = cached

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None):
        """Block until the batch containing this request has been priced."""
        return self._future.result(timeout=timeout)


class _Pending:
    __slots__ = ("item", "future", "enqueued_at")

    def __init__(self, item, future: Future, enqueued_at: float) -> None:
        self.item = item
        self.future = future
        self.enqueued_at = enqueued_at


class MicroBatcher:
    """Coalesces queued request items into batches for a flush function.

    Parameters
    ----------
    flush_fn:
        ``flush_fn(pendings) -> list[result]`` prices one batch; it
        receives the :class:`_Pending` entries (item + enqueue time) and
        must return one result per entry, in order.
    policy:
        The :class:`BatchPolicy` (batch cap, async mode).
    """

    def __init__(self, flush_fn, policy: BatchPolicy | None = None) -> None:
        self._flush_fn = flush_fn
        self.policy = policy or BatchPolicy()
        self._pending: list[_Pending] = []
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._in_flight = 0
        self._stop = False
        self._thread: threading.Thread | None = None

    # -- queueing ----------------------------------------------------------

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    def submit(self, item) -> Future:
        """Queue one request; returns the future its result will land on."""
        future: Future = Future()
        entry = _Pending(item, future, time.perf_counter())
        with self._wake:
            if self._stop:
                raise ConfigurationError("batcher is stopped")
            self._pending.append(entry)
            self._wake.notify_all()
        return future

    # -- execution ---------------------------------------------------------

    def _take_batch(self) -> list[_Pending]:
        """Pop up to ``max_batch`` entries (caller must hold the lock)."""
        batch = self._pending[: self.policy.max_batch]
        del self._pending[: len(batch)]
        self._in_flight += len(batch)
        return batch

    def _execute(self, batch: list[_Pending]) -> None:
        """Price one batch outside the lock and resolve its futures."""
        if not batch:
            return
        try:
            results = self._flush_fn(batch)
            if len(results) != len(batch):
                raise ConfigurationError(
                    f"flush_fn returned {len(results)} results for a batch "
                    f"of {len(batch)}"
                )
        except BaseException as exc:
            for entry in batch:
                entry.future.set_exception(exc)
        else:
            for entry, result in zip(batch, results):
                entry.future.set_result(result)
        finally:
            with self._wake:
                self._in_flight -= len(batch)
                self._wake.notify_all()

    def flush(self) -> int:
        """Price one batch of whatever is queued right now (manual mode).

        Returns the batch size (0 when the queue was empty).
        """
        with self._wake:
            batch = self._take_batch()
        self._execute(batch)
        return len(batch)

    def drain(self, timeout: float | None = None) -> None:
        """Block until the queue is empty and no batch is in flight.

        In manual mode this flushes inline (and still waits out batches
        another thread is executing); with the broker thread running it
        waits for the thread to do the work.  Raises
        :class:`TimeoutError` when a deadline is given and missed.  The
        deadline is checked *before* starting each inline batch, never
        after: a batch that finished late still resolved its futures,
        so a drain that finds no work left reports success; a batch
        already executing inline runs to completion (its results are
        kept), so the timeout bounds queue wait, not one sweep.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout

        def remaining() -> float | None:
            if deadline is None:
                return None
            left = deadline - time.perf_counter()
            if left <= 0:
                raise TimeoutError("batcher did not drain in time")
            return left

        while True:
            if self._thread is None:
                while self.n_pending:
                    remaining()  # don't *start* work past the deadline
                    self.flush()
            with self._wake:
                if not self._pending and not self._in_flight:
                    return
                if self._thread is None and self._pending:
                    continue  # a submit raced in; flush it inline
                # Waiting on the broker thread, or on another thread's
                # in-flight batch.
                self._wake.wait(timeout=remaining())

    # -- broker thread (async mode) ----------------------------------------

    def start(self) -> None:
        """Spawn the broker thread (idempotent; reopens after stop)."""
        if self._thread is not None:
            return
        with self._wake:
            self._stop = False
        self._thread = threading.Thread(
            target=self._broker_loop, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting requests and flush anything still queued.

        Terminal until :meth:`start` is called again: ``_stop`` stays
        set so a submit racing with shutdown raises instead of
        enqueueing a request nothing will ever price.  Works in manual
        mode too (no broker thread) — that is how the service's
        ``close()`` fences late submitters in both modes.
        """
        with self._wake:
            self._stop = True
            self._wake.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None
        # Whatever raced in before the stop flag landed.
        while self.flush():
            pass

    def _broker_loop(self) -> None:
        while True:
            with self._wake:
                while not self._pending and not self._stop:
                    self._wake.wait()
                if not self._pending:
                    return  # stopped, and nothing left to price
                batch = self._take_batch()
            self._execute(batch)
