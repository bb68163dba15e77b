"""One round of one workload, run in a fresh process by ``run.py``.

A round is: generate inputs from the seed → timed set-up cycles → untimed
warm-up → measured segment → verify and tear down → one JSON line on
stdout, with readings of the reference loops (``e2e_ref.py``) taken
beside every timed interval.  Reference answers are computed, and every
check is made, outside the timed intervals.  Raw timings and the
readings beside them are reported; ``run.py`` does the rescaling.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import multiprocessing
import os
import queue
import resource
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np

from e2e_inputs import (COLD, HOT, Inputs, build_inputs, close_to,
                        quote_fields)
from e2e_ref import Ref2Helpers, RefLoop
from repro.core.engines import SequentialEngine
from repro.core.kernels import PortfolioKernel
from repro.core.portfolio import Portfolio
from repro.errors import AdmissionError, ReproError
from repro.hpc import shm
from repro.serve import BatchPolicy, CachePolicy
from repro.session import RiskSession

#: Trials of the cut the scalar ``sequential`` oracle is run on.
ORACLE_TRIALS = 100

#: ``request_tail_ms``: every segment has 100-500 samples, so at least ten
#: lie beyond it, and the open loop's p95 spread twice as wide run to run.
TAIL_PERCENTILE = 90


# ---------------------------------------------------------------------------
# the four workloads
# ---------------------------------------------------------------------------

class AggInline:
    """Closed loop, 1 client: ``session.aggregate`` over 32 distinct
    books on the calling thread."""

    name = "agg_lanes_inline"
    ref_kind = "ref1"
    loop = "closed"
    warmup_requests = 5
    #: The part of a request that is a timer, not work (see QuotesOpen).
    timer_ms = 0.0
    engine = "vectorized"
    session_kwargs: dict = {}

    def setup(self, inp: Inputs):
        yet, portfolio = inp.fresh_yet(), inp.fresh_portfolio()
        session = RiskSession(yet, portfolio, **self.session_kwargs)
        if self.engine == "multicore":
            session.warmup("pooled")
        ctx = SimpleNamespace(session=session, portfolio=portfolio, yet=yet)
        ctx.first = self.request(ctx, inp)
        return ctx

    def request(self, ctx, inp):
        return ctx.session.aggregate(engine=self.engine)

    def same(self, ctx, answer) -> bool:
        """Repeat answers are bit-identical to the first."""
        first = ctx.first
        return (np.array_equal(answer.portfolio_ylt.losses,
                               first.portfolio_ylt.losses)
                and all(np.array_equal(ylt.losses,
                                       first.ylt_by_layer[lid].losses)
                        for lid, ylt in answer.ylt_by_layer.items()))

    def verify(self, inp, answer) -> bool:
        return all(close_to(answer.ylt_by_layer[i].losses,
                            inp.reference_layer(i))
                   for i in range(len(inp.books)))

    def corrupt(self, answer):
        answer.portfolio_ylt.losses[0] += 1.0
        return answer

    def proofs(self, ctx, inp, last, after, delta) -> dict:
        """Path proofs from the last answer, the telemetry snapshot
        ``after`` the segment and its ``delta`` over the segment."""
        return {"tail_group_rows_is_0":
                ctx.portfolio.kernel().tail_group_rows == 0}

    def teardown(self, ctx) -> None:
        ctx.session.close()


class AggPooled(AggInline):
    """The same inputs through the 2-worker pool over shared memory."""

    name = "agg_lanes_pooled"
    ref_kind = "ref2"
    engine = "multicore"
    session_kwargs = {"n_workers": 2, "transport": "shm"}

    def proofs(self, ctx, inp, last, after, delta) -> dict:
        out = super().proofs(ctx, inp, last, after, delta)
        out["transport_is_shm"] = last.details.get("transport") == "shm"
        out["payload_ships_is_1"] = ctx.session.payload_ships == 1
        out["no_worker_deaths"] = after.get("pool.worker_deaths", 0) == 0
        return out


class QuotesBurst:
    """Closed loop, 1 client: one ``quote_many`` of 64 candidates on one
    book — 32 hot (cache hits) + 32 rotating (misses priced as one
    tail group, each evicting an older entry)."""

    name = "quotes_burst_churn"
    ref_kind = "ref1"
    loop = "closed"
    warmup_requests = 8      # fills the cache: evictions are steady after 7
    auto_flush = False
    slo_seconds = None
    window_seconds = 0.002
    timer_ms = 0.0

    def cache_entries(self, inp) -> int:
        return inp.shape["cache_entries"]

    def setup(self, inp: Inputs):
        yet, candidates = inp.fresh_yet(), inp.fresh_candidates()
        session = RiskSession(yet)
        for layer in candidates:
            layer.lookup()
            layer.content_digest()
        service = session.pricing_service(
            engine="inline",
            batch=BatchPolicy(64, self.window_seconds,
                              auto_flush=self.auto_flush),
            cache=CachePolicy(max_entries=self.cache_entries(inp)),
            slo_seconds=self.slo_seconds,
        )
        ctx = SimpleNamespace(session=session, service=service, yet=yet,
                              candidates=candidates, n=0, seen={})
        ctx.first = self.first_answer(ctx, inp)
        return ctx

    def first_answer(self, ctx, inp):
        """Prime the hot set.  Every burst of the loop is then in steady
        state — 32 hits + one 32-row miss stack — and a rotating
        candidate is always re-priced in the same stack, which is what
        makes its repeat answers bit-identical (a tail group's prefix
        sums depend on the group's composition in the last ulp)."""
        idx = list(range(HOT))
        return idx, ctx.service.quote_many(ctx.candidates[:HOT])

    def request(self, ctx, inp):
        idx, layers = inp.burst(ctx.candidates, ctx.n)
        ctx.n += 1
        return idx, ctx.service.quote_many(layers)

    def same(self, ctx, answer) -> bool:
        """Every quote equals the first one seen for its candidate
        (cached re-quotes and re-priced ones alike)."""
        ok = True
        for k, quote in zip(*answer):
            fields = quote_fields(quote)
            ok &= ctx.seen.setdefault(k, fields) == fields
        return ok

    def verify(self, inp, answer) -> bool:
        return all(inp.quote_matches(k, quote) for k, quote in zip(*answer))

    def corrupt(self, answer):
        idx, quotes = answer
        bad = dataclasses.replace(quotes[0], premium=quotes[0].premium + 1.0)
        return idx, [bad, *quotes[1:]]

    def proofs(self, ctx, inp, last, after, delta) -> dict:
        bursts = delta["serve.batches"]
        misses = [ctx.candidates[k] for k in last[0][HOT:]]
        kernel = PortfolioKernel.from_layers(misses)
        counts = np.bincount(ctx.yet.trials, minlength=ctx.yet.n_trials)
        return {
            "tail_group_rows_is_32": kernel.tail_group_rows == COLD,
            # The documented shifted-clip bound: rows inside it factor to
            # clip(g, lo, hi), so the group is priced sublinearly.
            "miss_rows_factor": bool(
                kernel.occ_retention.max() * counts.max() * 2.0 ** -51
                <= 1e-6),
            "every_batch_sublinear":
                delta["serve.sublinear.rows"] == COLD * bursts,
            "hit_ratio_is_half":
                2 * delta["serve.cache.hits"] == delta["serve.requests"],
            "evictions_per_burst_is_32":
                delta["serve.cache.evictions"] == COLD * bursts,
        }

    def teardown(self, ctx) -> None:
        ctx.session.close()


class QuotesOpen(QuotesBurst):
    """Open loop at a fixed 100 req/s: one ``submit`` per arrival through
    the auto-flushing batcher, cache off, latency from the due time."""

    name = "quotes_open_distinct"
    loop = "open"
    warmup_requests = 20
    auto_flush = True
    rate = 100.0
    # The batch window is a timer: a slow host does not stretch it.  It is
    # taken out of a latency before the division by the reference reading
    # and put back, unscaled, by run.py.
    timer_ms = 1e3 * QuotesBurst.window_seconds
    # The sizing host freezes for 50-300 ms a few times a minute; a limit
    # of 0.25 s turned one freeze in twenty runs into five "failed"
    # requests.  Missing the limit should mean the service fell behind.
    slo_seconds = 1.0

    def cache_entries(self, inp) -> int:
        return 0

    def first_answer(self, ctx, inp):
        return self.request(ctx, inp)

    def request(self, ctx, inp):
        k = ctx.n % len(ctx.candidates)
        ctx.n += 1
        return [k], [ctx.service.quote(ctx.candidates[k])]

    def proofs(self, ctx, inp, last, after, delta) -> dict:
        return {
            "zero_cache_hits": after.get("serve.cache.hits", 0) == 0,
            "zero_sheds": after.get("serve.shed", 0) == 0,
        }


WORKLOADS = {w.name: w for w in (AggInline, AggPooled, QuotesOpen, QuotesBurst)}


# ---------------------------------------------------------------------------
# measured segments
# ---------------------------------------------------------------------------

#: Open-loop arrivals between two reference readings (0.25 s at 100/s).
OPEN_GROUP = 25

#: Iterations per reading where the loop does not run between requests.
READING_ITERATIONS = 3


def midpoint(a, b) -> tuple[float, float]:
    """The reading half-way between two ``(compute, memory)`` readings."""
    return (a[0] + b[0]) / 2, (a[1] + b[1]) / 2


class RefMeter:
    """Reference readings of the workload's kind (ref1 in-process, ref2
    in the helpers)."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._source = Ref2Helpers() if kind == "ref2" else RefLoop()
        self._source.reading()      # first touch of the arrays
        self.readings: list[tuple[float, float]] = []

    def reading(self, iterations: int = 1) -> tuple[float, float]:
        self.readings.append(self._source.reading(iterations))
        return self.readings[-1]

    def close(self) -> None:
        if self.kind == "ref2":
            self._source.close()


def closed_segment(wl, ctx, inp, meter, seconds: float, inject: bool = False):
    """One client, next request only after the previous answer; one
    reference reading between consecutive requests."""
    latencies, refs, failed, wrong = [], [meter.reading()], 0, 0
    first = last = None
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        try:
            answer = wl.request(ctx, inp)
        except ReproError:
            answer = None
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if inject and len(latencies) == 3:
            answer = wl.corrupt(answer)
        if answer is None:
            failed += 1
        elif not wl.same(ctx, answer):
            failed += 1
            wrong += 1
        else:
            first = first if first is not None else answer
            last = answer
        refs.append(meter.reading())
        if t1 >= deadline:
            break
    local = [midpoint(a, b) for a, b in zip(refs, refs[1:])]
    # The loop's rate is per second of client busy time: the reference
    # iterations between requests are not the client's.
    return SimpleNamespace(latencies=latencies, local_ref_ms=local,
                           attempted=len(latencies), failed=failed,
                           wrong=wrong, first=first, last=last, lag=[0.0],
                           elapsed=sum(latencies))


def open_segment(wl, ctx, inp, meter, seconds: float, inject: bool = False,
                 on_submit=None):
    """Arrivals on a fixed schedule whatever the service is doing.

    Two load threads: this one paces and submits, a collector stamps
    each completion.  A request's latency runs from the time it was
    *due*, so a stall is charged to every request it delayed.  The
    schedule is cut into groups of ``OPEN_GROUP`` arrivals; between
    groups the queue drains and the reference loop takes a reading, so
    every request has one from within a quarter second of it.
    ``on_submit(i, t0, t1)`` lets the traced pass record submit spans.
    """
    n = max(1, int(round(wl.rate * seconds)))
    tickets: queue.SimpleQueue = queue.SimpleQueue()
    done_at, quotes = [None] * n, [None] * n
    keys = [(ctx.n + i) % len(ctx.candidates) for i in range(n)]
    ctx.n += n
    group_done = threading.Semaphore(0)

    def collect():
        for i in range(n):
            ticket = tickets.get()
            if ticket is not None:
                try:
                    quotes[i] = ticket.result(timeout=10.0)
                    done_at[i] = time.perf_counter()
                except (ReproError, TimeoutError):
                    pass
            if (i + 1) % OPEN_GROUP == 0 or i == n - 1:
                group_done.release()

    collector = threading.Thread(target=collect, name="e2e-collector")
    collector.start()
    due, lag, local = [0.0] * n, [], [None] * n
    refs = [meter.reading(READING_ITERATIONS)]
    elapsed = 0.0
    for g0 in range(0, n, OPEN_GROUP):
        g1 = min(g0 + OPEN_GROUP, n)
        start = time.perf_counter() + 0.002
        for i in range(g0, g1):
            due[i] = start + (i - g0) / wl.rate
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t0 = time.perf_counter()
            lag.append(t0 - due[i])
            try:
                tickets.put(ctx.service.submit(ctx.candidates[keys[i]], "quote"))
            except AdmissionError:
                tickets.put(None)
            if on_submit is not None:
                on_submit(i, t0, time.perf_counter())
        group_done.acquire()
        elapsed += time.perf_counter() - start
        refs.append(meter.reading(READING_ITERATIONS))
        local[g0:g1] = [midpoint(refs[-2], refs[-1])] * (g1 - g0)
    collector.join()
    if inject:
        quotes[2] = wl.corrupt(([keys[2]], [quotes[2]]))[1][0]
    latencies, local_ok, failed, wrong = [], [], 0, 0
    first = last = None
    for i in range(n):
        answer = ([keys[i]], [quotes[i]])
        if done_at[i] is None or done_at[i] - due[i] > wl.slo_seconds:
            failed += 1     # shed, errored, or answered later than the SLO
        elif not wl.same(ctx, answer):
            failed += 1
            wrong += 1
        else:
            latencies.append(done_at[i] - due[i])
            local_ok.append(local[i])
            first = first if first is not None else answer
            last = answer
    return SimpleNamespace(latencies=latencies, local_ref_ms=local_ok,
                           attempted=n, failed=failed, wrong=wrong,
                           first=first, last=last, lag=lag, elapsed=elapsed,
                           due=due, done_at=done_at, keys=keys, quotes=quotes)


def run_segment(wl, ctx, inp, meter, seconds, inject=False, **kwargs):
    segment = open_segment if wl.loop == "open" else closed_segment
    return segment(wl, ctx, inp, meter, seconds, inject, **kwargs)


# ---------------------------------------------------------------------------
# round plumbing
# ---------------------------------------------------------------------------

class LeakCheck:
    """After tear-down nothing the round created may be left: no
    shared-memory segment and no child process."""

    def __init__(self) -> None:
        self.segments = self._segments()
        self.children = {c.pid for c in multiprocessing.active_children()}

    @staticmethod
    def _segments() -> set[str]:
        try:
            return set(os.listdir("/dev/shm"))
        except OSError:
            return set()

    def proofs(self) -> dict:
        new = self._segments() - self.segments
        return {
            "no_shm_segment_left": (
                not shm.active_segment_names()
                and not any(n.startswith(("repro-", "psm_")) for n in new)),
            "no_child_process_left": not any(
                c.pid not in self.children
                for c in multiprocessing.active_children()),
        }


def metrics_of(session) -> dict:
    return dict(session.telemetry.snapshot()["metrics"])


def moved(before: dict, after: dict) -> dict:
    """How far every public metric moved between two snapshots."""
    return {name: value - before.get(name, 0)
            for name, value in after.items()}


def oracle_check(inp: Inputs) -> bool:
    """The scalar ``sequential`` engine agrees with the harness's NumPy
    reference on a 100-trial cut of the first two books."""
    cut = min(ORACLE_TRIALS, inp.n_trials)
    portfolio = Portfolio(inp.fresh_portfolio().layers[:2])
    result = SequentialEngine().run(portfolio, inp.fresh_yet().slice_trials(0, cut))
    return all(close_to(result.ylt_by_layer[i].losses,
                        inp.reference_layer(i, trial_stop=cut))
               for i in range(2))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def run_round(workload: str, seed: int, round_index: int = 0,
              segment_s: float = 5.0, setup_cycles: int = 9,
              shape: str = "base", inject: bool = False) -> dict:
    """Run one round; returns the JSON-able record of its numbers.

    Every timing is reported raw, beside the reference reading taken
    next to it; ``run.py`` converts the pairs to reference speed.
    """
    wl = WORKLOADS[workload]()
    leaks = LeakCheck()
    inp = build_inputs(seed, shape)
    checks = {}
    if round_index == 0:
        checks["sequential_oracle"] = oracle_check(inp)
    meter = RefMeter(wl.ref_kind)
    try:
        # -- set-up cycles ---------------------------------------------------
        setup_seconds, setup_refs, setup_ok = [], [], True
        ctx = None
        for _ in range(setup_cycles):
            if ctx is not None:
                wl.teardown(ctx)
                ctx = None
                gc.collect()    # sessions and services refer to each other
            ref_before = meter.reading(READING_ITERATIONS)
            t0 = time.perf_counter()
            ctx = wl.setup(inp)
            setup_seconds.append(time.perf_counter() - t0)
            ref_after = meter.reading(READING_ITERATIONS)
            setup_refs.append(midpoint(ref_before, ref_after))
            setup_ok &= wl.verify(inp, ctx.first) and wl.same(ctx, ctx.first)
        checks["setup_answers"] = setup_ok

        # -- warm-up, then the measured segment ----------------------------
        for _ in range(wl.warmup_requests):
            wl.same(ctx, wl.request(ctx, inp))
        before = metrics_of(ctx.session)
        seg = run_segment(wl, ctx, inp, meter, segment_s, inject)
        after = metrics_of(ctx.session)

        # -- verification and path proofs ----------------------------------
        checks["segment_first_last"] = bool(
            seg.first is not None and wl.verify(inp, seg.first)
            and wl.verify(inp, seg.last))
        checks["repeat_answers_identical"] = seg.wrong == 0
        delta = moved(before, after)
        proofs = wl.proofs(ctx, inp, seg.last, after, delta) \
            if seg.last is not None else {}
        wl.teardown(ctx)
        proofs.update(leaks.proofs())
    finally:
        meter.close()

    latency_ms = [t * 1e3 for t in seg.latencies]
    return {
        "workload": workload, "round": round_index, "seed": seed,
        "inputs_digest": inp.digest(), "numpy": np.__version__,
        "loop": wl.loop, "ref_kind": wl.ref_kind, "timer_ms": wl.timer_ms,
        # the first set-up cycle pays the imports: never counted
        "setup_cycles_s": setup_seconds[1:] or setup_seconds,
        "setup_ref_ms": setup_refs[1:] or setup_refs,
        "latencies_ms": latency_ms,
        "local_ref_ms": seg.local_ref_ms,
        "tail_percentile": TAIL_PERCENTILE,
        "elapsed_s": seg.elapsed,
        "attempted": seg.attempted, "failed": seg.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "lag_p99_ms": percentile(seg.lag, 99) * 1e3,
        "counts": {name: delta.get(name, 0) for name in (
            "serve.requests", "serve.cache.hits", "serve.cache.evictions",
            "serve.shed", "serve.batches", "serve.batched_requests",
            "pool.retries", "pool.worker_deaths")},
        "checks": checks, "proofs": proofs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--segment-s", type=float, default=5.0)
    parser.add_argument("--setup-cycles", type=int, default=9)
    parser.add_argument("--shape", default="base")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--inject-wrong-answer", action="store_true")
    args = parser.parse_args(argv)
    if args.traced:
        from e2e_layers import traced_round
        record = traced_round(args.workload, args.seed, args.segment_s,
                              args.shape)
    else:
        record = run_round(args.workload, args.seed, args.round,
                           args.segment_s, args.setup_cycles, args.shape,
                           args.inject_wrong_answer)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
