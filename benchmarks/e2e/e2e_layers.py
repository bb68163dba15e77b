"""The traced pass and the per-layer probes (``--trace 1``).

Nothing inside ``src/repro`` is instrumented here (spans inside the
program are a later change).  The harness records its own spans around
calls into each layer's *public* functions:

- the **traced pass** times the workload's outer request and then
  re-enacts it stage by stage on the same inputs — e.g. a burst becomes
  64 × ``ResultCache.get`` → ``from_layers`` of the misses →
  ``InlineDispatcher.run`` → 32 × ``premium_components`` → 32 ×
  ``ResultCache.put`` — checking that the stages reproduce the request's
  answer.  A stage's self time is its span minus what its child spans
  cover; what the stages leave unexplained of the request's median is
  ``trace.residual_share``, and traced vs untraced median is
  ``trace.overhead_share``;
- the **layer probes** time single public calls of every layer on the
  same seeded inputs, each beside readings of the reference loop.

End-to-end metrics never come from here: they are measured untraced.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import statistics
import time
from pathlib import Path

import numpy as np

from e2e_inputs import (COLD, HOT, TAIL_LOADING, VOLATILITY_LOADING,
                        build_inputs, quote_fields)
from e2e_ref import Ref2Helpers, RefLoop, at_reference, load_reference
from e2e_compare import spread
from e2e_round import (READING_ITERATIONS, WORKLOADS, LeakCheck, RefMeter,
                       metrics_of, midpoint, moved, percentile, run_segment)
from repro.core.kernels import PortfolioKernel
from repro.core.portfolio import Portfolio
from repro.core.tables import YetTable, YltTable
from repro.dfa.quote import premium_components
from repro.hpc.pool import WorkPool
from repro.hpc.shm import SharedArena, ShmSlab
from repro.serve import BatchPolicy, CachePolicy
from repro.serve.admission import AdmissionController
from repro.serve.cache import ResultCache
from repro.serve.dispatch import InlineDispatcher, PooledDispatcher
from repro.session import RiskSession

#: Layers a stage's self time is charged to (``trace.share.<layer>``).
LAYERS = ("kernel", "session", "dispatch", "serve", "cache", "quote")

#: Open-loop requests re-enacted after the traced segment.
OPEN_ENACTED = 64


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class SpanRecorder:
    """In-memory spans: name, layer, request id, parent, start, end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def add(self, name, layer, request, parent, start, end) -> int:
        self.spans.append({"id": len(self.spans), "name": name,
                           "layer": layer, "request": request,
                           "parent": parent, "start": start, "end": end})
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str, layer: str, request: int):
        parent = self._open[-1] if self._open else None
        sid = self.add(name, layer, request, parent, time.perf_counter(), None)
        self._open.append(sid)
        try:
            yield sid
        finally:
            self.spans[sid]["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> dict[int, float]:
        """Span duration minus the part of it its children cover."""
        children: dict[int, list] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered, edge = 0.0, s["start"]
            for c in sorted(children.get(s["id"], ()),
                            key=lambda c: c["start"]):
                lo, hi = max(c["start"], edge), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out


# ---------------------------------------------------------------------------
# re-enactment of each workload's request through public functions
# ---------------------------------------------------------------------------

def block_task(kernel_handles, yet_handles, r0, r1, t0, t1):
    """Pool task of the pooled re-enactment: what a dispatcher block
    does, plus the worker-side clock readings of its span."""
    start = time.perf_counter()
    kernel = PortfolioKernel.from_handles(kernel_handles)
    yet = YetTable.from_handles(yet_handles)
    annual = kernel.sweep(yet.trials[r0:r1] - t0, yet.event_ids[r0:r1],
                          t1 - t0)
    return kernel.apply_aggregate(annual), start, time.perf_counter()


def noop_task(_i):
    return None


def block_spans(yet: YetTable, n_blocks: int = 2) -> list[tuple]:
    """The pooled dispatcher's documented trial-block decomposition."""
    offsets = yet.trial_offsets
    bounds = np.linspace(0, yet.n_trials, n_blocks + 1).astype(int)
    return [(int(offsets[b0]), int(offsets[b1]), int(b0), int(b1))
            for b0, b1 in zip(bounds[:-1], bounds[1:])]


class Enactor:
    """Re-enacts one workload's request under spans; ``enact`` returns
    whether the stages reproduced the request's answer."""

    def __init__(self, wl, ctx, inp) -> None:
        self.ctx = ctx

    def close(self) -> None:
        """Release what the re-enactment staged for itself."""


class EnactAggInline(Enactor):
    def price(self, rec, rid, kernel):
        yet = self.ctx.yet
        with rec.span("PortfolioKernel.sweep", "kernel", rid):
            annual = kernel.sweep(yet.trials, yet.event_ids, yet.n_trials)
        with rec.span("PortfolioKernel.apply_aggregate", "kernel", rid):
            return kernel.apply_aggregate(annual)

    def enact(self, rec, rid, answer) -> bool:
        with rec.span("reenact", "harness", rid):
            with rec.span("Portfolio.kernel", "kernel", rid):
                kernel = self.ctx.portfolio.kernel()
            final = self.price(rec, rid, kernel)
            with rec.span("YltTable per layer + sum", "session", rid):
                total = YltTable.sum([YltTable(final[row])
                                      for row in range(kernel.n_layers)])
        return np.array_equal(total.losses, answer.portfolio_ylt.losses)


class EnactAggPooled(EnactAggInline):
    def __init__(self, wl, ctx, inp) -> None:
        super().__init__(wl, ctx, inp)
        self.arena, self.slab = SharedArena(), ShmSlab()
        self.yet_handles = ctx.yet.to_shared(self.arena)
        self.pool = ctx.session.dispatcher("pooled").pool
        self.spans = block_spans(ctx.yet, self.pool.n_workers)

    def price(self, rec, rid, kernel):
        with rec.span("PortfolioKernel.export_handles", "dispatch", rid):
            handles = kernel.export_handles(self.slab)
        with rec.span("WorkPool.starmap", "dispatch", rid) as parent:
            results = self.pool.starmap(
                block_task,
                [(handles, self.yet_handles, *span) for span in self.spans])
        for _, start, end in results:
            rec.add("worker: from_handles + sweep + apply_aggregate",
                    "kernel", rid, parent, start, end)
        with rec.span("np.concatenate", "dispatch", rid):
            return np.concatenate([r[0] for r in results], axis=1)

    def close(self) -> None:
        self.slab.close()
        self.arena.close()


class EnactQuotes(Enactor):
    def __init__(self, wl, ctx, inp) -> None:
        super().__init__(wl, ctx, inp)
        self.cache = ResultCache(CachePolicy(max_entries=wl.cache_entries(inp)))
        self.admission = AdmissionController(slo_seconds=wl.slo_seconds)
        self.dispatcher = InlineDispatcher()
        self.fingerprint = ctx.yet.fingerprint()

    def enact(self, rec, rid, answer) -> bool:
        idx, quotes = answer
        yet = self.ctx.yet
        layers = [self.ctx.candidates[k] for k in idx]
        with rec.span("reenact", "harness", rid):
            with rec.span("ResultCache.get", "cache", rid):
                keys = [(self.fingerprint, layer.content_digest(), "quote")
                        for layer in layers]
                payloads = [self.cache.get(key) for key in keys]
            misses = [i for i, p in enumerate(payloads) if p is None]
            if misses:
                with rec.span("AdmissionController.decide", "serve", rid):
                    for _ in misses:
                        self.admission.decide(
                            0, lanes_per_request=yet.n_occurrences,
                            n_procs=1, window_seconds=0.002)
                with rec.span("PortfolioKernel.from_layers", "kernel", rid):
                    kernel = PortfolioKernel.from_layers(
                        [layers[i] for i in misses],
                        layer_ids=range(len(misses)))
                with rec.span("InlineDispatcher.run", "kernel", rid):
                    final = self.dispatcher.run(kernel, yet)
                with rec.span("premium_components", "quote", rid):
                    for j, i in enumerate(misses):
                        payloads[i] = premium_components(
                            YltTable(final[kernel.row_of(j)].copy()),
                            layers[i].terms.occ_limit,
                            VOLATILITY_LOADING, TAIL_LOADING)
                with rec.span("ResultCache.put", "cache", rid):
                    for i in misses:
                        self.cache.put(keys[i], payloads[i])
        return all(tuple(p) == quote_fields(q)
                   for p, q in zip(payloads, quotes))


ENACTORS = {"agg_lanes_inline": EnactAggInline,
            "agg_lanes_pooled": EnactAggPooled,
            "quotes_open_distinct": EnactQuotes,
            "quotes_burst_churn": EnactQuotes}


def mirrored_warmup(wl, ctx, inp, enactor) -> bool:
    """The warm-up, re-enacted too (unrecorded), so the enactor's own
    cache goes through the same states as the service's."""
    scratch = SpanRecorder()
    ok = enactor.enact(scratch, 0, ctx.first)
    for _ in range(wl.warmup_requests):
        answer = wl.request(ctx, inp)
        ok &= wl.same(ctx, answer) and enactor.enact(scratch, 0, answer)
    return ok


def traced_closed(wl, ctx, inp, enactor, meter, seconds, rec):
    """Outer request under a span, then its re-enactment, per iteration."""
    latencies, refs, ok = [], [meter.reading()], True
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        rid = len(latencies) + 1
        with rec.span("request", "outer", rid) as sid:
            answer = wl.request(ctx, inp)
        ok &= wl.same(ctx, answer) and enactor.enact(rec, rid, answer)
        refs.append(meter.reading())
        latencies.append(rec.spans[sid]["end"] - rec.spans[sid]["start"])
    local = [midpoint(a, b) for a, b in zip(refs, refs[1:])]
    return ok, latencies, local


def traced_open(wl, ctx, inp, enactor, meter, seconds, rec):
    """The open loop with a span per ``submit``; a request's outer span
    runs from its due time to its completion.  The first requests are
    re-enacted after the segment — doing it inside would break the
    arrival schedule."""
    submits = {}

    def on_submit(i, t0, t1):
        submits[i] = (t0, t1)

    seg = run_segment(wl, ctx, inp, meter, seconds, on_submit=on_submit)
    ok = seg.wrong == 0
    for i, (due, done) in enumerate(zip(seg.due, seg.done_at)):
        if done is None:
            continue
        sid = rec.add("request", "outer", i + 1, None, due, done)
        rec.add("PricingService.submit", "serve", i + 1, sid, *submits[i])
    for i in range(min(OPEN_ENACTED, len(seg.keys))):
        if seg.quotes[i] is not None:
            ok &= enactor.enact(rec, i + 1, ([seg.keys[i]], [seg.quotes[i]]))
    return ok, seg


def stage_table(rec: SpanRecorder, extra: dict | None = None):
    """Median self time of every re-enacted stage, as a share of the
    outer request's median; returns ``(printable lines, share by layer)``.
    ``extra`` adds stages read from telemetry: ``{(name, layer): s}``."""
    self_s = rec.self_seconds()
    outer = [s["end"] - s["start"] for s in rec.spans
             if s["name"] == "request"]
    outer_p50 = statistics.median(outer)
    roots = {s["id"] for s in rec.spans if s["name"] == "reenact"}
    stages: dict[tuple, list] = {}
    for s in rec.spans:
        top = s
        while top["parent"] is not None and top["id"] not in roots:
            top = rec.spans[top["parent"]]
        if top["id"] in roots and s["id"] not in roots:
            stages.setdefault((s["name"], s["layer"]), []).append(
                self_s[s["id"]])
    shares = dict.fromkeys(LAYERS, 0.0)
    lines = [f"request p50 {outer_p50 * 1e3:.3f} ms over {len(outer)} traced"]
    rows = [(name, layer, statistics.median(v)) for (name, layer), v
            in stages.items()]
    rows += [(name, layer, seconds) for (name, layer), seconds
             in (extra or {}).items()]
    for name, layer, seconds in rows:
        shares[layer] += seconds / outer_p50
        lines.append(f"stage {name} [{layer}] self p50 {seconds * 1e3:.3f} ms "
                     f"share {seconds / outer_p50:.3f}")
    return lines, shares


# ---------------------------------------------------------------------------
# layer probes
# ---------------------------------------------------------------------------

class Prober:
    """Median of repeated single calls, beside reference readings."""

    def __init__(self, loop: RefLoop, phase: dict) -> None:
        self.loop, self.phase = loop, phase
        self.readings = [loop.reading(READING_ITERATIONS)]

    def seconds(self, fn, reps: int, before=None) -> float:
        """Median seconds of ``fn()`` at reference speed; ``before()``
        runs untimed ahead of every call.  The reading that closes one
        probe opens the next."""
        times = []
        for _ in range(reps):
            if before is not None:
                before()
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        self.readings.append(self.loop.reading(READING_ITERATIONS))
        local = midpoint(self.readings[-2], self.readings[-1])
        return float(at_reference([statistics.median(times)], [local],
                                  self.phase)[0])


def worker_rss_mb() -> float:
    """Largest peak resident set among live pool workers (0 if none)."""
    peak = 0.0
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, float(line.split()[1]) / 1024)
    return peak


def layer_probes(inp, probe: Prober) -> dict:
    """Every probe metric, on the seed's own inputs."""
    m: dict[str, float] = {}
    yet = inp.fresh_yet()
    trials, events, n_trials = yet.trials, yet.event_ids, yet.n_trials
    n_occ = yet.n_occurrences
    portfolio = inp.fresh_portfolio()
    candidates = inp.fresh_candidates()
    n_layers = portfolio.n_layers

    # -- core.layer / core.lookup ------------------------------------------
    layer = candidates[0]
    m["lookup.build_ms"] = 1e3 * probe.seconds(
        layer.lookup, 30, before=layer.invalidate_lookup)
    m["layer.digest_us"] = 1e6 * probe.seconds(
        layer.content_digest, 50, before=layer.invalidate_lookup)

    # -- core.kernels -------------------------------------------------------
    m["kernel.build_ms"] = 1e3 * probe.seconds(
        portfolio.kernel, 5, before=portfolio.invalidate_kernels)
    for layer in candidates:
        layer.lookup()
    tail_layers = candidates[HOT:HOT + COLD]
    m["kernel.stack_ms.b1"] = 1e3 * probe.seconds(
        lambda: PortfolioKernel.from_layers(candidates[:1]), 30)
    m["kernel.stack_ms.b32"] = 1e3 * probe.seconds(
        lambda: PortfolioKernel.from_layers(tail_layers), 30)
    k_lanes = portfolio.kernel()
    k_single = PortfolioKernel.from_layers(candidates[:1])
    k_tail = PortfolioKernel.from_layers(tail_layers)
    block = events[:min(k_lanes.block_occurrences, n_occ)]
    buf = np.empty((n_layers, block.size))
    m["kernel.gather_ms"] = 1e3 * probe.seconds(
        lambda: k_lanes.gather_block(block, out=buf), 20)
    sweep_lanes = probe.seconds(
        lambda: k_lanes.sweep(trials, events, n_trials), 7)
    sweep_tail = probe.seconds(
        lambda: k_tail.sweep(trials, events, n_trials), 7)
    forced = probe.seconds(
        lambda: k_tail.sweep(trials, events, n_trials, sublinear=False), 7)
    m["kernel.sweep_lanes_ms"] = 1e3 * sweep_lanes
    m["kernel.sweep_single_ms"] = 1e3 * probe.seconds(
        lambda: k_single.sweep(trials, events, n_trials), 15)
    m["kernel.sweep_tail_ms"] = 1e3 * sweep_tail
    m["kernel.sweep_tail_forced_lanes_ms"] = 1e3 * forced
    m["kernel.tail_speedup"] = forced / sweep_tail
    annual = k_lanes.sweep(trials, events, n_trials)
    m["kernel.aggregate_terms_ms"] = 1e3 * probe.seconds(
        lambda: k_lanes.apply_aggregate(annual), 30)
    m["kernel.lanes_per_s.lanes"] = n_layers * n_occ / sweep_lanes
    m["kernel.lanes_per_s.tail"] = len(tail_layers) * n_occ / sweep_tail
    m["kernel.tail_group_rows"] = k_tail.tail_group_rows
    m["kernel.n_unique_lookups"] = k_lanes.n_unique_lookups
    m["kernel.nbytes"] = k_lanes.nbytes
    # Computed, not measured: per lane the lane path writes the gathered
    # loss (8 B), clips it in place (8 + 8) and reads it in the segment
    # reduction (8); the 8-byte event id is read once for all L layers
    # and each (layer, trial) sum is read and written once.
    m["kernel.bytes_per_lane_computed"] = (
        32.0 + 8.0 / n_layers + 16.0 * n_trials / n_occ)

    # -- session.session / session.planner ---------------------------------
    sessions = []
    m["session.construct_ms"] = 1e3 * probe.seconds(
        lambda: sessions.append(RiskSession(yet, portfolio)), 30)
    used = iter(sessions[:5])
    for session in sessions[:5]:
        session.aggregate(engine="vectorized")
    m["session.close_ms"] = 1e3 * probe.seconds(
        lambda: next(used).close(), 5)
    for session in sessions[5:-1]:
        session.close()
    session = sessions[-1]
    aggregate = probe.seconds(
        lambda: session.aggregate(engine="vectorized"), 7)
    kernel_run = probe.seconds(
        lambda: k_lanes.run(trials, events, n_trials), 7)
    m["session.aggregate_overhead_ms"] = 1e3 * (aggregate - kernel_run)
    m["planner.plan_us"] = 1e6 * probe.seconds(
        lambda: session.plan("aggregate"), 50)
    m["obs.snapshot_ms"] = 1e3 * probe.seconds(session.telemetry.snapshot, 20)
    session.close()

    with RiskSession(yet, portfolio, n_workers=2, transport="shm") as auto:
        modelled = auto.plan("aggregate").modelled_seconds
        m["planner.error_ratio.cold"] = modelled / probe.seconds(
            lambda: auto.aggregate(engine="auto"), 1)
        auto.warmup("pooled")
        best_pinned = min(
            probe.seconds(lambda: auto.aggregate(engine="vectorized"), 7),
            probe.seconds(lambda: auto.aggregate(engine="multicore"), 7))
        modelled = auto.plan("aggregate").modelled_seconds
        planned = probe.seconds(lambda: auto.aggregate(engine="auto"), 7)
        m["planner.error_ratio.warm"] = modelled / planned
        m["planner.auto_regret"] = planned / best_pinned

    # -- hpc.pool / hpc.shm / serve.dispatch -------------------------------
    spawned = []

    def spawn():
        spawned.append(RiskSession(yet, portfolio, n_workers=2,
                                   transport="shm"))
        spawned[-1].warmup("pooled")

    m["pool.spawn_ms"] = 1e3 * probe.seconds(spawn, 3)
    for session in spawned:
        session.close()
    arenas = []

    def stage():
        arenas.append(SharedArena())
        yet.to_shared(arenas[-1])

    m["shm.yet_stage_ms"] = 1e3 * probe.seconds(stage, 10)
    for arena in arenas:
        arena.close()
    with ShmSlab() as slab:
        handles = k_lanes.export_handles(slab)
        m["shm.slab_pack_ms"] = 1e3 * probe.seconds(
            lambda: k_lanes.export_handles(slab), 20)
        m["shm.attach_ms"] = 1e3 * probe.seconds(
            lambda: PortfolioKernel.from_handles(handles), 20)
    with WorkPool(2) as pool:
        pool.ensure_started()
        m["pool.roundtrip_ms"] = 1e3 * probe.seconds(
            lambda: pool.starmap(noop_task, [(0,), (1,)]), 30)
    inline = InlineDispatcher()
    inline_run = probe.seconds(lambda: inline.run(k_lanes, yet), 7)
    with PooledDispatcher(n_workers=2, transport="shm") as pooled:
        pooled.warmup(yet)
        pooled_run = probe.seconds(lambda: pooled.run(k_lanes, yet), 7)
    m["dispatch.inline_run_ms"] = 1e3 * inline_run
    m["dispatch.pooled_run_ms"] = 1e3 * pooled_run
    m["dispatch.parallel_efficiency"] = inline_run / (2 * pooled_run)
    blocks = [probe.seconds(
        lambda: k_lanes.apply_aggregate(k_lanes.sweep(
            trials[r0:r1] - t0, events[r0:r1], t1 - t0)), 5)
        for r0, r1, t0, t1 in block_spans(yet)]
    m["dispatch.block_imbalance"] = max(blocks) / statistics.fmean(blocks)

    # -- serve.batcher / serve.admission / serve.service / dfa.quote -------
    with RiskSession(yet) as session:
        manual = BatchPolicy(64, 0.002, auto_flush=False)
        service = session.pricing_service(
            engine="inline", batch=manual, cache=CachePolicy(max_entries=0))
        turn = iter(range(10 ** 6))
        m["serve.submit_miss_us"] = 1e6 * probe.seconds(
            lambda: service.submit(candidates[next(turn) % len(candidates)]),
            64)
        service.drain()
        m["serve.batch_ms.b1"] = 1e3 * probe.seconds(
            lambda: service.quote_many(candidates[:1]), 15)
        m["serve.batch_ms.b32"] = 1e3 * probe.seconds(
            lambda: service.quote_many(tail_layers), 7)
        cached = session.pricing_service(
            engine="inline", batch=manual,
            cache=CachePolicy(max_entries=inp.shape["cache_entries"]))
        cached.quote_many(candidates[:HOT])
        m["serve.submit_hit_us"] = 1e6 * probe.seconds(
            lambda: cached.submit(candidates[next(turn) % HOT]), 64)
    admission = AdmissionController(slo_seconds=1.0)
    m["admission.decide_us"] = 1e6 * probe.seconds(
        lambda: admission.decide(0, lanes_per_request=n_occ, n_procs=1,
                                 window_seconds=0.002), 500)
    ylt = YltTable(k_single.apply_aggregate(
        k_single.sweep(trials, events, n_trials))[0])
    m["quote.metrics_us"] = 1e6 * probe.seconds(
        lambda: premium_components(ylt, candidates[0].terms.occ_limit,
                                   VOLATILITY_LOADING, TAIL_LOADING), 200)

    # -- serve.cache --------------------------------------------------------
    entries = inp.shape["cache_entries"]
    cache = ResultCache(CachePolicy(max_entries=entries))
    for i in range(entries):
        cache.put(("yet", f"layer-{i}", "quote"), (0.0,) * 6)
    m["cache.get_hit_us"] = 1e6 * probe.seconds(
        lambda: cache.get(("yet", f"layer-{entries - 1}", "quote")), 1000)
    m["cache.put_evict_us"] = 1e6 * probe.seconds(
        lambda: cache.put(("yet", f"new-{next(turn)}", "quote"), (0.0,) * 6),
        1000)

    # -- obs ------------------------------------------------------------------
    small_yet = yet.slice_trials(0, min(100, n_trials))
    small_book = Portfolio(portfolio.layers[:1])
    with RiskSession(small_yet, small_book) as watched, \
            RiskSession(small_yet, small_book, telemetry=False) as blind:
        both = {id(watched): [], id(blind): []}

        def alternate():
            for session in (watched, blind):
                t0 = time.perf_counter()
                session.aggregate(engine="vectorized")
                both[id(session)].append(time.perf_counter() - t0)

        # The difference of the two medians, converted to reference speed
        # by the factor that converts the pair of calls.
        pair_at_reference = probe.seconds(alternate, 200)
        pair_raw = statistics.median(map(sum, zip(*both.values())))
        m["obs.aggregate_overhead_us"] = 1e6 * (
            statistics.median(both[id(watched)])
            - statistics.median(both[id(blind)])
        ) * pair_at_reference / pair_raw
    return m


# ---------------------------------------------------------------------------
# the traced round
# ---------------------------------------------------------------------------

def traced_pass(workload: str, inp, seconds: float) -> dict:
    """One workload's traced segment, the untraced one it is compared
    with, and the counts of both read from the public telemetry.

    Two thirds of ``seconds`` go to the traced segment (half of it is
    re-enactment), one third to the untraced one.
    """
    wl = WORKLOADS[workload]()
    leaks = LeakCheck()
    meter = RefMeter(wl.ref_kind)
    rec = SpanRecorder()
    try:
        ctx = wl.setup(inp)
        enactor = ENACTORS[workload](wl, ctx, inp)
        warm = mirrored_warmup(wl, ctx, inp, enactor)
        before = metrics_of(ctx.session)
        if wl.loop == "open":
            ok, seg = traced_open(wl, ctx, inp, enactor, meter,
                                  seconds * 2 / 3, rec)
            latencies, local = seg.latencies, seg.local_ref_ms
            attempted, failed, lag = seg.attempted, seg.failed, seg.lag
        else:
            ok, latencies, local = traced_closed(
                wl, ctx, inp, enactor, meter, seconds * 2 / 3, rec)
            attempted, failed, lag = len(latencies), 0, [0.0]
        plain = run_segment(wl, ctx, inp, meter, seconds / 3)
        after = metrics_of(ctx.session)
        rss = worker_rss_mb()
        enactor.close()
        wl.teardown(ctx)
    finally:
        meter.close()

    delta = moved(before, after).get
    extra = {}
    waits = delta("serve.queue.wait_seconds.count", 0)
    if wl.loop == "open" and waits:
        extra[("batch window + queue wait (telemetry mean)", "serve")] = (
            delta("serve.queue.wait_seconds.sum") / waits)
    lines, shares = stage_table(rec, extra)
    phase = load_reference()[workload]["segment"]
    traced_p50, plain_p50 = (
        percentile(at_reference(seconds_, readings, phase), 50)
        for seconds_, readings in ((latencies, local),
                                   (plain.latencies, plain.local_ref_ms)))
    requests, batches = delta("serve.requests", 0), delta("serve.batches", 0)
    return {
        "attempted": attempted + plain.attempted,
        "failed": failed + plain.failed,
        "checks": {"reenactment_reproduces_answers": bool(ok and warm),
                   "untraced_answers": plain.wrong == 0, **leaks.proofs()},
        "stage_table": lines, "spans": rec.spans,
        "per_layer": {
            "trace.overhead_share": traced_p50 / plain_p50 - 1.0,
            "trace.residual_share": 1.0 - sum(shares.values()),
            **{f"trace.share.{layer}": shares[layer] for layer in LAYERS},
            "batcher.queue_wait_ms.p50":
                1e3 * after.get("serve.queue.wait_seconds.p50", 0.0),
            "batcher.batch_occupancy.mean":
                delta("serve.batched_requests") / batches if batches else 0.0,
            "admission.shed": delta("serve.shed", 0),
            "cache.hit_ratio":
                delta("serve.cache.hits") / requests if requests else 0.0,
            "cache.evictions_per_burst":
                delta("serve.cache.evictions") / batches if batches else 0.0,
            "pool.payload_ships": after.get("pool.payload_ships", 0),
            "pool.retries": after.get("pool.retries", 0),
            "pool.worker_deaths": after.get("pool.worker_deaths", 0),
            "pool.worker_rss_mb": rss,
            "loadgen.lag_p99_ms": percentile(lag, 99) * 1e3,
        },
    }


def traced_round(workload: str, seed: int, seconds: float,
                 shape: str = "base") -> dict:
    """The traced pass of one workload plus the layer probes: every
    per-layer metric of ``BENCHMARK.json``."""
    inp = build_inputs(seed, shape)
    record = traced_pass(workload, inp, seconds)
    probe = Prober(RefLoop(), load_reference()["probes"])
    helpers = Ref2Helpers()
    try:
        record["per_layer"].update(layer_probes(inp, probe))
        ref2 = helpers.reading(READING_ITERATIONS)
    finally:
        helpers.close()
    compute, memory = zip(*probe.readings)
    record["per_layer"].update({
        "host.ref1_compute_ms": statistics.median(compute),
        "host.ref1_ms": statistics.median(memory),
        "host.ref2_ms": ref2[1],
        "host.ref_spread": spread(memory),
    })
    return {"workload": workload, "seed": seed, "shape": shape,
            "inputs_digest": inp.digest(), **record}
