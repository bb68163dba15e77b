"""A ``quote_many`` is one request of its candidates.

One cache pass, one admission decision for the misses (all of them are
queued, or none is), and one batcher entry per ``max_batch`` misses.
The answers and every ``serve.*`` count are those of the same
candidates submitted one by one.  Every test runs with the batcher
driven by the caller (manual) and by its broker thread (auto-flush).
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.core.layer import Layer
from repro.core.terms import LayerTerms
from repro.errors import AdmissionError, ConfigurationError
from repro.serve import BatchPolicy, CachePolicy, MicroBatcher

#: Bounds a failing test; a passing one never waits this long.
PATIENCE = 10.0

MODES = pytest.mark.parametrize("auto_flush", [False, True],
                                ids=["manual", "auto"])

#: Counts that do not depend on which timed values were observed.
TIMED = ("seconds.sum", "seconds.p", "seconds.max", "sweep_seconds",
         "occupancy.p")


def candidates(wl, n):
    """``n`` distinct layers over the workload's one book."""
    elts = wl.portfolio.layers[0].elts
    return [Layer(i, elts, LayerTerms(occ_retention=1e4 + 2e3 * i,
                                      occ_limit=5e5))
            for i in range(n)]


def fields(quote) -> tuple:
    """The latency-free fields of a quote."""
    return dataclasses.astuple(quote)[:5]


def serve_counts(svc) -> dict:
    return {name: value for name, value
            in sorted(svc.telemetry.snapshot()["metrics"].items())
            if name.startswith("serve.")
            and not any(t in name for t in TIMED)}


class Watch:
    """Counts a service's admission decisions, queued entries (with
    their rows) and the rows of every batch it prices."""

    def __init__(self, svc) -> None:
        self.decisions = 0
        self.entries: list[int] = []
        self.batches: list[int] = []
        decide, submit = svc.admission.decide, svc.batcher.submit
        flush = svc.batcher._flush_fn

        def counted_decide(*args, **kwargs):
            self.decisions += 1
            return decide(*args, **kwargs)

        def counted_submit(item, rows=1):
            self.entries.append(rows)
            return submit(item, rows)

        def counted_flush(pendings):
            self.batches.append(sum(p.rows for p in pendings))
            return flush(pendings)

        svc.admission.decide = counted_decide
        svc.batcher.submit = counted_submit
        svc.batcher._flush_fn = counted_flush


def service(pricing_service, wl, auto_flush, **kwargs):
    return pricing_service(
        wl.yet, batch=BatchPolicy(kwargs.pop("max_batch", 64),
                                  auto_flush=auto_flush), **kwargs)


@MODES
class TestOneRequest:
    @pytest.mark.parametrize("n, max_batch, entries", [
        (10, 64, [10]), (200, 64, [64, 64, 64, 8]), (9, 4, [4, 4, 1])])
    def test_one_decision_and_one_entry_per_max_batch_misses(
            self, tiny_workload, pricing_service, auto_flush, n, max_batch,
            entries):
        svc = service(pricing_service, tiny_workload, auto_flush,
                      max_batch=max_batch)
        watch = Watch(svc)
        quotes = svc.quote_many(candidates(tiny_workload, n))
        assert len(quotes) == n
        assert watch.decisions == 1
        assert watch.entries == entries
        # an entry is never split, and a batch never holds more rows
        # than max_batch: here every entry fills its own batch or is
        # the last
        assert watch.batches == entries
        metrics = svc.telemetry.snapshot()["metrics"]
        assert metrics["serve.batched_requests"] == n
        assert metrics["serve.queue.wait_seconds.count"] == n
        assert metrics["serve.request.seconds.count"] == n

    def test_a_call_of_hits_decides_nothing_and_queues_nothing(
            self, tiny_workload, pricing_service, auto_flush):
        svc = service(pricing_service, tiny_workload, auto_flush)
        layers = candidates(tiny_workload, 6)
        first = svc.quote_many(layers)
        watch = Watch(svc)
        again = svc.quote_many(layers[::-1])
        assert (watch.decisions, watch.entries, watch.batches) == (0, [], [])
        assert [fields(q) for q in again] == [fields(q) for q in first[::-1]]
        assert svc.telemetry.snapshot()["metrics"]["serve.cache.hits"] == 6

    @pytest.mark.parametrize("entries", [256, 0], ids=["cache", "no-cache"])
    def test_answers_equal_one_by_one_submits_in_input_order(
            self, tiny_workload, pricing_service, auto_flush, entries):
        """Mixed hits and misses, and duplicates inside one call."""
        c = candidates(tiny_workload, 8)
        calls = [c[0:4], [c[0], c[4], c[0], c[5], c[1], c[4]], c[5:8],
                 c[::-1]]
        many = service(pricing_service, tiny_workload, auto_flush,
                       cache=CachePolicy(entries))
        one = service(pricing_service, tiny_workload, auto_flush,
                      cache=CachePolicy(entries))
        for call in calls:
            got = many.quote_many(call)
            tickets = [one.submit(layer) for layer in call]
            one.drain()
            want = [t.result(PATIENCE) for t in tickets]
            assert [fields(q) for q in got] == [fields(q) for q in want]
        # distinct candidates price differently, so the order is checked
        assert len({q.premium for q in many.quote_many(c)}) == len(c)

    def test_serve_counts_are_per_candidate(self, tiny_workload,
                                            pricing_service, auto_flush):
        """The counts recorded on the same calls when ``quote_many`` was
        one ``submit`` per candidate (manual mode)."""
        c = candidates(tiny_workload, 8)
        record = {
            5: {"serve.batch.occupancy.count": 7.0,
                "serve.batch.occupancy.max": 5.0,
                "serve.batch.occupancy.sum": 17.0,
                "serve.batched_requests": 17.0, "serve.batches": 7.0,
                "serve.cache.evictions": 11.0,
                "serve.cache.hit_bytes": 448.0, "serve.cache.hits": 7.0,
                "serve.cache.miss_bytes": 4096.0, "serve.kernel_rows": 16.0,
                "serve.queue.depth": 0.0, "serve.queue.depth.max": 5.0,
                "serve.queue.wait_seconds.count": 17.0,
                "serve.request.seconds.count": 24.0,
                "serve.requests": 24.0, "serve.shed": 0.0,
                "serve.sublinear.batches": 0.0,
                "serve.sublinear.rows": 0.0},
            0: {"serve.batch.occupancy.count": 7.0,
                "serve.batch.occupancy.max": 8.0,
                "serve.batch.occupancy.sum": 24.0,
                "serve.batched_requests": 24.0, "serve.batches": 7.0,
                "serve.cache.evictions": 0.0, "serve.cache.hit_bytes": 0.0,
                "serve.cache.hits": 0.0, "serve.cache.miss_bytes": 4480.0,
                "serve.kernel_rows": 22.0, "serve.queue.depth": 0.0,
                "serve.queue.depth.max": 8.0,
                "serve.queue.wait_seconds.count": 24.0,
                "serve.request.seconds.count": 24.0,
                "serve.requests": 24.0, "serve.shed": 0.0,
                "serve.sublinear.batches": 0.0,
                "serve.sublinear.rows": 0.0},
        }
        for entries, counts in record.items():
            svc = service(pricing_service, tiny_workload, auto_flush,
                          cache=CachePolicy(max_entries=entries))
            svc.quote_many(c[0:4])
            svc.quote_many([c[0], c[4], c[0], c[5], c[1], c[4]])
            svc.quote(c[2])
            svc.ylt(c[6])
            svc.quote_many(c[5:8])
            svc.ep_curve(c[6])
            svc.quote_many(c)
            svc.close()
            assert serve_counts(svc) == counts

    def test_n_pending_counts_candidates(self, tiny_workload,
                                         pricing_service, auto_flush):
        svc = service(pricing_service, tiny_workload, auto_flush,
                      cache=CachePolicy(0))
        layers = candidates(tiny_workload, 11)
        if not auto_flush:
            svc.quote_many(layers[1:])
            metrics = svc.telemetry.snapshot()["metrics"]
            assert metrics["serve.queue.depth.max"] == 10
            return
        # hold the broker in a batch, then queue one call of 10 misses
        entered, release = threading.Event(), threading.Event()
        flush = svc.batcher._flush_fn

        def gated(pendings):
            entered.set()
            assert release.wait(PATIENCE)
            return flush(pendings)

        svc.batcher._flush_fn = gated
        head = threading.Thread(target=svc.quote, args=(layers[0],))
        head.start()
        assert entered.wait(PATIENCE)
        call = threading.Thread(target=svc.quote_many, args=(layers[1:],))
        call.start()
        deadline = time.monotonic() + PATIENCE
        while svc.batcher.n_pending < 10 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert svc.batcher.n_pending == 10
        release.set()
        head.join(PATIENCE)
        call.join(PATIENCE)
        assert svc.batcher.n_pending == 0
        assert svc.telemetry.snapshot()["metrics"][
            "serve.batched_requests"] == 11


@MODES
class TestAllOrNothingAdmission:
    def test_a_shed_call_queues_nothing(self, tiny_workload,
                                        pricing_service, auto_flush):
        """Shedding a ``quote_many`` used to leave the candidates
        admitted before the cap queued, priced for nobody, and every
        later request on a manual-mode service shed with them."""
        svc = service(pricing_service, tiny_workload, auto_flush,
                      max_pending=2, cache=CachePolicy(0))
        layers = candidates(tiny_workload, 4)
        with pytest.raises(AdmissionError, match="queue full"):
            svc.quote_many(layers)
        assert svc.batcher.n_pending == 0
        assert svc.quote(layers[0]).premium > 0
        assert svc.quote_many(layers[:2])[0].premium > 0
        metrics = svc.telemetry.snapshot()["metrics"]
        assert metrics["serve.shed"] == 4
        assert metrics["serve.requests"] == 7
        # served = offered - shed, per candidate
        assert metrics["serve.batched_requests"] == 3
        assert metrics["serve.request.seconds.count"] == 3
        shed = svc.telemetry.events.tail(kind="serve.shed")
        assert len(shed) == 1 and shed[0].fields["n_requests"] == 4

    def test_a_shed_call_counts_its_hits_and_sheds_its_misses(
            self, tiny_workload, pricing_service, auto_flush):
        svc = service(pricing_service, tiny_workload, auto_flush,
                      max_pending=2)
        layers = candidates(tiny_workload, 4)
        svc.quote(layers[0])
        with pytest.raises(AdmissionError):
            svc.quote_many(layers)
        metrics = svc.telemetry.snapshot()["metrics"]
        assert (metrics["serve.requests"], metrics["serve.cache.hits"],
                metrics["serve.shed"]) == (5, 1, 3)
        assert svc.batcher.n_pending == 0


class TestEntries:
    def test_n_pending_and_the_cap_count_rows(self):
        taken = []
        batcher = MicroBatcher(
            lambda pendings: taken.append([p.item for p in pendings])
            or [p.item for p in pendings], BatchPolicy(8))
        futures = [batcher.submit(item, rows)
                   for item, rows in (("a", 5), ("b", 3), ("c", 5), ("d", 1))]
        assert batcher.n_pending == 14
        assert batcher.flush() == 2
        assert batcher.n_pending == 6
        batcher.drain()
        assert taken == [["a", "b"], ["c", "d"]]
        assert [f.result(PATIENCE) for f in futures] == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("rows", [0, 9])
    def test_an_entry_holds_one_to_max_batch_rows(self, rows):
        batcher = MicroBatcher(lambda pendings: [], BatchPolicy(8))
        with pytest.raises(ConfigurationError, match="max_batch"):
            batcher.submit("x", rows)
        assert batcher.n_pending == 0
