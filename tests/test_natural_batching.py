"""Natural batching: batches form from load, not from a timer.

The broker takes whatever is queued (up to ``max_batch``) the moment it
is free and consults no timer; ``window_seconds`` is accepted and
ignored.  Every test here is sequenced with events — the flush function
is gated on a ``threading.Event`` — so none depends on how fast the
host is; timeouts only bound a failure.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.serve import BatchPolicy, CachePolicy, MicroBatcher
from repro.serve import service as service_module

#: Bounds a failing test; a passing one never waits this long.
PATIENCE = 10.0

#: A window no passing test could afford to wait out, were it read.
LONG_WINDOW = 60.0


class GatedFlush:
    """A flush function whose first ``gated`` calls block until released.

    Records every batch it is handed (as the list of items) and
    releases ``entered`` once each time a gated call starts blocking.
    """

    def __init__(self, gated: int = 1) -> None:
        self.batches: list[list] = []
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()
        self._gated = gated
        self._lock = threading.Lock()

    def __call__(self, pendings) -> list:
        with self._lock:
            self.batches.append([p.item for p in pendings])
            gate = self._gated > 0
            self._gated -= 1
        if gate:
            self.entered.release()
            assert self.release.wait(PATIENCE), "gate never released"
        return [p.item for p in pendings]

    def sizes(self) -> list[int]:
        return [len(b) for b in self.batches]


def results(futures) -> list:
    return [f.result(timeout=PATIENCE) for f in futures]


@pytest.fixture
def batcher_of():
    """Build started (auto-flush) batchers; stops them at teardown."""
    built = []

    def build(flush, max_batch=64):
        batcher = MicroBatcher(flush, BatchPolicy(max_batch, LONG_WINDOW))
        built.append((batcher, flush))
        batcher.start()
        return batcher

    yield build
    for batcher, flush in built:
        flush.release.set()
        batcher.stop()


class TestBroker:
    def test_idle_broker_flushes_at_once(self, batcher_of):
        flush = GatedFlush(gated=0)
        batcher = batcher_of(flush)
        assert batcher.submit("a").result(timeout=1.0) == "a"
        assert flush.sizes() == [1]

    def test_arrivals_during_a_sweep_form_one_next_batch(self, batcher_of):
        flush = GatedFlush()
        batcher = batcher_of(flush)
        first = batcher.submit("head")
        assert flush.entered.acquire(timeout=PATIENCE)   # sweep in flight
        later = [batcher.submit(i) for i in range(7)]
        assert batcher.n_pending == 7, "nothing is taken mid-sweep"
        flush.release.set()
        assert results([first, *later]) == ["head", *range(7)]
        assert flush.sizes() == [1, 7]

    def test_max_batch_still_splits(self, batcher_of):
        flush = GatedFlush()
        batcher = batcher_of(flush, max_batch=4)
        first = batcher.submit("head")
        assert flush.entered.acquire(timeout=PATIENCE)
        later = [batcher.submit(i) for i in range(10)]
        flush.release.set()
        assert results([first, *later]) == ["head", *range(10)]
        assert flush.sizes() == [1, 4, 4, 2]
        assert flush.batches[1:] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_stop_flushes_what_raced_in(self, batcher_of):
        flush = GatedFlush()
        batcher = batcher_of(flush)
        first = batcher.submit("head")
        assert flush.entered.acquire(timeout=PATIENCE)
        raced = [batcher.submit(i) for i in range(5)]
        stopper = threading.Thread(target=batcher.stop)
        stopper.start()
        flush.release.set()
        stopper.join(PATIENCE)
        assert not stopper.is_alive()
        assert all(f.done() for f in [first, *raced])
        assert results(raced) == list(range(5))
        with pytest.raises(ConfigurationError):
            batcher.submit("late")

    def test_failed_batch_fails_only_its_own_futures(self, batcher_of):
        class Exploding(GatedFlush):
            def __call__(self, pendings):
                out = super().__call__(pendings)
                if "bad" in out:
                    raise RuntimeError("boom")
                return out

        flush = Exploding(gated=0)
        batcher = batcher_of(flush)
        bad = batcher.submit("bad")
        with pytest.raises(RuntimeError, match="boom"):
            bad.result(timeout=PATIENCE)
        assert batcher.submit("good").result(timeout=PATIENCE) == "good"

    def test_stress_every_request_priced_once(self, batcher_of):
        """More submitters than cores, a manual flusher racing the
        broker, a shortened switch interval: every request lands in
        exactly one batch, no batch exceeds ``max_batch``."""
        flush = GatedFlush(gated=0)
        batcher = batcher_of(flush, max_batch=8)
        n_threads, per_thread = 8, 60
        futures: dict[int, list] = {}
        racing = threading.Event()

        def submitter(tid):
            futures[tid] = [batcher.submit((tid, i))
                            for i in range(per_thread)]

        def manual_flusher():
            while not racing.is_set():
                batcher.flush()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submitter, args=(tid,))
                       for tid in range(n_threads)]
            flusher = threading.Thread(target=manual_flusher)
            for t in [flusher, *threads]:
                t.start()
            for t in threads:
                t.join(PATIENCE)
            for tid in range(n_threads):
                assert results(futures[tid]) == [
                    (tid, i) for i in range(per_thread)]
            racing.set()
            flusher.join(PATIENCE)
        finally:
            racing.set()
            sys.setswitchinterval(interval)
        assert not flusher.is_alive()
        assert not any(t.is_alive() for t in threads)
        priced = [item for batch in flush.batches for item in batch]
        assert len(priced) == n_threads * per_thread == len(set(priced))
        assert max(flush.sizes()) <= 8
        batcher.drain(timeout=PATIENCE)
        assert batcher.n_pending == 0


class TestService:
    def test_idle_service_answers_within_a_second(self, tiny_workload,
                                                  pricing_service):
        layer = tiny_workload.portfolio.layers[0]
        with pricing_service(
            tiny_workload.yet, cache=CachePolicy(0),
            batch=BatchPolicy(64, 5.0, auto_flush=True),
        ) as svc:
            quote = svc.quote(layer, timeout=1.0)
            again = svc.quote(layer, timeout=1.0)
        assert quote.premium == again.premium > 0
        assert svc.telemetry.snapshot()["metrics"]["serve.batches"] == 2

    def test_window_is_not_charged_to_admission(self, tiny_workload,
                                                pricing_service):
        """An idle service waits out no window, so a cap above the SLO
        sheds nothing."""
        layer = tiny_workload.portfolio.layers[0]
        with pricing_service(
            tiny_workload.yet, slo_seconds=1.0,
            batch=BatchPolicy(64, 5.0),
        ) as svc:
            assert svc.quote(layer).premium > 0
            assert svc.telemetry.snapshot()["metrics"]["serve.shed"] == 0
        # the keyword itself still adds a declared fixed wait
        assert not svc.admission.decide(0, 1.0, window_seconds=5.0).accepted

    def test_miss_latency_runs_from_submission(self, tiny_workload,
                                               monkeypatch, pricing_service):
        """A miss is charged its digest, cache lookup and admission,
        like a hit: both clocks start at ``submit()`` entry."""
        pause = 0.05
        real_digest = service_module.layer_digest

        def slow_digest(layer):
            time.sleep(pause)
            return real_digest(layer)

        monkeypatch.setattr(service_module, "layer_digest", slow_digest)
        layer = tiny_workload.portfolio.layers[0]
        with pricing_service(tiny_workload.yet) as svc:
            miss = svc.quote(layer)
            hit = svc.quote(layer)
            metrics = svc.telemetry.snapshot()["metrics"]
            assert metrics["serve.cache.hits"] == 1
        assert miss.latency_seconds >= pause
        assert hit.latency_seconds >= pause
        assert metrics["serve.request.seconds.count"] == 2
        assert metrics["serve.request.seconds.sum"] >= 2 * pause
