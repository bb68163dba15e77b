"""Same-book tail groups priced off the book profiles of a trial span.

Four contracts:

- **on the path**: hand-computed and benchmark-density stacks are
  *proved* to have resolved their group rows off a profile, so a silent
  lane fallback cannot pass (oracle parity over every source and
  dispatcher is ``tests/test_equivalence_matrix.py``);
- **invariance**: a tail row's answer is a function of the trial and
  the row — ``np.array_equal`` across whole / blocked / pooled /
  degraded sweeps, MapReduce splits and device chunks, and across group
  compositions;
- **one build per (span, book) per process**, keyed by content, over
  the span's rows alone — a pool worker profiles its own span, never
  the whole YET — and the cache lives and dies with its span, which a
  ``YetTable`` keeps;
- **counted routing**: structural-group rows that go to lanes are
  counted by reason, and the counts reach the telemetry plane;
- **a count, not a search**: ``BookProfile.resolve`` equals the
  per-(trial, threshold) binary search it replaced, ``np.array_equal``,
  and is proved to run as one ``bincount`` per group with no search
  into the occurrences; a profile's bytes are gauged exactly.
"""

import gc
import hashlib
import pickle
import sys
import threading
import tracemalloc
import weakref
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from conftest import make_yet, worker_probes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tables
from repro.core.engines import (DeviceEngine, MapReduceEngine,
                                SequentialEngine, VectorizedEngine)
from repro.core.kernels import (_HANDLE_FIELDS, MIN_TAIL_GROUP,
                                ROUTING_COUNTERS, PortfolioKernel)
from repro.core.layer import Layer
from repro.core.lookup import DENSE_MAX_ENTRIES, fits_direct
from repro.core.portfolio import Portfolio
from repro.core.tables import BookProfile, EltTable, StoredYet, TrialSegments
from repro.core.terms import LayerTerms
from repro.data.store import ChunkStore
from repro.hpc import shm
from repro.serve import CachePolicy
from repro.serve.dispatch import InlineDispatcher, PooledDispatcher
from repro.session import RiskSession

RTOL, ATOL = 1e-9, 1e-6


def random_yet(rng, n_trials, width, mean=12):
    counts = rng.poisson(mean, n_trials)
    trials = np.repeat(np.arange(n_trials), counts)
    return make_yet(trials, rng.integers(0, width + 3, trials.size), n_trials)


def book(rng, width=40, contract_id=0):
    return EltTable.from_arrays(np.arange(width), rng.lognormal(10, 1.5, width),
                                contract_id=contract_id)


def tail_layers(elt, n=MIN_TAIL_GROUP, start=0):
    return [Layer(start + i, [elt],
                  LayerTerms(occ_retention=2e3 * (start + i), occ_limit=5e4))
            for i in range(n)]


@contextmanager
def profile_proof():
    """Counts the rows resolved off profiles, and the profile builds.

    The tail-group path has one implementation and it prices through
    ``BookProfile.resolve``; counting its rows makes "this sweep priced
    the group off a profile" an observable instead of an assumption.
    """
    seen = {"rows": 0, "builds": 0}
    resolve, build = BookProfile.resolve, BookProfile.build.__func__

    def counted_resolve(self, lo, hi):
        seen["rows"] += lo.size
        return resolve(self, lo, hi)

    def counted_build(cls, *args, **kwargs):
        seen["builds"] += 1
        return build(cls, *args, **kwargs)

    BookProfile.resolve = counted_resolve
    BookProfile.build = classmethod(counted_build)
    try:
        yield seen
    finally:
        BookProfile.resolve = resolve
        BookProfile.build = classmethod(build)


def ran_on_profile(sweep, rows):
    """Run ``sweep()``; assert exactly ``rows`` rows resolved off a profile."""
    with profile_proof() as seen:
        result = sweep()
    assert seen["rows"] == rows, (
        f"{seen['rows']} rows priced off a profile, expected {rows}")
    return result


def profile_bytes(profile):
    """A profile's bytes from its counts: 4 B rank + 8 B running sum per
    positive occurrence, each trial's leading 0.0 and offset (8 B each,
    plus the closing offset) and 8 B per positive stored value."""
    return (12 * profile.ranks.size + 16 * profile.n_trials + 8
            + 8 * profile.thresholds.size)


def profile_levels(yet):
    """The ``yet.profile.*`` levels of ``yet``, summed over its spans."""
    return {name: level for name, level in yet.cache_levels().items()
            if name.startswith("yet.profile.")}


def span_profiles(span):
    """The profiles a span holds, least recently used first."""
    return list(span._profiles._profiles.values())


def trials_of(profile, t0, t1):
    """Trials ``[t0, t1)`` of ``profile``, renumbered from 0: the arrays
    a profile built over that span alone must equal."""
    a, b = int(profile.offsets[t0]), int(profile.offsets[t1])
    return BookProfile(profile.ranks[a:b], profile.prefix[a + t0:b + t1],
                       profile.offsets[t0:t1 + 1] - a, profile.thresholds)


# ---------------------------------------------------------------------------
# parity against the scalar oracle
# ---------------------------------------------------------------------------

def test_hand_computed_profile_sweep():
    """Known non-zero answers, losses exactly at ``lo`` and at ``hi``."""
    elt = EltTable.from_arrays([1, 2, 3, 4], [100.0, 250.0, 400.0, 0.0])
    terms = [LayerTerms(occ_retention=100.0, occ_limit=150.0)]   # [100, 250]
    terms += [LayerTerms(occ_retention=250.0 + i, occ_limit=1e3)
              for i in range(MIN_TAIL_GROUP - 1)]
    kernel = Portfolio([Layer(i, [elt], t) for i, t in enumerate(terms)]).kernel()
    assert kernel.tail_group_rows == MIN_TAIL_GROUP
    # trial 1: 100 (at lo), 250 (at hi), unknown 9, zero-loss 4
    # trial 3: 400, 400;  trial 4: a single 250;  trials 0, 2, 5 empty
    yet = make_yet([1, 1, 1, 1, 3, 3, 4], [1, 2, 9, 4, 3, 3, 2], n_trials=6)
    annual = ran_on_profile(
        lambda: kernel.sweep_segments(yet.trial_block()), MIN_TAIL_GROUP)
    np.testing.assert_array_equal(annual[0], [0, 150.0, 0, 300.0, 150.0, 0])
    np.testing.assert_array_equal(annual[1], [0, 0.0, 0, 300.0, 0.0, 0])
    np.testing.assert_array_equal(annual[2], [0, 0.0, 0, 298.0, 0.0, 0])


def test_profile_parity_at_benchmark_like_density():
    """Hundreds of positives per trial, 32 rows: the measured bound
    (≈ 2e-8 abs at 500k occurrences) holds with room at this scale."""
    rng = np.random.default_rng(5)
    elt = book(rng, width=400)
    yet = random_yet(rng, n_trials=150, width=400, mean=300)
    layers = [Layer(i, [elt], LayerTerms(occ_retention=float(r),
                                         occ_limit=float(c)))
              for i, (r, c) in enumerate(zip(rng.uniform(0, 2e5, 32),
                                             rng.uniform(1e3, 5e5, 32)))]
    portfolio = Portfolio(layers)
    kernel = portfolio.kernel()
    oracle = SequentialEngine().run(portfolio, yet).ylt_by_layer
    annual = ran_on_profile(
        lambda: kernel.sweep_segments(yet.trial_block()), 32)
    assert annual.any()
    for row, lid in enumerate(kernel.layer_ids):
        np.testing.assert_allclose(annual[row], oracle[lid].losses,
                                   rtol=RTOL, atol=ATOL)
    lanes = kernel.sweep_segments(yet.trial_block(), sublinear=False)
    assert np.abs(annual - lanes).max() <= 1e-7


# ---------------------------------------------------------------------------
# invariance: a function of the trial and the row
# ---------------------------------------------------------------------------

class TestInvariance:
    def test_a_row_does_not_depend_on_its_group(self):
        rng = np.random.default_rng(12)
        yet = random_yet(rng, n_trials=120, width=40)
        elt = book(rng)
        layers = tail_layers(elt, 2 * MIN_TAIL_GROUP)
        both = PortfolioKernel.from_layers(layers).sweep_segments(
            yet.trial_block())
        first = PortfolioKernel.from_layers(
            layers[:MIN_TAIL_GROUP]).sweep_segments(yet.trial_block())
        # reversed order, other companions, the same rows
        mixed = PortfolioKernel.from_layers(
            layers[:3:-1]).sweep_segments(yet.trial_block())
        np.testing.assert_array_equal(first, both[:MIN_TAIL_GROUP])
        np.testing.assert_array_equal(mixed[::-1], both[4:])
        # ... and a row resolved alone
        kernel = PortfolioKernel.from_layers(layers)
        (profile,) = span_profiles(yet.trial_block())
        alone = profile.resolve(kernel.occ_floor[5:6], kernel.occ_ceiling[5:6])
        np.testing.assert_array_equal(alone[0], both[5])

    def test_a_span_profiles_its_own_trials(self):
        """A span's profile holds its trials' rows alone, and its arrays,
        dtypes included, are the whole-table profile's trials; each
        span's answer is the whole sweep's columns."""
        rng = np.random.default_rng(13)
        yet = random_yet(rng, n_trials=50, width=40)
        kernel = PortfolioKernel.from_layers(tail_layers(book(rng)))
        answer = kernel.sweep_segments(yet.trial_block())
        (whole,) = span_profiles(yet.trial_block())
        for t0, t1 in ((10, 30), (0, 1), (49, 50), (0, 50)):
            part = yet.trial_block(t0, t1)
            np.testing.assert_array_equal(
                kernel.sweep_segments(part), answer[:, t0:t1])
            (profile,) = span_profiles(part)
            assert profile.n_trials == t1 - t0
            assert_same_profile(profile, trials_of(whole, t0, t1))
        # zero losses and unknown events are not stored
        events = yet.event_ids
        losses = kernel._lookup(0)(events)
        assert whole.ranks.size == np.count_nonzero(losses) < events.size

    #: One level per source that cuts a YET into pieces: the engine a
    #: session runs, and the ``details`` entry that counts the pieces it
    #: cuts the shape below into; or the chunk size a stored YET is
    #: written at, and its chunk count.
    PIECES = {
        **{f"mapreduce{n}": (lambda n=n: MapReduceEngine(n_splits=n),
                             ("n_splits", n)) for n in (1, 2, 4, 13)},
        **{f"device{rows}": (
            lambda rows=rows: DeviceEngine(max_rows_per_chunk=rows),
            ("n_chunks_total", chunks))
           for rows, chunks in ((1, 20), (50, 3), (97, 2), (None, 1))},
        "multicore2": (lambda: "multicore", ("n_blocks", 2)),
        **{f"stored{name}": (rows, ("yet.store.chunks_read", chunks))
           for name, rows, chunks in (("1", 1, 20), ("97", 97, 2),
                                      ("all", 495, 1))},
    }

    @pytest.mark.parametrize("level", PIECES)
    def test_every_span_of_a_table_routes_a_row_alike(self, level, tmp_path):
        """Rows whose retention lies inside the shift-mask bound of a
        piece of short trials and outside that of the piece holding the
        one long trial route by the whole YET's longest trial in every
        piece, so an engine that cuts the YET — MapReduce splits, device
        chunks, pool spans, the chunks of a stored YET — agrees with the
        vectorized whole-YET sweep cell for cell."""
        rng = np.random.default_rng(0)
        counts = np.full(20, 5)
        counts[-1] = 400
        trials = np.repeat(np.arange(20), counts)
        yet = make_yet(trials, rng.integers(0, 50, trials.size), 20)
        elt = EltTable.from_arrays(np.arange(50), rng.uniform(2e8, 3e8, 50))
        portfolio = Portfolio([
            Layer(i, [elt], LayerTerms(occ_retention=2.3e8 + i * 1e5))
            for i in range(MIN_TAIL_GROUP)])
        engine, (counted, n_pieces) = self.PIECES[level]
        with RiskSession(yet, portfolio, n_workers=2) as session:
            whole = session.aggregate(engine="vectorized")
            if level.startswith("stored"):
                stored = StoredYet.write(ChunkStore(tmp_path), "yet", yet,
                                         engine)
                cut = VectorizedEngine().run(portfolio, stored)
                assert stored.cache_levels()[counted] == n_pieces
            else:
                cut = session.aggregate(engine=engine())
                assert cut.details[counted] == n_pieces
        for lid, ylt in whole.ylt_by_layer.items():
            np.testing.assert_array_equal(cut.ylt_by_layer[lid].losses,
                                          ylt.losses)
        assert whole.details["routed"]["kernel.fallback.error_bound"] == (
            MIN_TAIL_GROUP)


# ---------------------------------------------------------------------------
# one build per (YET, book) per process; the cache dies with its YET
# ---------------------------------------------------------------------------

def fresh_same_book_batch(rng_seed, start):
    """Equal-content, *distinct* ELT / layer / lookup objects per batch."""
    return tail_layers(book(np.random.default_rng(rng_seed)), start=start)


def _worker_profile_builds(yet):  # pragma: no cover - runs in a worker
    return yet.cache_levels()["yet.profile.builds"]


def _worker_profile_levels(yet):  # pragma: no cover - runs in a worker
    levels = yet.cache_levels()
    return levels["yet.profile.builds"], levels["yet.profile.bytes"]


class TestOneBuildPerYetAndBook:
    N_BATCHES = 6

    def test_inline_batches_of_fresh_kernels_share_one_build(self):
        yet = random_yet(np.random.default_rng(21), n_trials=80, width=40)
        with profile_proof() as seen:
            for batch in range(self.N_BATCHES):
                kernel = PortfolioKernel.from_layers(
                    fresh_same_book_batch(7, start=batch))
                InlineDispatcher().run(kernel, yet)
        assert seen["builds"] == 1
        assert seen["rows"] == self.N_BATCHES * MIN_TAIL_GROUP
        (profile,) = span_profiles(yet.trial_block())
        assert profile_levels(yet) == {
            "yet.profile.builds": 1,
            "yet.profile.hits": self.N_BATCHES - 1,
            "yet.profile.evictions": 0,
            "yet.profile.resident": 1,
            "yet.profile.bytes": profile_bytes(profile),
        }

    def test_padding_beside_a_wider_book_does_not_change_the_key(self):
        yet = random_yet(np.random.default_rng(22), n_trials=40, width=40)
        wide = EltTable.from_arrays([500], [1.0], contract_id=3)
        layers = fresh_same_book_batch(7, 0)
        PortfolioKernel.from_layers(layers).sweep_segments(yet.trial_block())
        stacked = PortfolioKernel.from_layers(
            layers + [Layer(99, [wide], LayerTerms())])
        # the book beside spans a wider id range (once, a wider table)
        assert int(stacked.book(1)[0][-1]) + 1 > 40
        stacked.sweep_segments(yet.trial_block())
        levels = profile_levels(yet)
        assert (levels["yet.profile.builds"], levels["yet.profile.hits"]) == (
            1, 1)

    def test_pooled_workers_build_once_per_span(self):
        """Six batches, two spans: span 0 runs on the caller and span 1
        on the one worker every time, so each side builds one profile,
        of its own span, however many batches it prices."""
        yet = random_yet(np.random.default_rng(23), n_trials=90, width=40)
        with PooledDispatcher(n_workers=2) as d:
            for batch in range(self.N_BATCHES):
                d.run(PortfolioKernel.from_layers(
                    fresh_same_book_batch(7, start=batch)), yet)
            assert d.transport_active == "shm"
            spans = d.spans(yet)
            seen = worker_probes(d, _worker_profile_builds)
        assert len(spans) == 2
        assert list(seen.values()) == [1]
        # the caller's span 0, built here once and never shipped
        assert profile_levels(yet)["yet.profile.builds"] == 1
        assert list(yet._spans) == [spans[0]]

    def test_a_pooled_worker_holds_its_own_spans_profile(self):
        """A 2-processor batch of same-book quotes: the worker builds the
        profile of span 1, the caller that of span 0, each over its own
        span's rows — each side's ``yet.profile.bytes`` is the
        hand-computed size of its own span's profile, never the whole
        YET's."""
        rng = np.random.default_rng(27)
        yet = random_yet(rng, n_trials=90, width=40)
        elt = book(rng)
        layers = tail_layers(elt, 2 * MIN_TAIL_GROUP)
        with RiskSession(yet, n_workers=2) as session:
            service = session.pricing_service(engine="pooled",
                                              cache=CachePolicy(0))
            service.quote_many(layers)
            d = session.dispatcher("pooled")
            assert d.transport_active == "shm"
            spans = d.spans(yet)
            seen = worker_probes(d, _worker_profile_levels)
        assert len(spans) == 2

        def hand_bytes(t0, t1):
            rows = slice(*yet.trial_offsets[[t0, t1]].tolist())
            events = yet.event_ids[rows]
            positive = np.count_nonzero(
                elt.mean_losses[np.minimum(events, 39)] * (events < 40))
            return (12 * positive + 16 * (t1 - t0) + 8
                    + 8 * np.count_nonzero(elt.mean_losses))

        sizes = [hand_bytes(*span) for span in spans]
        whole = hand_bytes(0, yet.n_trials)
        assert whole not in sizes + [sum(sizes)]
        assert list(seen.values()) == [(1, sizes[1])]
        levels = profile_levels(yet)
        assert (levels["yet.profile.builds"], levels["yet.profile.bytes"]) == (
            1, sizes[0])

    def test_concurrent_sweeps_share_one_build(self):
        yet = random_yet(np.random.default_rng(24), n_trials=200, width=40)
        yet.trial_block()
        kernels = [PortfolioKernel.from_layers(fresh_same_book_batch(7, i))
                   for i in range(6)]
        answers, barrier = [None] * len(kernels), threading.Barrier(len(kernels))

        def sweep(i):
            barrier.wait(timeout=10)
            answers[i] = kernels[i].sweep_segments(yet.trial_block())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=sweep, args=(i,))
                       for i in range(len(kernels))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        levels = profile_levels(yet)
        assert levels["yet.profile.builds"] == 1
        assert levels["yet.profile.hits"] == len(kernels) - 1
        for i, kernel in enumerate(kernels):
            np.testing.assert_array_equal(
                answers[i], kernel.sweep_segments(yet.trial_block()))

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(tables, "MAX_BOOK_PROFILES", 2)
        yet = random_yet(np.random.default_rng(25), n_trials=30, width=40)
        for seed in (1, 2, 3, 1):
            PortfolioKernel.from_layers(
                fresh_same_book_batch(seed, 0)).sweep_segments(
                    yet.trial_block())
        assert profile_levels(yet) == {
            "yet.profile.builds": 4,     # book 1 was evicted by book 3
            "yet.profile.hits": 0,
            "yet.profile.evictions": 2,
            "yet.profile.resident": 2,
            "yet.profile.bytes": sum(map(profile_bytes,
                                         span_profiles(yet.trial_block()))),
        }

    def test_profiles_are_not_pickled_with_the_yet(self):
        yet = random_yet(np.random.default_rng(26), n_trials=30, width=40)
        kernel = PortfolioKernel.from_layers(fresh_same_book_batch(7, 0))
        answer = kernel.sweep_segments(yet.trial_block())
        copy = pickle.loads(pickle.dumps(yet))
        assert profile_levels(yet)["yet.profile.resident"] == 1
        assert profile_levels(copy)["yet.profile.resident"] == 0
        np.testing.assert_array_equal(
            kernel.sweep_segments(copy.trial_block(3, 20)), answer[:, 3:20])
        assert profile_levels(copy)["yet.profile.builds"] == 1


class TestCacheLifetime:
    """The profile is released with its YET: nothing else holds it."""

    @staticmethod
    def profile_ref(yet):
        (profile,) = span_profiles(yet.trial_block())
        return weakref.ref(profile.ranks)

    def test_a_session_over_a_new_yet_starts_with_no_profiles(self):
        """A new trial set is a new session: its YET holds no profile
        until its first burst builds one, and nothing of the old set's
        profile is read."""
        rng = np.random.default_rng(31)
        old, new = (random_yet(rng, n_trials=60, width=40) for _ in range(2))
        layers = fresh_same_book_batch(7, 0)
        premiums = []
        for yet in (old, new):
            with RiskSession(yet) as session:
                assert profile_levels(yet)["yet.profile.builds"] == 0
                service = session.pricing_service(engine="inline",
                                                  cache=CachePolicy(0))
                premiums.append([q.premium
                                 for q in service.quote_many(layers)])
                assert profile_levels(yet)["yet.profile.builds"] == 1
        assert profile_levels(old)["yet.profile.builds"] == 1
        assert premiums[0] != premiums[1]

    def test_no_growth_over_set_up_cycles(self):
        """The benchmark's set-up cycle: session + service + one burst,
        closed, dropped, collected (sessions and services refer to each
        other) — nothing outside the YET may hold its profile."""
        rng = np.random.default_rng(32)
        layers = fresh_same_book_batch(7, 0)
        for _ in range(4):
            yet = random_yet(rng, n_trials=60, width=40)
            session = RiskSession(yet)
            service = session.pricing_service(cache=CachePolicy(0))
            service.quote_many(layers)
            ref = self.profile_ref(yet)
            session.close()
            del yet, session, service
            gc.collect()
            assert ref() is None, "a closed session's profile outlived it"


# ---------------------------------------------------------------------------
# counted routing
# ---------------------------------------------------------------------------

class TestCountedRouting:
    def setup_method(self):
        rng = np.random.default_rng(41)
        self.yet = random_yet(rng, n_trials=60, width=40)
        self.elt = book(rng)

    def routed(self, kernel, **counts):
        """Where the kernel's rows (all in one structural group) went;
        every fallback row is a lane row, by whichever lane path."""
        lanes = ("kernel.lane_rows.by_event", "kernel.lane_rows.by_stream")
        expected = dict.fromkeys(set(ROUTING_COUNTERS) - set(lanes), 0)
        expected.update({f"kernel.{k.replace('__', '.')}": v
                         for k, v in counts.items()})
        routed = dict(kernel.routed)
        assert sum(routed.pop(name) for name in lanes) == sum(
            v for k, v in counts.items() if k.startswith("fallback"))
        assert routed == expected

    def test_rows_past_the_error_bound_go_to_lanes_counted(self):
        layers = tail_layers(self.elt, MIN_TAIL_GROUP + 2)
        layers[3] = Layer(3, [self.elt], LayerTerms(occ_retention=1e12))
        kernel = PortfolioKernel.from_layers(layers)
        annual = ran_on_profile(
            lambda: kernel.sweep_segments(self.yet.trial_block()),
            MIN_TAIL_GROUP + 1)
        self.routed(kernel, profile_rows=MIN_TAIL_GROUP + 1,
                    fallback__error_bound=1)
        np.testing.assert_array_equal(annual[3], 0.0)
        # one more row out and the group is below MIN_TAIL_GROUP: lanes
        layers = layers[:MIN_TAIL_GROUP]
        kernel = PortfolioKernel.from_layers(layers)
        lanes = ran_on_profile(
            lambda: kernel.sweep_segments(self.yet.trial_block()), 0)
        self.routed(kernel, fallback__error_bound=MIN_TAIL_GROUP)
        np.testing.assert_allclose(lanes, annual[:MIN_TAIL_GROUP],
                                   rtol=RTOL, atol=ATOL)

    def test_forced_lane_sweeps_are_counted(self):
        kernel = PortfolioKernel.from_layers(tail_layers(self.elt))
        yet = self.yet
        forced = ran_on_profile(lambda: kernel.sweep_segments(
            yet.trial_block(), sublinear=False), 0)
        self.routed(kernel, fallback__sublinear_off=MIN_TAIL_GROUP)
        whole = kernel.sweep_segments(yet.trial_block())
        self.routed(kernel, fallback__sublinear_off=MIN_TAIL_GROUP,
                    profile_rows=MIN_TAIL_GROUP)
        np.testing.assert_allclose(forced, whole, rtol=RTOL, atol=ATOL)

    def test_negative_retention_never_takes_the_profile(self):
        # zero losses would price under r < 0, and a profile holds none
        base = PortfolioKernel.from_layers(tail_layers(self.elt))
        arrays = {name: getattr(base, name) for name in _HANDLE_FIELDS}
        arrays["occ_retention"] = base.occ_retention - 1e4
        kernel = PortfolioKernel(layer_ids=base.layer_ids, **arrays)
        negative = int((kernel.occ_retention < 0).sum())
        assert 0 < negative < MIN_TAIL_GROUP
        kernel.sweep_segments(self.yet.trial_block())
        self.routed(kernel, fallback__error_bound=MIN_TAIL_GROUP)

    def test_counts_reach_the_telemetry_plane(self):
        layers = tail_layers(self.elt, MIN_TAIL_GROUP + 4)
        with RiskSession(self.yet, Portfolio(layers)) as session:
            session.aggregate(engine="vectorized")
            service = session.pricing_service(cache=CachePolicy(0))
            service.quote_many(layers[:MIN_TAIL_GROUP])
            metrics = session.telemetry.snapshot()["metrics"]
        assert metrics["kernel.profile_rows"] == 2 * MIN_TAIL_GROUP + 4
        # forcing lanes is the kernel's to do; no entry point here does
        assert metrics["kernel.fallback.sublinear_off"] == 0
        assert metrics["kernel.fallback.error_bound"] == 0
        assert metrics["yet.profile.builds"] == 1
        assert metrics["yet.profile.hits"] == 1
        assert metrics["serve.sublinear.rows"] == MIN_TAIL_GROUP
        assert metrics["serve.sublinear.batches"] == 1


def test_a_book_is_hashed_once_across_burst_batches(monkeypatch):
    """A profile's key is the book's content hash, taken once per
    interned book, not once per sweep: six bursts over one book (a fresh
    stacked kernel each) hash its entries once; a kernel attached from
    handles hashes them once more, once for the instance."""
    rng = np.random.default_rng(52)
    yet = random_yet(rng, n_trials=60, width=40)
    layers = tail_layers(book(rng), 2 * MIN_TAIL_GROUP)
    ids = layers[0].lookup().ids.tobytes()
    hashed = []
    blake2b = hashlib.blake2b

    def counting(data=b"", **kwargs):
        hashed.append(bytes(data) == ids)
        return blake2b(data, **kwargs)

    monkeypatch.setattr(hashlib, "blake2b", counting)
    with RiskSession(yet) as session:
        service = session.pricing_service(engine="inline",
                                          cache=CachePolicy(0))
        for _ in range(6):
            service.quote_many(layers)
        metrics = session.telemetry.snapshot()["metrics"]
    assert metrics["kernel.profile_rows"] == 6 * 2 * MIN_TAIL_GROUP
    assert sum(hashed) == 1
    with shm.SharedArena() as arena:
        attached = PortfolioKernel.from_handles(
            PortfolioKernel.from_layers(layers).export_handles(arena))
        for t0, t1 in ((0, 60), (0, 30), (30, 60)):
            attached.sweep_segments(yet.trial_block(t0, t1))
        del attached
    assert sum(hashed) == 2


def test_raw_segments_build_for_the_call_only():
    """A raw sweep's span is built for the call and dies with it; a
    span held by the caller keeps its profile like a table's."""
    rng = np.random.default_rng(51)
    yet = random_yet(rng, n_trials=40, width=40)
    kernel = PortfolioKernel.from_layers(tail_layers(book(rng)))
    with profile_proof() as seen:
        for _ in range(2):
            kernel.sweep(yet.trials, yet.event_ids, yet.n_trials)
    assert seen == {"rows": 2 * MIN_TAIL_GROUP, "builds": 2}
    segments = TrialSegments.from_sorted_trials(yet.trials, yet.event_ids,
                                                yet.n_trials)
    with profile_proof() as seen:
        for _ in range(2):
            kernel.sweep_segments(segments)
    assert seen == {"rows": 2 * MIN_TAIL_GROUP, "builds": 1}
    assert profile_levels(yet)["yet.profile.builds"] == 0


# ---------------------------------------------------------------------------
# a count, not a search
# ---------------------------------------------------------------------------

def dense_gather(event_ids, out, values):
    """A dense book's lookup: ``values[id]``, 0 past the table."""
    np.take(values, event_ids, mode="clip", out=out)
    out[event_ids >= values.size] = 0.0
    return out


def hand_profile(trials, event_ids, values, n_trials,
                 block=TrialSegments.block_occurrences, ids=None):
    """The profile of the book ``(ids, values)`` — ids ``0, 1, ...``
    unless given — over a hand-built stream read in blocks of ``block``
    occurrences, and the looped reference build of the same stream,
    asserted equal array by array."""
    segments = TrialSegments.from_sorted_trials(
        np.asarray(trials, dtype=np.int64),
        np.asarray(event_ids, dtype=np.int64), n_trials)
    values = np.asarray(values, dtype=np.float64)
    ids = np.arange(values.size) if ids is None else np.asarray(ids)
    with mock.patch.object(TrialSegments, "block_occurrences", block):
        profile = BookProfile.build(segments, ids, values)
    assert_same_profile(profile, looped_build(segments, ids, values))
    return profile


def looped_build(segments, ids, values):
    """The build the flat passes replaced, kept as the reference: a
    float64 rank found for every occurrence by its own search of the
    book's ids (not the library's lookup), one ``trial * stride + rank``
    key sort over the re-expanded trial column, and one
    ``np.add.accumulate`` per trial."""
    order = np.argsort(values, kind="stable")
    order = order[np.searchsorted(values[order], 0.0, side="right"):]
    thresholds = values[order]
    stride = thresholds.size + 1
    rank = np.zeros(values.size)
    rank[order] = np.arange(1, stride)
    event_ids = segments.event_ids
    at = np.minimum(np.searchsorted(ids, event_ids), ids.size - 1)
    ranks = np.where(ids[at] == event_ids, rank[at], 0.0)
    positive = np.flatnonzero(ranks)
    trials = np.repeat(segments.trial_ids, np.diff(segments.bounds))
    keys = trials[positive].astype(np.int64) * stride
    keys += ranks[positive].astype(np.int64)
    keys.sort()
    n_trials = segments.n_trials
    offsets = np.searchsorted(
        keys, np.arange(n_trials + 1, dtype=np.int64) * stride)
    ranks = (keys % stride).astype(np.int32)
    losses = thresholds[ranks - 1]
    prefix = np.zeros(ranks.size + n_trials)
    for t in np.flatnonzero(np.diff(offsets)).tolist():
        a, b = offsets[t], offsets[t + 1]
        np.add.accumulate(losses[a:b], out=prefix[a + t + 1:b + t + 1])
    return BookProfile(ranks, prefix, offsets, thresholds)


def assert_same_profile(got, want):
    for name in BookProfile.__slots__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def searched_resolve(profile, lo, hi):
    """The resolve the counting pass replaced, kept as the reference:
    one ``searchsorted`` per (trial, distinct threshold rank) into the
    ascending ``trial * stride + rank`` keys, rebuilt here from
    ``ranks`` / ``offsets``."""
    n_trials, stride = profile.n_trials, profile.thresholds.size + 1
    base = np.arange(n_trials, dtype=np.int64) * stride
    keys = np.repeat(base, np.diff(profile.offsets)) + profile.ranks
    below = np.searchsorted(profile.thresholds, lo, side="right")
    inside = np.maximum(
        np.searchsorted(profile.thresholds, hi, side="left"), below)
    ranks, column = np.unique(np.concatenate((below, inside)),
                              return_inverse=True)
    pos = np.searchsorted(keys, base[:, None] + ranks, side="right")
    shift = np.arange(n_trials)[:, None]
    pos += shift
    i, j = pos[:, column[:lo.size]], pos[:, column[lo.size:]]
    res = profile.prefix[j] - profile.prefix[i]
    res -= lo * (j - i)
    cap = hi - lo
    res += (np.where(np.isinf(cap), 0.0, cap)
            * (profile.offsets[1:, None] + shift - j))
    return np.maximum(res, 0.0, out=res).T


@st.composite
def counting_case(draw):
    """A hand-built stream and book, and a group of 16, 32 or 64 windows
    over a small pool of thresholds — stored values (ties at ``lo`` and
    at ``hi``), 0.0 and values between — so thresholds repeat across
    rows.  Rows cycle through ordinary windows, ``lo == hi``,
    ``hi = inf``, the infinite-retention ``[0, 0]`` window and ``lo =
    0``.  Trials without a positive loss are forced; the book may hold
    none at all, or repeat a value."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    width = draw(st.integers(1, 30))
    values = (rng.choice([0.0, 1.0, 2.5, 7.0, 40.0, 1e3], width)
              if draw(st.booleans()) else rng.lognormal(5, 2, width))
    if draw(st.integers(0, 9)) == 0:
        values[:] = 0.0                              # no positive loss
    n_trials = draw(st.integers(1, 25))
    counts = rng.integers(0, 9, n_trials)
    counts[rng.random(n_trials) < 0.2] = 0           # empty trials
    trials = np.repeat(np.arange(n_trials), counts)
    events = rng.integers(0, width + 3, trials.size)  # some unknown ids
    events[trials == draw(st.integers(0, n_trials - 1))] = width + 1
    top = float(values.max())
    pool = np.unique(np.concatenate((
        [0.0], values, rng.uniform(0.0, 1.5 * top + 1.0, 3))))
    pool = rng.choice(pool, min(pool.size, draw(st.integers(1, 6))),
                      replace=False)
    n_rows = draw(st.sampled_from([16, 32, 64]))
    pairs = np.sort(rng.choice(pool, (n_rows, 2)), axis=1)
    lo, hi = pairs[:, 0].copy(), pairs[:, 1].copy()
    kind = np.arange(n_rows) % 5
    hi[kind == 1] = lo[kind == 1]                    # lo == hi
    hi[kind == 2] = np.inf
    lo[kind == 3] = hi[kind == 3] = 0.0              # infinite retention
    lo[kind == 4] = 0.0
    t0 = draw(st.integers(0, n_trials - 1))
    t1 = draw(st.integers(t0 + 1, n_trials))
    return trials, events, values, n_trials, lo, hi, (t0, t1)


@settings(max_examples=100, deadline=None)
@given(case=counting_case())
def test_counting_resolve_equals_the_search_it_replaced(case):
    trials, events, values, n_trials, lo, hi, (t0, t1) = case
    profile = hand_profile(trials, events, values, n_trials)
    losses = dense_gather(events, np.empty(events.size), values)
    assert profile.ranks.size == np.count_nonzero(losses)
    got = profile.resolve(lo, hi)
    assert got.shape == (lo.size, n_trials)
    np.testing.assert_array_equal(got, searched_resolve(profile, lo, hi))
    assert (got[(lo == hi)] == 0.0).all()
    # against the definition, within the shift mask's error budget
    for t in range(n_trials):
        g = losses[trials == t]
        g = g[g > 0.0]
        brute = np.clip(g - lo[:, None], 0.0, (hi - lo)[:, None]).sum(axis=1)
        bound = g.size * (lo + g.max(initial=0.0)) * 2.0 ** -50
        assert (np.abs(got[:, t] - brute) <= bound).all()
    # a span's profile answers its trials' columns
    rows = (trials >= t0) & (trials < t1)
    part = hand_profile(trials[rows] - t0, events[rows], values, t1 - t0)
    np.testing.assert_array_equal(part.resolve(lo, hi), got[:, t0:t1])
    np.testing.assert_array_equal(part.resolve(lo, hi),
                                  searched_resolve(part, lo, hi))


def test_a_book_with_no_positive_loss_resolves_to_zero():
    profile = hand_profile([0, 0, 2], [1, 2, 1], [0.0, 0.0, 0.0], 3)
    assert profile.ranks.size == profile.thresholds.size == 0
    lo = np.zeros(MIN_TAIL_GROUP)
    hi = np.full(MIN_TAIL_GROUP, np.inf)
    np.testing.assert_array_equal(profile.resolve(lo, hi),
                                  np.zeros((MIN_TAIL_GROUP, 3)))
    part = hand_profile([1], [1], [0.0, 0.0, 0.0], 2)
    np.testing.assert_array_equal(part.resolve(lo, hi),
                                  np.zeros((MIN_TAIL_GROUP, 2)))


class _NumpyAsTablesSeesIt:
    """``numpy`` as ``repro.core.tables`` calls it, recording the
    haystack of every ``searchsorted`` and every ``bincount`` call."""

    def __init__(self):
        self.haystacks, self.bincounts = [], 0

    def __getattr__(self, name):
        return getattr(np, name)

    def searchsorted(self, a, *args, **kwargs):
        self.haystacks.append(np.size(a))
        return np.searchsorted(a, *args, **kwargs)

    def bincount(self, *args, **kwargs):
        self.bincounts += 1
        return np.bincount(*args, **kwargs)


def test_a_group_resolves_by_one_count_not_a_search(monkeypatch):
    """The fast path ran: no search longer than the book's thresholds
    (a search into the occurrences would be far longer) and exactly one
    ``bincount`` per group."""
    rng = np.random.default_rng(61)
    yet = random_yet(rng, n_trials=200, width=40, mean=30)
    layers = (tail_layers(book(rng))
              + tail_layers(book(rng, contract_id=1), start=MIN_TAIL_GROUP))
    kernel = PortfolioKernel.from_layers(layers)
    assert len(kernel._tail_group_index()) == 2
    block = yet.trial_block()
    answer = kernel.sweep_segments(block)          # builds both profiles
    profiles = span_profiles(block)
    longest = max(p.thresholds.size for p in profiles) + 1
    assert min(p.ranks.size for p in profiles) > 10 * longest
    calls = _NumpyAsTablesSeesIt()
    with monkeypatch.context() as m:
        m.setattr(tables, "np", calls)
        again = ran_on_profile(lambda: kernel.sweep_segments(block),
                               2 * MIN_TAIL_GROUP)
    np.testing.assert_array_equal(again, answer)
    assert calls.bincounts == 2
    assert calls.haystacks and max(calls.haystacks) <= longest


def test_profile_bytes_are_counted_exactly():
    """The tiny book of the hand-computed sweep: 5 positive occurrences
    over 6 trials, 3 positive stored values — 12 B × 5 + 8 B × 6
    (running sums' leading zeros) + 8 B × 7 (offsets) + 8 B × 3."""
    elt = EltTable.from_arrays([1, 2, 3, 4], [100.0, 250.0, 400.0, 0.0])
    kernel = PortfolioKernel.from_layers(
        [Layer(i, [elt], LayerTerms(occ_retention=10.0 * i, occ_limit=1e3))
         for i in range(MIN_TAIL_GROUP)])
    yet = make_yet([1, 1, 1, 1, 3, 3, 4], [1, 2, 9, 4, 3, 3, 2], n_trials=6)
    assert yet.cache_levels()["yet.profile.bytes"] == 0
    ran_on_profile(lambda: kernel.sweep_segments(yet.trial_block()),
                   MIN_TAIL_GROUP)
    (profile,) = span_profiles(yet.trial_block())
    assert (profile.ranks.size, profile.thresholds.size) == (5, 3)
    assert yet.cache_levels()["yet.profile.bytes"] == (
        12 * 5 + 8 * 6 + 8 * 7 + 8 * 3) == 188


# ---------------------------------------------------------------------------
# the build: flat integer passes, the looped build's arrays bit for bit
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(case=counting_case(), block=st.sampled_from(
    [1, 2, 5, 64, TrialSegments.block_occurrences]))
def test_the_flat_build_equals_the_looped_build(case, block):
    """Empty trials, books with no positive loss, unknown ids, repeated
    values, at any block size (``hand_profile`` asserts the arrays
    equal), and a span's build against the whole looped build's trials
    of the span."""
    trials, events, values, n_trials, _, _, (t0, t1) = case
    hand_profile(trials, events, values, n_trials, block=block)
    segments = TrialSegments.from_sorted_trials(trials, events, n_trials)
    looped = looped_build(segments, np.arange(values.size), values)
    rows = (trials >= t0) & (trials < t1)
    part = hand_profile(trials[rows] - t0, events[rows], values, t1 - t0,
                        block=block)
    assert_same_profile(part, trials_of(looped, t0, t1))


def test_running_sums_of_short_and_long_trials_match_the_looped_build():
    """Many short trials (fewer steps than trials) and a few long ones
    (more steps than trials) add in each trial's order alike."""
    rng = np.random.default_rng(71)
    values = rng.lognormal(5, 2, 40)
    values[::7] = 0.0
    for n_trials, mean in ((300, 4), (3, 200)):
        counts = rng.poisson(mean, n_trials)
        trials = np.repeat(np.arange(n_trials), counts)
        events = rng.integers(0, 45, trials.size)
        profile = hand_profile(trials, events, values, n_trials, block=50)
        longest = int(np.diff(profile.offsets).max())
        busy = np.count_nonzero(np.diff(profile.offsets))
        assert (longest <= busy) == (n_trials == 300)


def test_a_book_past_the_direct_cap_is_ranked_by_search():
    rng = np.random.default_rng(72)
    ids = np.append(np.arange(0, 60, 2), [DENSE_MAX_ENTRIES, 10**9])
    values = rng.lognormal(5, 2, ids.size)
    values[3] = 0.0
    trials = np.repeat(np.arange(40), rng.poisson(10, 40))
    events = rng.choice(np.append(np.arange(62), [DENSE_MAX_ENTRIES - 1,
                                                  DENSE_MAX_ENTRIES, 10**9,
                                                  10**9 + 1]), trials.size)
    assert not fits_direct(ids)
    profile = hand_profile(trials, events, values, 40, block=16, ids=ids)
    far = np.isin(events, [DENSE_MAX_ENTRIES, 10**9])
    assert far.any() and profile.ranks.size == np.count_nonzero(
        np.isin(events, ids[values > 0]))


def test_a_raw_unsorted_stream_builds_the_sorted_streams_profile(
        monkeypatch):
    """``kernel.sweep`` over shuffled raw columns builds, for the call,
    the looped build's profile of the stably sorted stream."""
    rng = np.random.default_rng(73)
    yet = random_yet(rng, n_trials=70, width=40)
    kernel = PortfolioKernel.from_layers(tail_layers(book(rng)))
    built = []
    build = BookProfile.build.__func__
    monkeypatch.setattr(BookProfile, "build", classmethod(
        lambda cls, *a, **k: built.append(build(cls, *a, **k)) or built[-1]))
    shuffle = rng.permutation(yet.n_occurrences)
    trials, events = yet.trials[shuffle], yet.event_ids[shuffle]
    raw = ran_on_profile(lambda: kernel.sweep(trials, events, yet.n_trials),
                         MIN_TAIL_GROUP)
    order = np.argsort(trials, kind="stable")
    segments = TrialSegments.from_sorted_trials(
        trials[order], events[order].astype(np.int64), yet.n_trials)
    (profile,) = built
    assert_same_profile(profile, looped_build(segments, *kernel.book(0)))
    np.testing.assert_array_equal(
        raw, kernel.sweep_segments(yet.trial_block()))


def test_a_build_holds_a_block_and_16_bytes_per_positive():
    """What a build allocates at its peak (``tracemalloc``): the profile
    itself (12 B per positive occurrence), the blocks' joined ranks (4 B
    per positive), one block's arrays and the book's rank table — here
    with room to spare; the looped build held ≈ 90 B per positive
    occurrence at the benchmark's base shape."""
    rng = np.random.default_rng(74)
    n_trials, per_trial, width, block = 400, 100, 2_000, 4_096
    trials = np.repeat(np.arange(n_trials), per_trial)
    events = rng.integers(0, 2 * width, trials.size)        # half unknown
    values = rng.lognormal(5, 2, width)
    segments = TrialSegments.from_sorted_trials(trials, events, n_trials)
    ids = np.arange(width)
    peaks = []
    for build in (BookProfile.build, looped_build):
        gc.collect()
        with mock.patch.object(TrialSegments, "block_occurrences", block):
            tracemalloc.start()
            profile = build(segments, ids, values)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    positives = profile.ranks.size
    assert 15_000 < positives < 25_000                      # ≈ a quarter
    # one block: its ids as intp, ranks, mask, positions, keys
    budget = 16 * positives + 40 * block + 32 * width + 16 * n_trials
    assert peaks[0] <= budget < peaks[1], (peaks, budget)
