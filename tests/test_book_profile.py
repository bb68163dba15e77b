"""Same-book tail groups priced off the YET's book profiles.

Four contracts:

- **parity, on the path**: a same-book stack reproduces the scalar
  ``sequential`` oracle through every entry point, over losses exactly
  at ``lo``/``hi``, ``lo == hi`` (``limit == 0``), infinite limits and
  retentions, unknown event ids, all-zero and single-occurrence trials,
  empty trials, unsorted raw streams, sparse stores and leftover lane
  rows — and each sweep is *proved* to have resolved its group rows off
  a profile, so a silent lane fallback cannot pass;
- **invariance**: a tail row's answer is a function of the trial and
  the row — ``np.array_equal`` across whole / blocked / pooled /
  degraded sweeps and across group compositions;
- **one build per (YET, book) per process**, keyed by content, and the
  cache lives and dies with its ``YetTable``;
- **counted routing**: structural-group rows that go to lanes are
  counted by reason, and the counts reach the telemetry plane;
- **a count, not a search**: ``BookProfile.resolve`` equals the
  per-(trial, threshold) binary search it replaced, ``np.array_equal``,
  and is proved to run as one ``bincount`` per group with no search
  into the occurrences; a profile's bytes are gauged exactly.
"""

import gc
import os
import pickle
import sys
import threading
import weakref
from contextlib import contextmanager

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import tables
from repro.core.engines import SequentialEngine
from repro.core.kernels import (_HANDLE_FIELDS, MIN_TAIL_GROUP,
                                ROUTING_COUNTERS, PortfolioKernel)
from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.core.tables import (YET_SCHEMA, BookProfile, EltTable,
                               TrialSegments, YetTable)
from repro.core.terms import LayerTerms
from repro.data.columnar import ColumnTable
from repro.hpc import shm
from repro.serve import CachePolicy, PricingService
from repro.serve.dispatch import InlineDispatcher, PooledDispatcher
from repro.session import RiskSession

RTOL, ATOL = 1e-9, 1e-6


def make_yet(trials, event_ids, n_trials):
    trials = np.asarray(trials, dtype=np.int64)
    table = ColumnTable.from_arrays(
        YET_SCHEMA, trial=trials, seq=np.zeros(trials.size, dtype=np.int32),
        event_id=np.asarray(event_ids, dtype=np.int64),
    )
    return YetTable(table, n_trials)


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
        lambda: kernel.sweep_segments(*yet.trial_block()), MIN_TAIL_GROUP)
    np.testing.assert_array_equal(annual[0], [0, 150.0, 0, 300.0, 150.0, 0])
    np.testing.assert_array_equal(annual[1], [0, 0.0, 0, 300.0, 0.0, 0])
    np.testing.assert_array_equal(annual[2], [0, 0.0, 0, 298.0, 0.0, 0])


@st.composite
def profile_case(draw):
    """A same-book stack (optionally sparse, optionally with an odd-book
    lane row), thresholds drawn *from the book's own losses*, per-row
    ``limit == 0`` overrides, and a YET with forced empty, all-zero and
    single-occurrence trials and out-of-table event ids."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    width = draw(st.integers(2, 40))
    ids = np.sort(rng.choice(width, size=draw(st.integers(1, width)),
                             replace=False))
    losses = rng.lognormal(10, 1.5, ids.size)
    losses[rng.random(ids.size) < 0.2] = 0.0        # zero-loss events
    sparse = draw(st.booleans())
    if sparse:                                       # force the book sparse
        ids = np.append(ids, 10**8)
        losses = np.append(losses, float(rng.lognormal(10, 1.5)))
    elt = EltTable.from_arrays(ids, losses)

    threshold = st.one_of(st.just(0.0), st.sampled_from(list(losses)),
                          st.floats(0.0, 2e5))

    layers = []
    for li in range(draw(st.integers(MIN_TAIL_GROUP, MIN_TAIL_GROUP + 8))):
        lo = draw(st.one_of(st.just(np.inf), threshold))
        hi = draw(threshold)
        # a window [lo, hi] whose ends sit exactly on stored losses
        limit = hi - lo if hi > lo else draw(
            st.one_of(st.just(np.inf), st.floats(1e3, 1e6)))
        layers.append(Layer(li, [elt], LayerTerms(
            occ_retention=lo, occ_limit=limit,
            agg_retention=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e5))),
            agg_limit=draw(st.one_of(st.just(np.inf), st.floats(1e3, 1e8))),
            participation=draw(st.floats(0.05, 1.0)),
        )))
    if draw(st.booleans()):                          # a leftover lane row
        odd = EltTable.from_arrays([0, 1], [111.0, 222.0], contract_id=9)
        layers.append(Layer(99, [odd], LayerTerms(occ_retention=50.0)))
    zero_limit = [draw(st.booleans()) and l.layer_id != 99 for l in layers]
    lead, trail = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    counts = rng.integers(0, 8, draw(st.integers(1, 20)))    # interior empties
    counts = np.concatenate((np.zeros(lead, int), counts, np.zeros(trail, int)))
    trials = np.repeat(np.arange(counts.size), counts)
    # ids >= width are past a dense table and unknown to a sparse one
    events = rng.integers(0, width + 4, trials.size)
    zeroed = draw(st.integers(0, counts.size - 1))
    events[trials == zeroed] = width + 1             # an all-zero-loss trial
    return (Portfolio(layers), zero_limit, sparse,
            make_yet(trials, events, counts.size),
            rng.permutation(trials.size), draw(st.integers(0, counts.size)))


def kernel_with_zero_limits(portfolio, zero_limit, sparse):
    """``LayerTerms`` rejects ``limit == 0``; the kernel must price it: 0."""
    base = PortfolioKernel.from_portfolio(
        portfolio, dense_max_entries=1 if sparse else 4_000_000)
    zero = np.array([zero_limit[lid if lid != 99 else -1]
                     for lid in base.layer_ids])
    arrays = {name: getattr(base, name) for name in _HANDLE_FIELDS}
    arrays["occ_limit"] = np.where(zero, 0.0, base.occ_limit)
    return PortfolioKernel(layer_ids=base.layer_ids, **arrays), zero


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=profile_case())
def test_profile_sweep_matches_sequential_oracle(case):
    portfolio, zero_limit, sparse, yet, perm, split = case
    oracle = SequentialEngine().run(portfolio, yet).ylt_by_layer
    kernel, zero = kernel_with_zero_limits(portfolio, zero_limit, sparse)
    expected = np.array([
        np.zeros(yet.n_trials) if zero[row] else oracle[lid].losses
        for row, lid in enumerate(kernel.layer_ids)
    ])
    group = kernel.tail_group_rows
    assert group == sum(lid != 99 for lid in kernel.layer_ids)
    ((kind, _, _),) = kernel._tail_group_index()
    assert kind == ("sparse" if sparse else "dense")
    n_trials = yet.n_trials

    def check(annual, exact_to=None):
        final = kernel.apply_aggregate(annual)
        assert np.isfinite(final).all()
        np.testing.assert_allclose(final, expected, rtol=RTOL, atol=ATOL)
        if exact_to is not None:
            np.testing.assert_array_equal(annual, exact_to)

    if yet.n_occurrences == 0:
        check(kernel.sweep_segments(*yet.trial_block()))
        return
    whole = ran_on_profile(
        lambda: kernel.sweep_segments(*yet.trial_block()), group)
    check(whole)
    assert (whole[zero] == 0.0).all()                # lo == hi: exactly zero
    # raw columns (a profile built for the call), unsorted raw columns
    # (one stable sort first), a trial-block split (slices of the YET's
    # profile): the answer is a function of the trial — bit-identical
    check(ran_on_profile(lambda: kernel.sweep(
        yet.trials, yet.event_ids, n_trials), group), exact_to=whole)
    check(ran_on_profile(lambda: kernel.sweep(
        yet.trials[perm], yet.event_ids[perm], n_trials), group),
        exact_to=whole)
    spans = [(t0, t1) for t0, t1 in ((0, split), (split, n_trials)) if t1 > t0]
    parts = [kernel.sweep_segments(*yet.trial_block(t0, t1))
             for t0, t1 in spans]
    check(np.concatenate(parts, axis=1), exact_to=whole)
    assert yet.profiles.builds == 1                  # ... off ONE build
    # the lane path agrees within the library bar (and is another path)
    lanes = ran_on_profile(lambda: kernel.sweep_segments(
        *yet.trial_block(), sublinear=False), 0)
    check(lanes)


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
        lambda: kernel.sweep_segments(*yet.trial_block()), 32)
    assert annual.any()
    for row, lid in enumerate(kernel.layer_ids):
        np.testing.assert_allclose(annual[row], oracle[lid].losses,
                                   rtol=RTOL, atol=ATOL)
    lanes = kernel.sweep_segments(*yet.trial_block(), sublinear=False)
    assert np.abs(annual - lanes).max() <= 1e-7


# ---------------------------------------------------------------------------
# invariance: a function of the trial and the row
# ---------------------------------------------------------------------------

class TestInvariance:
    def test_dispatchers_agree_bitwise_on_a_tail_stack(self, monkeypatch):
        """Whole-YET, dispatcher-blocked, 2-worker pooled, degraded
        serial and in process without shared memory: one answer, bit
        for bit — tail rows and the odd row."""
        rng = np.random.default_rng(11)
        yet = random_yet(rng, n_trials=301, width=40)
        odd = EltTable.from_arrays([1, 2, 3], [111.0, 222.0, 333.0],
                                   contract_id=9)
        layers = tail_layers(book(rng), MIN_TAIL_GROUP + 3)
        layers.append(Layer(99, [odd], LayerTerms(occ_retention=50.0)))
        kernel = PortfolioKernel.from_layers(layers)
        assert kernel.tail_group_rows == MIN_TAIL_GROUP + 3
        whole = ran_on_profile(lambda: InlineDispatcher().run(kernel, yet),
                               MIN_TAIL_GROUP + 3)
        assert whole.any(axis=1).sum() > MIN_TAIL_GROUP
        small = PortfolioKernel.from_layers(layers, block_occurrences=57)
        blocked = InlineDispatcher().run(small, yet)
        np.testing.assert_array_equal(blocked, whole)
        with PooledDispatcher(n_workers=2) as pooled:
            answer = pooled.run(kernel, yet)
            assert pooled.pool.started, "the batch must have been forked"
            np.testing.assert_array_equal(answer, whole)
            pooled.pool.health.degraded = True
            degraded = ran_on_profile(lambda: pooled.run(kernel, yet),
                                      2 * (MIN_TAIL_GROUP + 3))   # 2 blocks
            np.testing.assert_array_equal(degraded, whole)
        with monkeypatch.context() as m:
            m.setattr(shm, "_AVAILABLE", False)
            with PooledDispatcher(n_workers=2) as pooled:
                np.testing.assert_array_equal(pooled.run(kernel, yet), whole)

    def test_a_row_does_not_depend_on_its_group(self):
        rng = np.random.default_rng(12)
        yet = random_yet(rng, n_trials=120, width=40)
        elt = book(rng)
        layers = tail_layers(elt, 2 * MIN_TAIL_GROUP)
        both = PortfolioKernel.from_layers(layers).sweep_segments(
            *yet.trial_block())
        first = PortfolioKernel.from_layers(
            layers[:MIN_TAIL_GROUP]).sweep_segments(*yet.trial_block())
        # reversed order, other companions, the same rows
        mixed = PortfolioKernel.from_layers(
            layers[:3:-1]).sweep_segments(*yet.trial_block())
        np.testing.assert_array_equal(first, both[:MIN_TAIL_GROUP])
        np.testing.assert_array_equal(mixed[::-1], both[4:])
        # ... and a row resolved alone
        kernel = PortfolioKernel.from_layers(layers)
        profile = next(iter(yet.profiles._profiles.values()))
        alone = profile.resolve(kernel.occ_floor[5:6], kernel.occ_ceiling[5:6])
        np.testing.assert_array_equal(alone[0], both[5])

    def test_trial_range_is_a_view_of_the_whole_profile(self):
        rng = np.random.default_rng(13)
        yet = random_yet(rng, n_trials=50, width=40)
        kernel = PortfolioKernel.from_layers(tail_layers(book(rng)))
        kernel.sweep_segments(*yet.trial_block())
        whole = next(iter(yet.profiles._profiles.values()))
        part = whole.trial_range(10, 30)
        assert part.n_trials == 20
        for name in ("ranks", "prefix"):
            assert np.shares_memory(getattr(part, name), getattr(whole, name))
        assert whole.trial_range(0, 50) is whole
        # zero losses and unknown events are not stored
        seg, events = yet.trial_block()
        losses = kernel._gather_store("dense", 0, events,
                                      np.empty(events.size))
        assert whole.ranks.size == np.count_nonzero(losses) < events.size


# ---------------------------------------------------------------------------
# one build per (YET, book) per process; the cache dies with its YET
# ---------------------------------------------------------------------------

def fresh_same_book_batch(rng_seed, start):
    """Equal-content, *distinct* ELT / layer / lookup objects per batch."""
    return tail_layers(book(np.random.default_rng(rng_seed)), start=start)


def _worker_profile_builds(shared, _i):  # pragma: no cover - runs in a worker
    yet = shared[1] if isinstance(shared, tuple) else shared
    return os.getpid(), yet.profiles.builds


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
        (profile,) = yet.profiles._profiles.values()
        assert yet.profiles.snapshot() == {
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
        PortfolioKernel.from_layers(layers).sweep_segments(*yet.trial_block())
        stacked = PortfolioKernel.from_layers(
            layers + [Layer(99, [wide], LayerTerms())])
        assert stacked.dense_stack.shape[1] > 40
        stacked.sweep_segments(*yet.trial_block())
        assert (yet.profiles.builds, yet.profiles.hits) == (1, 1)

    def test_pooled_workers_build_once_each(self):
        yet = random_yet(np.random.default_rng(23), n_trials=90, width=40)
        with PooledDispatcher(n_workers=2) as d:
            for batch in range(self.N_BATCHES):
                d.run(PortfolioKernel.from_layers(
                    fresh_same_book_batch(7, start=batch)), yet)
            assert d.transport_active == "shm"
            seen = dict(d.pool.starmap_shared(
                _worker_profile_builds, d._bundle(yet),
                [(i,) for i in range(8)]))
        assert os.getpid() not in seen, "probe must run in the workers"
        assert max(seen.values()) == 1
        assert yet.profiles.builds == 0              # never built, or shipped, here

    def test_concurrent_sweeps_share_one_build(self):
        yet = random_yet(np.random.default_rng(24), n_trials=200, width=40)
        yet.trial_block()
        kernels = [PortfolioKernel.from_layers(fresh_same_book_batch(7, i))
                   for i in range(6)]
        answers, barrier = [None] * len(kernels), threading.Barrier(len(kernels))

        def sweep(i):
            barrier.wait(timeout=10)
            answers[i] = kernels[i].sweep_segments(*yet.trial_block())

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
        assert yet.profiles.builds == 1
        assert yet.profiles.hits == len(kernels) - 1
        for i, kernel in enumerate(kernels):
            np.testing.assert_array_equal(
                answers[i], kernel.sweep_segments(*yet.trial_block()))

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(tables, "MAX_BOOK_PROFILES", 2)
        yet = random_yet(np.random.default_rng(25), n_trials=30, width=40)
        for seed in (1, 2, 3, 1):
            PortfolioKernel.from_layers(
                fresh_same_book_batch(seed, 0)).sweep_segments(
                    *yet.trial_block())
        assert yet.profiles.snapshot() == {
            "yet.profile.builds": 4,     # book 1 was evicted by book 3
            "yet.profile.hits": 0,
            "yet.profile.evictions": 2,
            "yet.profile.resident": 2,
            "yet.profile.bytes": sum(map(profile_bytes,
                                         yet.profiles._profiles.values())),
        }

    def test_profiles_are_not_pickled_with_the_yet(self):
        yet = random_yet(np.random.default_rng(26), n_trials=30, width=40)
        kernel = PortfolioKernel.from_layers(fresh_same_book_batch(7, 0))
        answer = kernel.sweep_segments(*yet.trial_block())
        copy = pickle.loads(pickle.dumps(yet))
        assert yet.profiles.snapshot()["yet.profile.resident"] == 1
        assert copy.profiles.snapshot()["yet.profile.resident"] == 0
        np.testing.assert_array_equal(
            kernel.sweep_segments(*copy.trial_block(3, 20)), answer[:, 3:20])
        assert copy.profiles.builds == 1


class TestCacheLifetime:
    """The profile is released with its YET: nothing else holds it."""

    @staticmethod
    def profile_ref(yet):
        (profile,) = yet.profiles._profiles.values()
        return weakref.ref(profile.ranks)

    def test_resimulate_starts_empty_and_releases_the_old_profile(self):
        rng = np.random.default_rng(31)
        old, new = (random_yet(rng, n_trials=60, width=40) for _ in range(2))
        layers = fresh_same_book_batch(7, 0)
        gc.collect()
        gc.disable()
        try:
            with PricingService(old, cache=CachePolicy(0)) as svc:
                before = svc.quote_many(layers)
                ref = self.profile_ref(old)
                del old
                svc.resimulate(new)
                assert ref() is None, "the old YET's profile outlived it"
                assert new.profiles.builds == 0
                after = svc.quote_many(layers)
                assert new.profiles.builds == 1
            assert [q.premium for q in before] != [q.premium for q in after]
        finally:
            gc.enable()

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
            lambda: kernel.sweep_segments(*self.yet.trial_block()),
            MIN_TAIL_GROUP + 1)
        self.routed(kernel, profile_rows=MIN_TAIL_GROUP + 1,
                    fallback__error_bound=1)
        np.testing.assert_array_equal(annual[3], 0.0)
        # one more row out and the group is below MIN_TAIL_GROUP: lanes
        layers = layers[:MIN_TAIL_GROUP]
        kernel = PortfolioKernel.from_layers(layers)
        lanes = ran_on_profile(
            lambda: kernel.sweep_segments(*self.yet.trial_block()), 0)
        self.routed(kernel, fallback__error_bound=MIN_TAIL_GROUP)
        np.testing.assert_allclose(lanes, annual[:MIN_TAIL_GROUP],
                                   rtol=RTOL, atol=ATOL)

    def test_forced_lane_sweeps_are_counted(self):
        kernel = PortfolioKernel.from_layers(tail_layers(self.elt))
        yet = self.yet
        forced = ran_on_profile(lambda: kernel.sweep_segments(
            *yet.trial_block(), sublinear=False), 0)
        self.routed(kernel, fallback__sublinear_off=MIN_TAIL_GROUP)
        whole = kernel.sweep_segments(*yet.trial_block())
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
        kernel.sweep_segments(*self.yet.trial_block())
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


def test_raw_segments_build_for_the_call_only():
    rng = np.random.default_rng(51)
    yet = random_yet(rng, n_trials=40, width=40)
    kernel = PortfolioKernel.from_layers(tail_layers(book(rng)))
    segments = TrialSegments.from_sorted_trials(yet.trials, yet.n_trials)
    with profile_proof() as seen:
        for _ in range(2):
            kernel.sweep_segments(segments, yet.event_ids)
    assert seen == {"rows": 2 * MIN_TAIL_GROUP, "builds": 2}
    assert yet.profiles.builds == 0


# ---------------------------------------------------------------------------
# a count, not a search
# ---------------------------------------------------------------------------

def dense_gather(event_ids, out, values):
    """A dense book's lookup: ``values[id]``, 0 past the table."""
    np.take(values, event_ids, mode="clip", out=out)
    out[event_ids >= values.size] = 0.0
    return out


def hand_profile(trials, event_ids, values, n_trials):
    segments = TrialSegments.from_sorted_trials(
        np.asarray(trials, dtype=np.int64), n_trials)
    return BookProfile.build(segments, np.asarray(event_ids, dtype=np.int64),
                             values=np.asarray(values, dtype=np.float64),
                             gather=dense_gather)


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
    # a trial range is a view that answers its trials' columns
    part = profile.trial_range(t0, t1)
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
    np.testing.assert_array_equal(profile.trial_range(1, 3).resolve(lo, hi),
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
    answer = kernel.sweep_segments(*block)          # builds both profiles
    profiles = list(yet.profiles._profiles.values())
    longest = max(p.thresholds.size for p in profiles) + 1
    assert min(p.ranks.size for p in profiles) > 10 * longest
    calls = _NumpyAsTablesSeesIt()
    with monkeypatch.context() as m:
        m.setattr(tables, "np", calls)
        again = ran_on_profile(lambda: kernel.sweep_segments(*block),
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
    assert yet.profiles.snapshot()["yet.profile.bytes"] == 0
    ran_on_profile(lambda: kernel.sweep_segments(*yet.trial_block()),
                   MIN_TAIL_GROUP)
    (profile,) = yet.profiles._profiles.values()
    assert (profile.ranks.size, profile.thresholds.size) == (5, 3)
    assert yet.profiles.snapshot()["yet.profile.bytes"] == (
        12 * 5 + 8 * 6 + 8 * 7 + 8 * 3) == 188
    assert yet.cache_levels()["yet.profile.bytes"] == 188
