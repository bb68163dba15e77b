"""Parity and structure tests for the fused portfolio kernel.

The contract: one fused sweep over the YET must reproduce the
``SequentialEngine`` oracle's YLTs for every layer, across books of
compact and wide id ranges (and both mixed), degenerate terms, empty
trials, and randomised portfolios (Hypothesis).
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from conftest import as_csr, csr_elts, make_yet
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engines import SequentialEngine
from repro.core.kernels import MIN_TAIL_GROUP, PortfolioKernel
from repro.core.layer import Layer
from repro.core.lookup import DENSE_MAX_ENTRIES, fits_direct
from repro.core.portfolio import Portfolio
from repro.core.tables import EltTable, TrialSegments, YetTable
from repro.core.terms import LayerTerms
from repro.errors import ConfigurationError

RTOL, ATOL = 1e-9, 1e-6


def wide_rows(kernel) -> int:
    """Rows whose book's id range passes ``DENSE_MAX_ENTRIES``."""
    return sum(not fits_direct(kernel.book(store)[0])
               for store in kernel.source.tolist())


def assert_kernel_matches_oracle(portfolio, yet):
    kernel = PortfolioKernel.from_layers(portfolio)
    final = kernel.run(yet.trials, yet.event_ids, yet.n_trials)
    oracle = SequentialEngine().run(portfolio, yet)
    for row, lid in enumerate(kernel.layer_ids):
        np.testing.assert_allclose(
            final[row], oracle.ylt_by_layer[lid].losses, rtol=RTOL, atol=ATOL,
            err_msg=f"layer {lid} (kernel row {row}) diverged from oracle",
        )
    return kernel


class TestParityAgainstOracle:
    def test_dense_portfolio(self, small_portfolio_workload):
        k = assert_kernel_matches_oracle(
            small_portfolio_workload.portfolio, small_portfolio_workload.yet
        )
        assert wide_rows(k) == 0

    def test_sparse_portfolio(self, small_portfolio_workload):
        k = assert_kernel_matches_oracle(
            Portfolio([as_csr(layer)
                       for layer in small_portfolio_workload.portfolio]),
            small_portfolio_workload.yet,
        )
        assert wide_rows(k) == k.n_layers

    def test_mixed_dense_and_sparse_layers(self):
        """One compact-id layer + one layer of a wide id range."""
        compact = EltTable.from_arrays([1, 2, 3], [100.0, 200.0, 300.0])
        huge = EltTable.from_arrays([2, 10**9], [50.0, 75.0], contract_id=1)
        pf = Portfolio([
            Layer(0, [compact], LayerTerms(occ_retention=20.0)),
            Layer(7, [huge], LayerTerms(occ_limit=60.0)),
        ])
        yet = make_yet([0, 0, 1, 2, 2], [1, 2, 10**9, 3, 5], n_trials=4)
        k = assert_kernel_matches_oracle(pf, yet)
        assert wide_rows(k) == 1
        # Rows are in input order; ids map back through layer_ids/row_of.
        assert k.layer_ids == (0, 7)
        assert k.row_of(7) == 1

    def test_the_book_shape_decides_dense_or_csr(self, tiny_workload):
        """Both books are stored alike, as their sorted entries.  A book
        whose largest id is ``DENSE_MAX_ENTRIES - 1`` is gathered through
        a direct table, and its row routes by the 1/16 rule (its edge
        entry makes it ``DENSE_MAX_ENTRIES`` wide, so by events); one
        whose largest id is ``DENSE_MAX_ENTRIES`` is gathered by
        ``searchsorted``, and its row prices by events whatever it
        pierces.  Over a YET that reads neither edge id both gather and
        price alike, bit for bit."""
        layer = tiny_workload.portfolio.layers[0]
        yet = tiny_workload.yet
        finals, gathers = [], []
        for last, direct in ((DENSE_MAX_ENTRIES - 1, True),
                             (DENSE_MAX_ENTRIES, False)):
            edge = EltTable.from_arrays([last], [1.0], contract_id=99)
            pf = Portfolio([Layer(0, (*layer.elts, edge), layer.terms)])
            k = assert_kernel_matches_oracle(pf, yet)
            assert fits_direct(k.book(0)[0]) is direct
            assert k.nbytes == 16 * k.ids.size
            assert k.routed["kernel.lane_rows.by_event"] == 1
            assert sum(k.routed.values()) == 1
            with mock.patch("repro.core.lookup.np.searchsorted",
                            wraps=np.searchsorted) as search:
                gathers.append(k.gather_layer(0, yet.event_ids))
            assert search.called is not direct
            finals.append(k.run(yet.trials, yet.event_ids, yet.n_trials))
        np.testing.assert_array_equal(*gathers)
        np.testing.assert_array_equal(*finals)

    @pytest.mark.parametrize("terms", [
        LayerTerms(),                                          # pass-through
        LayerTerms(occ_retention=0.0, occ_limit=np.inf),       # degenerate: none bind
        LayerTerms(occ_retention=1e12),                        # nothing attaches
        LayerTerms(occ_limit=1.0),                             # everything capped
        LayerTerms(agg_retention=1e15),                        # aggregate wipes out
        LayerTerms(agg_limit=10.0),                            # tiny annual cap
        LayerTerms(participation=0.1),
        LayerTerms(occ_retention=5e5, occ_limit=2e6,
                   agg_retention=1e6, agg_limit=1e8, participation=0.5),
    ])
    # ``dense_max=1``: the book's twin of a wide id range.
    @pytest.mark.parametrize("dense_max", [4_000_000, 1])
    def test_degenerate_terms(self, tiny_workload, terms, dense_max):
        layer = Layer(0, tiny_workload.portfolio.layers[0].elts, terms)
        if dense_max == 1:
            layer = as_csr(layer)
        k = assert_kernel_matches_oracle(Portfolio([layer]), tiny_workload.yet)
        assert wide_rows(k) == (dense_max == 1)

    def test_empty_trials_stay_zero(self):
        """A YET with occurrence-free trials (including an all-empty YET)."""
        elt = EltTable.from_arrays([1, 2], [100.0, 200.0])
        pf = Portfolio([Layer(0, [elt], LayerTerms())])
        sparse_yet = make_yet([1, 1, 3], [1, 2, 1], n_trials=5)
        assert_kernel_matches_oracle(pf, sparse_yet)

        empty_yet = make_yet([], [], n_trials=4)
        kernel = pf.kernel()
        out = kernel.run(empty_yet.trials, empty_yet.event_ids, 4)
        assert out.shape == (1, 4)
        np.testing.assert_array_equal(out, 0.0)

    @pytest.mark.parametrize(
        "block", [1, 7, 64, TrialSegments.block_occurrences])
    def test_block_size_does_not_change_results(self, tiny_workload, block,
                                                monkeypatch):
        monkeypatch.setattr(TrialSegments, "block_occurrences", block)
        assert_kernel_matches_oracle(tiny_workload.portfolio,
                                     tiny_workload.yet)


class TestKernelStructure:
    def test_unsorted_trials_fall_back_to_block_sort(self, tiny_workload):
        """sweep() accepts unsorted (trial, event) streams (one stable sort
        per sweep, then the same loop) — the shuffled stream must produce
        the same annual matrix as the sorted one."""
        kernel = tiny_workload.portfolio.kernel()
        yet = tiny_workload.yet
        ref = kernel.sweep(yet.trials, yet.event_ids, yet.n_trials)
        rng = np.random.default_rng(5)
        perm = rng.permutation(yet.n_occurrences)
        shuffled = kernel.sweep(yet.trials[perm], yet.event_ids[perm],
                                yet.n_trials)
        np.testing.assert_allclose(shuffled, ref, rtol=RTOL, atol=ATOL)

    def test_kernel_pickles_whole(self, small_portfolio_workload):
        """A kernel still pickles whole (its stacked arrays; caches stay
        host-local), though no pooled path ships one that way."""
        kernel = small_portfolio_workload.portfolio.kernel()
        clone = pickle.loads(pickle.dumps(kernel))
        yet = small_portfolio_workload.yet
        np.testing.assert_array_equal(
            clone.run(yet.trials, yet.event_ids, yet.n_trials),
            kernel.run(yet.trials, yet.event_ids, yet.n_trials),
        )

    def test_gather_block_shares_one_pass(self, tiny_workload):
        kernel = tiny_workload.portfolio.kernel()
        ev = tiny_workload.yet.event_ids[:50]
        block = kernel.gather_block(ev)
        assert block.shape == (kernel.n_layers, 50)
        for row in range(kernel.n_layers):
            np.testing.assert_array_equal(block[row], kernel.gather_layer(row, ev))

    def test_gather_layer_matches_loss_lookup(self, tiny_workload):
        layer = tiny_workload.portfolio.layers[0]
        kernel = tiny_workload.portfolio.kernel()
        ev = tiny_workload.yet.event_ids
        np.testing.assert_array_equal(
            kernel.gather_layer(kernel.row_of(layer.layer_id), ev),
            layer.lookup()(ev),
        )

    def test_unknown_layer_rejected(self, tiny_workload):
        with pytest.raises(ConfigurationError):
            tiny_workload.portfolio.kernel().row_of(999)

    def test_mismatched_arrays_rejected(self, tiny_workload):
        kernel = tiny_workload.portfolio.kernel()
        with pytest.raises(ConfigurationError):
            kernel.sweep(np.array([0, 1]), np.array([5]), 4)


@st.composite
def random_portfolio(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n_trials = draw(st.integers(1, 50))
    catalog_events = draw(st.integers(2, 60))
    epk = draw(st.floats(0.1, 10.0))
    n_layers = draw(st.integers(1, 4))
    # Per-layer dense/sparse layout is driven by a huge outlier id.
    layers = []
    for li in range(n_layers):
        elt_rows = draw(st.integers(1, catalog_events))
        ids = rng.choice(catalog_events, size=elt_rows, replace=False)
        ids.sort()
        losses = rng.lognormal(10, 1.5, elt_rows)
        if draw(st.booleans()):
            ids = np.append(ids, 10**8 + li)  # force this layer sparse
            losses = np.append(losses, float(rng.lognormal(10, 1.5)))
        terms = LayerTerms(
            occ_retention=draw(st.floats(0.0, 1e5)),
            occ_limit=draw(st.one_of(st.just(np.inf), st.floats(1e3, 1e6))),
            agg_retention=draw(st.floats(0.0, 1e6)),
            agg_limit=draw(st.one_of(st.just(np.inf), st.floats(1e3, 1e8))),
            participation=draw(st.floats(0.05, 1.0)),
        )
        layers.append(Layer(li, [EltTable.from_arrays(ids, losses,
                                                      contract_id=li)], terms))
    yet = YetTable.simulate(
        np.arange(catalog_events, dtype=np.int64),
        np.full(catalog_events, 1.0),
        n_trials,
        rng,
        mean_events_per_trial=epk,
    )
    return Portfolio(layers), yet


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wl=random_portfolio())
def test_fused_kernel_matches_oracle_on_random_portfolios(wl):
    portfolio, yet = wl
    assert_kernel_matches_oracle(portfolio, yet)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wl=random_portfolio(), block=st.integers(1, 64))
def test_fused_kernel_block_invariance_on_random_portfolios(wl, block):
    portfolio, yet = wl
    ref = portfolio.kernel().run(yet.trials, yet.event_ids, yet.n_trials)
    with mock.patch.object(TrialSegments, "block_occurrences", block):
        alt = PortfolioKernel.from_layers(portfolio).run(
            yet.trials, yet.event_ids, yet.n_trials)
    np.testing.assert_allclose(alt, ref, rtol=RTOL, atol=ATOL)


# ---------------------------------------------------------------------------
# sublinear tail-group path vs the exact lane path (satellite)
# ---------------------------------------------------------------------------

def direct_tail_kernel(occ_lo, occ_cap, table):
    """A same-book stack built directly: ``table[e]`` is event ``e``'s
    loss.

    :class:`LayerTerms` rejects ``occ_limit <= 0``, but the sweep must
    still price degenerate ``lo == hi`` rows correctly, so the parity
    suite constructs the kernel without going through layers.
    """
    occ_lo = np.asarray(occ_lo, dtype=np.float64)
    occ_cap = np.asarray(occ_cap, dtype=np.float64)
    n = occ_lo.size
    return PortfolioKernel(
        layer_ids=tuple(range(n)),
        occ_retention=occ_lo,
        occ_limit=occ_cap,
        agg_retention=np.zeros(n),
        agg_limit=np.full(n, np.inf),
        participation=np.ones(n),
        ids=np.arange(len(table), dtype=np.int64),
        values=np.asarray(table, dtype=np.float64).copy(),
        offsets=np.array([0, len(table)], dtype=np.int64),
        source=np.zeros(n, dtype=np.int64),
    )


@st.composite
def tail_stack(draw):
    """Random tail-attaching stack over one shared book, plus a YET."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n_trials = draw(st.integers(1, 30))
    width = draw(st.integers(2, 40))
    n_layers = draw(st.integers(MIN_TAIL_GROUP, 40))
    table = rng.lognormal(10, 1.5, width)
    if draw(st.booleans()):
        # zero-loss events in the book (whole trials may price to zero)
        table[rng.choice(width, size=max(width // 2, 1), replace=False)] = 0.0
    lo = rng.uniform(0.0, 3e4, n_layers)
    lo[rng.random(n_layers) < 0.2] = 0.0
    cap = rng.uniform(0.0, 5e4, n_layers)
    cap[rng.random(n_layers) < 0.25] = 0.0       # degenerate lo == hi rows
    cap[rng.random(n_layers) < 0.2] = np.inf     # uncapped rows
    if draw(st.booleans()):
        lo[0] = np.inf                            # infinite-retention row
    n_occ = draw(st.integers(0, 400))
    trials = np.sort(rng.integers(0, n_trials, n_occ)).astype(np.int64)
    # ids past the table width gather to zero (uncovered events)
    events = rng.integers(0, width + 3, n_occ).astype(np.int64)
    return lo, cap, table, trials, events, n_trials


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ts=tail_stack())
def test_sublinear_group_path_matches_lane_path(ts):
    lo, cap, table, trials, events, n_trials = ts
    kernel = direct_tail_kernel(lo, cap, table)
    assert kernel.tail_group_rows == lo.size  # one shared book, one group
    ref = kernel.apply_aggregate(
        kernel.sweep(trials, events, n_trials, sublinear=False))
    sub = kernel.run(trials, events, n_trials)
    np.testing.assert_allclose(sub, ref, rtol=RTOL, atol=ATOL)
    # two paths were compared: every row left the lanes on the second run
    assert kernel.routed["kernel.fallback.sublinear_off"] == lo.size * (
        trials.size > 0)
    assert kernel.routed["kernel.profile_rows"] == lo.size * (trials.size > 0)


class TestSublinearTailGroups:
    def test_degenerate_lo_equals_hi_rows_price_to_zero(self):
        # occ_limit == 0 clips everything to the retention point: the
        # layer retains nothing, on both the lane and the group path.
        n = MIN_TAIL_GROUP
        kernel = direct_tail_kernel(
            np.linspace(0.0, 1e4, n), np.zeros(n), [0.0, 100.0, 250.0]
        )
        trials = np.repeat(np.arange(4, dtype=np.int64), 10)
        events = np.tile(np.arange(1, 3, dtype=np.int64), 20)
        sub = kernel.run(trials, events, 4)
        ref = kernel.apply_aggregate(
            kernel.sweep(trials, events, 4, sublinear=False))
        # (exactly, on both: the lane path clips each table entry to
        # [0, 0], and a profile window with lo == hi is empty — no
        # difference of running sums is ever taken)
        np.testing.assert_array_equal(ref, 0.0)
        np.testing.assert_array_equal(sub, 0.0)
        assert kernel.routed["kernel.profile_rows"] == n

    def test_all_zero_loss_trials(self):
        # Every gathered loss is zero (zeroed book): the profile holds
        # no occurrence at all and must produce exact zeros, not NaN
        # from its cap x count term on inf-capped rows.
        n = MIN_TAIL_GROUP
        cap = np.full(n, np.inf)
        cap[: n // 2] = 1e4
        kernel = direct_tail_kernel(np.linspace(0.0, 100.0, n), cap,
                                    np.zeros(5))
        trials = np.repeat(np.arange(3, dtype=np.int64), 8)
        events = np.tile(np.arange(4, dtype=np.int64), 6)
        sub = kernel.run(trials, events, 3)
        np.testing.assert_array_equal(sub, 0.0)
        assert kernel.routed["kernel.profile_rows"] == n

    def test_sparse_store_groups_match_lane_path(self, tiny_workload):
        # Same-book stacks dedupe to one stored book of a wide id
        # range; the group path prices them too.
        elts = csr_elts(tiny_workload.portfolio.layers[0].elts)
        layers = [
            Layer(i, elts, LayerTerms(occ_retention=5e3 + 250.0 * i,
                                      occ_limit=2e5))
            for i in range(MIN_TAIL_GROUP + 4)
        ]
        kernel = PortfolioKernel.from_layers(layers)
        assert kernel.n_unique_lookups == 1
        assert wide_rows(kernel) == kernel.n_layers
        assert kernel.tail_group_rows == kernel.n_layers
        yet = tiny_workload.yet
        ref = kernel.apply_aggregate(kernel.sweep(
            yet.trials, yet.event_ids, yet.n_trials, sublinear=False))
        sub = kernel.run(yet.trials, yet.event_ids, yet.n_trials)
        np.testing.assert_allclose(sub, ref, rtol=RTOL, atol=ATOL)

    def test_mixed_group_and_lane_rows(self, tiny_workload):
        # A stack with one shared-book tail group plus an odd-book row:
        # the group prices off its profile, the leftover row on the
        # lane path of the same sweep, and the union matches the
        # all-lane sweep row for row.
        elts = tiny_workload.portfolio.layers[0].elts
        other = EltTable.from_arrays([1, 2, 3], [111.0, 222.0, 333.0],
                                     contract_id=9)
        layers = [
            Layer(i, elts, LayerTerms(occ_retention=1e4 + 500.0 * i,
                                      occ_limit=5e5))
            for i in range(MIN_TAIL_GROUP)
        ]
        layers.append(Layer(99, [other], LayerTerms(occ_retention=50.0)))
        kernel = PortfolioKernel.from_layers(layers)
        assert 0 < kernel.tail_group_rows < kernel.n_layers
        yet = tiny_workload.yet
        ref = kernel.apply_aggregate(kernel.sweep(
            yet.trials, yet.event_ids, yet.n_trials, sublinear=False))
        sub = kernel.run(yet.trials, yet.event_ids, yet.n_trials)
        np.testing.assert_allclose(sub, ref, rtol=RTOL, atol=ATOL)

    def test_shift_mask_is_cached_per_count_key(self, tiny_workload):
        # Satellite: repeated fixed-shape sweeps reuse the memoised mask
        # (only a kernel with a structural tail group ever asks for one).
        elts = tiny_workload.portfolio.layers[0].elts
        kernel = PortfolioKernel.from_layers([
            Layer(i, elts, LayerTerms(occ_retention=1e3 * i))
            for i in range(MIN_TAIL_GROUP)])
        yet = tiny_workload.yet
        kernel.run(yet.trials, yet.event_ids, yet.n_trials)
        cached = dict(kernel._mask_cache)
        assert cached, "first sweep must populate the mask cache"
        kernel.run(yet.trials, yet.event_ids, yet.n_trials)
        assert set(kernel._mask_cache) == set(cached)
        for key, mask in cached.items():
            assert kernel._mask_cache[key] is mask, "mask must be reused"
