"""Tests for the five aggregate-analysis engines.

The central invariant: every engine reproduces the sequential oracle's
YLT exactly (to fp tolerance), whatever its execution substrate.
"""

import numpy as np
import pytest
from conftest import make_yet, multicore

from repro.analytics.comparison import assert_engines_equivalent, compare_engines
from repro.core.engines import (
    DeviceEngine,
    MapReduceEngine,
    MulticoreEngine,
    SequentialEngine,
    VectorizedEngine,
    available_engines,
    engine_class,
    get_engine,
)
from repro.core.tables import EltTable, EventIndex, YltTable
from repro.core.terms import LayerTerms
from repro.core.layer import Layer
from repro.core.lookup import effective_width
from repro.core.portfolio import Portfolio
from repro.errors import AnalysisError, ConfigurationError, EngineError
from repro.hpc.device import DeviceProperties

ALL_ENGINES = ["sequential", "vectorized", "device", "multicore",
               "mapreduce"]


class TestRegistry:
    def test_available(self):
        assert set(available_engines()) == set(ALL_ENGINES)

    def test_get_engine(self):
        assert get_engine("vectorized").name == "vectorized"

    def test_unknown_rejected(self):
        with pytest.raises(EngineError):
            get_engine("quantum")

    def test_kwargs_forwarded(self):
        eng = get_engine("mapreduce", n_splits=3)
        assert eng.n_splits == 3


class TestEquivalence:
    def test_all_engines_match_oracle(self, tiny_workload, risk_session):
        assert_engines_equivalent(risk_session(
            tiny_workload.yet, tiny_workload.portfolio).run_all(ALL_ENGINES))

    def test_multi_layer_portfolio(self, small_portfolio_workload,
                                   risk_session):
        wl = small_portfolio_workload
        assert_engines_equivalent(
            risk_session(wl.yet, wl.portfolio).run_all(ALL_ENGINES))

    def test_compare_engines_reports_diffs(self, tiny_workload, risk_session):
        results = risk_session(tiny_workload.yet, tiny_workload.portfolio
                               ).run_all(["sequential", "vectorized"])
        report = compare_engines(results)
        assert report["vectorized"]["max_abs_diff"] < 1e-6
        assert report["vectorized"]["result"] is results["vectorized"]
        with pytest.raises(AnalysisError, match="reference"):
            compare_engines({"vectorized": results["vectorized"]})

    @pytest.mark.parametrize("terms", [
        LayerTerms(),                                              # pass-through
        LayerTerms(occ_retention=1e12),                            # nothing attaches
        LayerTerms(occ_limit=1.0),                                 # everything capped
        LayerTerms(agg_retention=1e15),                            # aggregate wipes out
        LayerTerms(agg_limit=10.0),                                # tiny annual cap
        LayerTerms(participation=0.1),
        LayerTerms(occ_retention=5e5, occ_limit=2e6,
                   agg_retention=1e6, agg_limit=1e8, participation=0.5),
    ])
    def test_equivalence_across_terms_extremes(self, tiny_workload, terms,
                                               risk_session):
        layer = Layer(0, tiny_workload.portfolio.layers[0].elts, terms)
        assert_engines_equivalent(risk_session(
            tiny_workload.yet, Portfolio([layer])).run_all(ALL_ENGINES))

    def test_an_elt_id_past_int32_never_matches_its_wrapped_id(
            self, risk_session, tmp_path):
        """The YET holds event ``k``; the books hold only ``k + 2**32``
        (and ``k + 2**33``), which an int32 cast would wrap onto ``k``.
        Every engine — pooled across two workers, a by-event lane row
        and the profile path of a 17-row same-book group, the YELT it
        emits, the stored stream — prices them 0, while a book holding
        ``k`` itself prices every occurrence."""
        from repro.core.kernels import MIN_TAIL_GROUP
        from repro.core.tables import StoredYet
        from repro.data.store import ChunkStore

        k = 5
        wide = EltTable.from_arrays([k + 2**32], [100.0], contract_id=1)
        held = EltTable.from_arrays([k], [100.0], contract_id=2)
        lane = EltTable.from_arrays([k + 2**32, k + 2**33], [100.0, 50.0],
                                    contract_id=3)
        layers = [Layer(0, [held], LayerTerms()),
                  Layer(1, [lane], LayerTerms())] + [
            Layer(2 + i, [wide], LayerTerms(occ_retention=float(i)))
            for i in range(MIN_TAIL_GROUP + 1)]
        pf = Portfolio(layers)
        yet = make_yet([0, 0, 1, 3, 3, 3], [k, 1, k, k, k, 2], n_trials=4)
        want = {0: [100.0, 100.0, 0.0, 200.0]}
        want.update({lid: [0.0] * 4 for lid in range(1, len(layers))})

        def check(result):
            for lid, losses in want.items():
                np.testing.assert_array_equal(
                    result.ylt_by_layer[lid].losses, losses)

        session = risk_session(yet, pf, n_workers=2)
        for name, result in session.run_all(ALL_ENGINES).items():
            check(result)
        vectorized = session.aggregate(engine="vectorized", emit_yelt=True)
        routed = vectorized.details["routed"]
        assert routed["kernel.profile_rows"] == MIN_TAIL_GROUP + 1
        assert routed["kernel.lane_rows.by_event"] == 1
        assert vectorized.yelt_by_layer[1].n_rows == 0
        assert vectorized.yelt_by_layer[2].n_rows == 0
        with multicore(2) as engine:
            pooled = engine.run(pf, yet)
        assert pooled.details["n_blocks"] == 2
        check(pooled)
        check(VectorizedEngine().run(
            pf, StoredYet.write(ChunkStore(tmp_path), "yet", yet, 2)))

    def test_yet_with_empty_trials(self, risk_session):
        """Trials with zero occurrences must appear as zero-loss years."""
        elt = EltTable.from_arrays([1, 2], [100.0, 200.0])
        yet = make_yet([1, 1, 3], [1, 2, 1], n_trials=5)
        pf = Portfolio([Layer(0, [elt], LayerTerms())])
        results = risk_session(yet, pf).run_all(ALL_ENGINES)
        assert_engines_equivalent(results)
        for name in ("vectorized", "mapreduce"):
            res = results[name]
            np.testing.assert_array_equal(
                res.portfolio_ylt.losses, [0.0, 300.0, 0.0, 100.0, 0.0]
            )


class TestSequential:
    def test_known_answer(self):
        elt = EltTable.from_arrays([1, 2], [100.0, 50.0])
        yet = make_yet([0, 0, 1], [1, 2, 2], n_trials=2)
        terms = LayerTerms(occ_retention=25.0, agg_retention=10.0,
                           participation=0.5)
        pf = Portfolio([Layer(0, [elt], terms)])
        res = SequentialEngine().run(pf, yet)
        # trial0: (100-25)+(50-25)=100; agg: (100-10)*0.5=45
        # trial1: 25; agg: 15*0.5=7.5
        np.testing.assert_allclose(res.portfolio_ylt.losses, [45.0, 7.5])

    def test_emit_yelt_counts_covered_occurrences(self, tiny_workload):
        res = SequentialEngine().run(
            tiny_workload.portfolio, tiny_workload.yet, emit_yelt=True
        )
        lid = tiny_workload.portfolio.layers[0].layer_id
        yelt = res.yelt_by_layer[lid]
        lookup = tiny_workload.portfolio.layers[0].lookup()
        covered = (lookup(tiny_workload.yet.event_ids) > 0).sum()
        assert yelt.n_rows == covered


class TestVectorized:
    def test_yelt_to_ylt_consistency(self, tiny_workload):
        """Pre-aggregate YELT rolled up + aggregate terms == engine YLT."""
        layer = tiny_workload.portfolio.layers[0]
        res = VectorizedEngine().run(
            tiny_workload.portfolio, tiny_workload.yet, emit_yelt=True
        )
        yelt = res.yelt_by_layer[layer.layer_id]
        rebuilt = layer.terms.apply_aggregate(yelt.to_ylt().losses)
        np.testing.assert_allclose(
            rebuilt, res.ylt_by_layer[layer.layer_id].losses, rtol=1e-12
        )

    def test_sequential_and_vectorized_yelts_match(self, tiny_workload):
        seq = SequentialEngine().run(tiny_workload.portfolio, tiny_workload.yet,
                                     emit_yelt=True)
        vec = VectorizedEngine().run(tiny_workload.portfolio, tiny_workload.yet,
                                     emit_yelt=True)
        lid = tiny_workload.portfolio.layers[0].layer_id
        assert seq.yelt_by_layer[lid].table.equals(
            vec.yelt_by_layer[lid].table, rtol=1e-12, atol=1e-9
        )


class _Returning(VectorizedEngine):
    """A host engine whose substrate answers with a given matrix."""

    def __init__(self, matrix):
        super().__init__()
        self.matrix = matrix

    def _execute(self, kernel, yet):
        return self.matrix, {}


class TestHostEngineChecksItsAnswer:
    """The host driver checks the answer matrix and the portfolio total
    once each, not one YLT at a time — and still refuses what a YLT
    refuses."""

    def test_total_is_the_row_by_row_sum(self, small_portfolio_workload):
        wl = small_portfolio_workload
        res = VectorizedEngine().run(wl.portfolio, wl.yet)
        ylts = list(res.ylt_by_layer.values())
        assert len(ylts) == 3
        np.testing.assert_array_equal(res.portfolio_ylt.losses,
                                      YltTable.sum(ylts).losses)

    @pytest.mark.parametrize("bad, match", [
        ("negative", "non-negative"), ("nan", "finite"),
        ("overflowing total", "finite")])
    def test_a_bad_answer_still_raises(self, small_portfolio_workload,
                                       bad, match):
        wl = small_portfolio_workload
        result = VectorizedEngine().run(wl.portfolio, wl.yet)
        matrix = np.array([ylt.losses for ylt in result.ylt_by_layer.values()])
        if bad == "negative":
            matrix[1, 5] = -1.0
        elif bad == "nan":
            matrix[2, 0] = np.nan
        else:                 # every row finite, their sum is not
            matrix[:, 7] = np.finfo(np.float64).max
        with np.errstate(over="ignore"), \
                pytest.raises(ConfigurationError, match=match):
            _Returning(matrix).run(wl.portfolio, wl.yet)


class TestDeviceEngine:
    def test_chunked_equals_unchunked(self, tiny_workload):
        whole = DeviceEngine().run(tiny_workload.portfolio, tiny_workload.yet)
        chunked = DeviceEngine(max_rows_per_chunk=97).run(
            tiny_workload.portfolio, tiny_workload.yet
        )
        _assert_layers_equal(chunked, whole)

    def test_ablation_flags_do_not_change_results(self, tiny_workload):
        base = DeviceEngine().run(tiny_workload.portfolio, tiny_workload.yet)
        alt = DeviceEngine(use_constant=False).run(
            tiny_workload.portfolio, tiny_workload.yet
        )
        _assert_layers_equal(alt, base)

    @pytest.mark.parametrize("use_constant", [True, False])
    @pytest.mark.parametrize("max_rows_per_chunk", [1, 97, 1000, None])
    def test_chunk_size_invariant(self, small_portfolio_workload,
                                  max_rows_per_chunk, use_constant):
        """A chunk is whole trials swept by the one block task, so every
        chunk size and placement answers each layer exactly as
        ``vectorized`` does — on a YET with empty trials too."""
        wl = small_portfolio_workload
        empty = make_yet([1, 1, 4], [3, 7, 3], n_trials=6)
        for yet in (wl.yet, empty):
            res = DeviceEngine(max_rows_per_chunk=max_rows_per_chunk,
                               use_constant=use_constant).run(wl.portfolio, yet)
            _assert_layers_equal(res, VectorizedEngine().run(wl.portfolio,
                                                             yet))

    def test_emits_the_vectorized_yelt(self, tiny_workload):
        _assert_yelts_equal(DeviceEngine(max_rows_per_chunk=97), tiny_workload)

    #: The plan of the tiny workload (5,081 occurrences over 200 trials,
    #: one 3,984 B dense book) at each chunk size: ``(rows_per_chunk,
    #: n_chunks_total)``; the rest of ``details`` is the same at all three.
    PLANS = {1: (1, 200), 97: (97, 61), None: (5081, 1)}

    @pytest.mark.parametrize("max_rows_per_chunk", PLANS)
    def test_the_plan_is_arithmetic(self, tiny_workload, max_rows_per_chunk):
        """The chunk plan is drawn from the kernel's metadata and the
        YET's trial offsets alone: these values, down to the transfer
        bytes, were the plan when every chunk was swept apart."""
        res = DeviceEngine(max_rows_per_chunk=max_rows_per_chunk).run(
            tiny_workload.portfolio, tiny_workload.yet)
        rows, chunks = self.PLANS[max_rows_per_chunk]
        details = dict(res.details)
        details.pop("routed")
        assert details == {
            "layers": {0: {"rows_per_chunk": rows, "rows_per_block": rows,
                           "lookup_in_constant": True,
                           "lookup_kind": "dense", "lookup_bytes": 3984}},
            "n_batches": 1, "n_chunks_total": chunks, "stack_uploads": 0,
            "sparse_stack_uploads": 0, "yet_uploads": chunks,
            "h2d_bytes": 44632, "d2h_bytes": 1600, "fused_layers": 1,
            "occurrences_processed": 5081, "tail_group_rows": 0,
        }

    @pytest.mark.parametrize("max_rows_per_chunk", PLANS)
    def test_one_sweep_whatever_the_chunking(self, tiny_workload,
                                             max_rows_per_chunk):
        """A chunk is a part of the plan, not a run: the engine sweeps
        the YET once, so its one row is routed once."""
        res = DeviceEngine(max_rows_per_chunk=max_rows_per_chunk).run(
            tiny_workload.portfolio, tiny_workload.yet)
        assert res.details["routed"]["kernel.lane_rows.by_event"] == 1
        assert sum(res.details["routed"].values()) == 1

    def test_transfers_accounted(self, tiny_workload):
        res = DeviceEngine().run(tiny_workload.portfolio, tiny_workload.yet)
        yet, details = tiny_workload.yet, res.details
        # Each resident batch streams the whole YET (int32 trial + event,
        # 4 B each) and its lookups in, and downloads its rows' annual
        # losses.
        lookups = sum(layer["lookup_bytes"]
                      for layer in details["layers"].values())
        assert details["h2d_bytes"] == (
            8 * yet.n_occurrences * details["n_batches"] + lookups)
        assert details["d2h_bytes"] == (
            8 * tiny_workload.portfolio.n_layers * yet.n_trials)

    def test_small_lookup_lands_in_constant(self, tiny_workload):
        res = DeviceEngine().run(tiny_workload.portfolio, tiny_workload.yet)
        lid = tiny_workload.portfolio.layers[0].layer_id
        # tiny workload: 500-event catalogue -> 4 KB dense table fits 64 KB
        assert res.details["layers"][lid]["lookup_in_constant"]

    def test_big_lookup_spills_to_global(self, tiny_workload):
        props = DeviceProperties(constant_mem_bytes=128)
        res = DeviceEngine(properties=props).run(tiny_workload.portfolio,
                                                 tiny_workload.yet)
        lid = tiny_workload.portfolio.layers[0].layer_id
        assert not res.details["layers"][lid]["lookup_in_constant"]
        ref = VectorizedEngine().run(tiny_workload.portfolio, tiny_workload.yet)
        _assert_layers_equal(res, ref)

    def test_sparse_lookup_path(self, tiny_workload):
        # A wide id range by the book's own shape: one ELT row far past
        # DENSE_MAX_ENTRIES, placed as the sorted pair.
        base = tiny_workload.portfolio.layers[0]
        far = EltTable.from_arrays([10**9], [75.0], contract_id=99)
        portfolio = Portfolio([Layer(base.layer_id, [*base.elts, far],
                                     base.terms)])
        res = DeviceEngine().run(portfolio, tiny_workload.yet)
        ref = SequentialEngine().run(portfolio, tiny_workload.yet)
        assert_engines_equivalent({"sequential": ref, "device": res})
        assert res.details["layers"][base.layer_id]["lookup_kind"] == "sparse"
        assert res.details["sparse_stack_uploads"] == 1

    def test_portfolio_too_big_to_coreside_splits_into_batches(
            self, small_portfolio_workload):
        """A global space that cannot host all layers at once must fall
        back to multiple resident batches, not fail mid-upload."""
        pf, yet = (small_portfolio_workload.portfolio,
                   small_portfolio_workload.yet)
        lk = pf.layers[0].lookup()      # placed as a table this wide
        lookup_bytes = 8 * effective_width(lk.ids, lk.values)
        # Room for roughly one layer's lookup + annual + a small chunk.
        props = DeviceProperties(
            global_mem_bytes=3 * (lookup_bytes + yet.n_trials * 8)
        )
        res = DeviceEngine(properties=props).run(pf, yet)
        assert res.details["n_batches"] > 1
        _assert_layers_equal(res, VectorizedEngine().run(pf, yet))


class TestMulticore:
    @pytest.mark.parametrize("n_workers", [1, 2, 5])
    def test_worker_count_invariant(self, tiny_workload, n_workers):
        with multicore(n_workers) as engine:
            res = engine.run(tiny_workload.portfolio, tiny_workload.yet)
        ref = VectorizedEngine().run(tiny_workload.portfolio, tiny_workload.yet)
        _assert_layers_equal(res, ref)

    def test_one_worker_pool_runs_in_process(self, small_portfolio_workload):
        """A run of one span — a one-worker pool, or a two-worker pool
        over a one-trial YET — sweeps on the calling thread, and says so
        in its details and its trace: no worker is spawned, nothing is
        shipped or staged."""
        from repro.hpc import shm

        wl = small_portfolio_workload
        rows = wl.yet.trials == 0
        one_trial = make_yet(wl.yet.trials[rows], wl.yet.event_ids[rows],
                             n_trials=1)
        for n_workers, yet in ((1, wl.yet), (2, one_trial)):
            ref = VectorizedEngine().run(wl.portfolio, yet)
            before = shm.active_segment_names()
            with multicore(n_workers) as engine:
                res = engine.run(wl.portfolio, yet)
                assert shm.active_segment_names() == before
                assert not engine.dispatcher.pool.started
                assert engine.dispatcher.payload_ships == 0
                spans = engine.dispatcher.telemetry.snapshot()["spans"]
            assert [span["annotations"]["transport"] for span in spans
                    if span["name"] == "dispatch.pooled"] == ["inline"]
            assert res.details["transport"] == "inline"
            assert res.details["n_workers"] == res.details["n_blocks"] == 1
            for lid, ylt in ref.ylt_by_layer.items():
                np.testing.assert_array_equal(res.ylt_by_layer[lid].losses,
                                              ylt.losses)

    def test_more_workers_than_trials(self):
        elt = EltTable.from_arrays([1], [10.0])
        yet = make_yet([0, 1], [1, 1], n_trials=2)
        pf = Portfolio([Layer(0, [elt], LayerTerms())])
        with multicore(16) as engine:
            res = engine.run(pf, yet)
        assert res.details["n_blocks"] == 2
        np.testing.assert_allclose(res.portfolio_ylt.losses, [10.0, 10.0])

    def test_emit_yelt_unsupported(self, tiny_workload):
        """``emit_yelt`` is unsupported by no engine: a pooled run emits
        ``vectorized``'s YELTs, column by column."""
        with multicore(2) as engine:
            _assert_yelts_equal(engine, tiny_workload)

    def test_pool_is_lazy(self, tiny_workload):
        """The engine builds no pool, not even lazily: run unridden it
        says how to get one.  Riding a pool, constructing the engine (or
        reading its pool) spawns no worker; the first parallel run
        does."""
        engine = MulticoreEngine()
        with pytest.raises(ConfigurationError, match=(
                r"RiskSession\(yet, n_workers=.*riding\(PooledDispatcher")):
            engine.run(tiny_workload.portfolio, tiny_workload.yet)
        with pytest.raises(ConfigurationError):
            engine.dispatcher
        with multicore(4) as engine:
            # four processors: the caller and three workers
            assert engine.dispatcher.n_workers == 4
            assert engine.dispatcher.pool.n_workers == 3
            assert not engine.dispatcher.pool.started
            engine.run(tiny_workload.portfolio, tiny_workload.yet)
            assert engine.dispatcher.pool.started

    @pytest.mark.parametrize("mode", ["shm", "no_shm", "degraded"])
    def test_entry_points_run_one_path(self, small_portfolio_workload,
                                       risk_session, monkeypatch, mode):
        """A standalone engine, the registry's and the session's are one
        implementation — and so are the two host engines: bit-identical
        answers, one block task, one ``details`` schema.  A host without
        shared memory runs the degraded loop."""
        from repro.hpc import shm
        from repro.serve import dispatch

        wl = small_portfolio_workload
        config = dict(n_workers=2)
        if mode == "no_shm":
            monkeypatch.setattr(shm, "_AVAILABLE", False)
        degraded = mode == "degraded"
        serial = mode != "shm"
        blocks = []
        if serial:
            # In-process runs only: a pooled run pickles the task by name.
            real = dispatch._sweep_trials
            monkeypatch.setattr(
                dispatch, "_sweep_trials",
                lambda yet, kernel, t0, t1: (blocks.append((t0, t1)),
                                             real(yet, kernel, t0, t1))[1])
        before = shm.active_segment_names()
        results = []
        for cls in (MulticoreEngine, engine_class("multicore")):
            with dispatch.PooledDispatcher(**config) as dispatcher:
                engine = cls.riding(dispatcher)
                dispatcher.pool.health.degraded = degraded
                results.append(engine.run(wl.portfolio, wl.yet))
            assert shm.active_segment_names() == before
        session = risk_session(wl.yet, wl.portfolio, **config)
        session.dispatcher("pooled").pool.health.degraded = degraded
        results.append(session.aggregate(engine="multicore"))

        wholes = [VectorizedEngine().run(wl.portfolio, wl.yet),
                  get_engine("vectorized").run(wl.portfolio, wl.yet),
                  session.aggregate(engine="vectorized")]
        for res in results:
            assert res.details["transport"] == ("inline" if serial else "shm")
            assert res.details["n_blocks"] == 2
            assert res.details["n_workers"] == (1 if serial else 2)
            assert res.details["degraded"] is serial
        for res in wholes:
            assert res.details["transport"] == "inline"
            assert (res.details["n_blocks"], res.details["n_workers"],
                    res.details["degraded"]) == (1, 1, False)
        for res in results + wholes:
            assert set(res.details) == {
                "n_workers", "n_blocks", "transport", "degraded",
                "fused_layers", "occurrences_processed", "tail_group_rows",
                "routed"}
            for lid, ylt in wholes[0].ylt_by_layer.items():
                np.testing.assert_array_equal(res.ylt_by_layer[lid].losses,
                                              ylt.losses)
        if serial:
            assert blocks == [(0, 150), (150, 300)] * 3 + [(0, 300)] * 3


def _assert_layers_equal(res, ref):
    assert res.ylt_by_layer.keys() == ref.ylt_by_layer.keys()
    for lid, ylt in ref.ylt_by_layer.items():
        np.testing.assert_array_equal(res.ylt_by_layer[lid].losses, ylt.losses)


def _assert_yelts_equal(engine, wl):
    """``engine``'s YELTs are ``vectorized``'s, column by column: a YELT
    is drawn host-side from the run's kernel and YET, whichever engine
    priced the YLT."""
    res = engine.run(wl.portfolio, wl.yet, emit_yelt=True)
    ref = VectorizedEngine().run(wl.portfolio, wl.yet, emit_yelt=True)
    _assert_layers_equal(res, ref)
    assert res.yelt_by_layer.keys() == ref.yelt_by_layer.keys()
    assert res.yelt_rows() == ref.yelt_rows() > 0
    for lid, yelt in ref.yelt_by_layer.items():
        for column in ("trial", "event_id", "loss"):
            np.testing.assert_array_equal(
                res.yelt_by_layer[lid].table[column], yelt.table[column])


class TestMapReduceEngine:
    @pytest.mark.parametrize("n_splits", [1, 4, 13, 1000])
    def test_split_count_invariant(self, tiny_workload,
                                   small_portfolio_workload, n_splits):
        """A map task sweeps whole trials only, so every split count —
        past the trial count too — answers each layer exactly as
        ``vectorized`` does, on one layer and on three."""
        for wl in (tiny_workload, small_portfolio_workload):
            res = MapReduceEngine(n_splits=n_splits).run(wl.portfolio,
                                                         wl.yet)
            _assert_layers_equal(
                res, VectorizedEngine().run(wl.portfolio, wl.yet))
            assert res.details["n_splits"] == min(n_splits, wl.yet.n_trials)

    def test_job_results_recorded(self, small_portfolio_workload):
        """One job for the whole portfolio: a map task per split, each
        emitting one ``(t0, (L, span))`` block through an identity
        reducer, and its rows routed on the engine's dispatcher."""
        wl = small_portfolio_workload
        engine = MapReduceEngine(n_splits=4)
        res = engine.run(wl.portfolio, wl.yet)
        job = engine.last_job
        assert len(job.map_task_seconds) == 4
        counters = job.counters
        assert counters["map_input_records"] == wl.yet.n_occurrences
        assert counters["map_output_records"] == 4
        assert counters["reduce_output_records"] == 4
        assert counters["combine_output_records"] == 0
        assert counters["shuffle_bytes"] == (
            4 * 16 + wl.portfolio.n_layers * wl.yet.n_trials * 8)
        assert res.details["counters"] == counters
        routed = {name: rows for name, rows in res.details["routed"].items()
                  if "fallback" not in name}
        assert sum(routed.values()) == wl.portfolio.n_layers * 4
        plane = engine.dispatcher.telemetry.snapshot()["metrics"]
        assert sum(plane[name] for name in routed) == sum(routed.values())
        assert plane["kernel.lane_rows.by_event"] + plane[
            "kernel.lane_rows.by_stream"] > 0

    def test_repeat_jobs_build_each_split_index_once(
            self, small_portfolio_workload, monkeypatch):
        """The engine keeps the splits of the DFS path it read: three
        jobs over one YET at eight splits build eight event indexes, one
        per split, not twenty-four, and answer alike."""
        wl = small_portfolio_workload
        built = []
        build = EventIndex.__init__

        def counted(index, segments):
            built.append(segments.n_trials)
            build(index, segments)

        monkeypatch.setattr(EventIndex, "__init__", counted)
        engine = MapReduceEngine(n_splits=8)
        first = engine.run(wl.portfolio, wl.yet)
        for _ in range(2):
            _assert_layers_equal(engine.run(wl.portfolio, wl.yet), first)
        assert len(built) == 8
        assert sum(built) == wl.yet.n_trials

    def test_reused_object_id_reads_the_new_yet(self):
        """The DFS input is keyed by content: alternating two YETs that
        differ only in event ids, freed between runs so CPython may hand
        the new one the old one's id, never serves the previous YET's
        losses; an equal-content YET writes no second file."""
        elt = EltTable.from_arrays([1, 2, 3], [100.0, 200.0, 400.0])
        pf = Portfolio([Layer(0, [elt], LayerTerms())])
        engine = MapReduceEngine(n_splits=2)
        events = ([3, 2, 1], [1, 2, 3])
        refs = [VectorizedEngine().run(pf, make_yet([0, 1, 2], e, 3))
                for e in events]
        for run in range(20):
            # The YET dies with the run, so the next one may take its id.
            _assert_layers_equal(
                engine.run(pf, make_yet([0, 1, 2], events[run % 2], 3)),
                refs[run % 2])
        assert len(engine.dfs.list_files()) == 2
        engine.run(pf, make_yet([0, 1, 2], [1, 2, 3], 3))
        assert len(engine.dfs.list_files()) == 2

    def test_emit_yelt_unsupported(self, tiny_workload):
        """``emit_yelt`` is unsupported by no engine: a MapReduce job
        emits ``vectorized``'s YELTs, column by column."""
        _assert_yelts_equal(MapReduceEngine(n_splits=3), tiny_workload)
