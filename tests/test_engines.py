"""Tests for the five aggregate-analysis engines.

The central invariant: every engine reproduces the sequential oracle's
YLT exactly (to fp tolerance), whatever its execution substrate.
"""

import numpy as np
import pytest

from repro.analytics.comparison import assert_engines_equivalent, compare_engines
from repro.core.engines import (
    DeviceEngine,
    MapReduceEngine,
    MulticoreEngine,
    SequentialEngine,
    VectorizedEngine,
    available_engines,
    get_engine,
)
from repro.core.simulation import AggregateAnalysis
from repro.core.tables import EltTable, YetTable, YltTable
from repro.core.terms import LayerTerms
from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.data.columnar import ColumnTable
from repro.errors import ConfigurationError, EngineError
from repro.hpc.device import DeviceProperties, SimulatedGpu

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
    def test_all_engines_match_oracle(self, tiny_workload):
        assert_engines_equivalent(
            tiny_workload.portfolio, tiny_workload.yet, ALL_ENGINES
        )

    def test_multi_layer_portfolio(self, small_portfolio_workload):
        assert_engines_equivalent(
            small_portfolio_workload.portfolio, small_portfolio_workload.yet,
            ALL_ENGINES,
        )

    def test_compare_engines_reports_diffs(self, tiny_workload):
        report = compare_engines(
            tiny_workload.portfolio, tiny_workload.yet, ["vectorized"]
        )
        assert report["vectorized"]["max_abs_diff"] < 1e-6

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
    def test_equivalence_across_terms_extremes(self, tiny_workload, terms):
        layer = Layer(0, tiny_workload.portfolio.layers[0].elts, terms)
        assert_engines_equivalent(Portfolio([layer]), tiny_workload.yet,
                                  ALL_ENGINES)

    def test_yet_with_empty_trials(self):
        """Trials with zero occurrences must appear as zero-loss years."""
        elt = EltTable.from_arrays([1, 2], [100.0, 200.0])
        from repro.core.tables import YET_SCHEMA

        table = ColumnTable.from_arrays(
            YET_SCHEMA, trial=[1, 1, 3], seq=[0, 1, 0], event_id=[1, 2, 1]
        )
        yet = YetTable(table, n_trials=5)
        pf = Portfolio([Layer(0, [elt], LayerTerms())])
        assert_engines_equivalent(pf, yet, ALL_ENGINES)
        for name in ("vectorized", "mapreduce"):
            res = AggregateAnalysis(pf, yet).run(name)
            np.testing.assert_array_equal(
                res.portfolio_ylt.losses, [0.0, 300.0, 0.0, 100.0, 0.0]
            )


class TestSequential:
    def test_known_answer(self):
        elt = EltTable.from_arrays([1, 2], [100.0, 50.0])
        from repro.core.tables import YET_SCHEMA

        table = ColumnTable.from_arrays(
            YET_SCHEMA, trial=[0, 0, 1], seq=[0, 1, 0], event_id=[1, 2, 2]
        )
        yet = YetTable(table, n_trials=2)
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
        assert whole.portfolio_ylt.allclose(chunked.portfolio_ylt)

    def test_ablation_flags_do_not_change_results(self, tiny_workload):
        base = DeviceEngine().run(tiny_workload.portfolio, tiny_workload.yet)
        for flags in (dict(use_constant=False), dict(use_shared=False),
                      dict(use_constant=False, use_shared=False)):
            alt = DeviceEngine(**flags).run(
                tiny_workload.portfolio, tiny_workload.yet
            )
            assert base.portfolio_ylt.allclose(alt.portfolio_ylt)

    def test_transfers_accounted(self, tiny_workload):
        engine = DeviceEngine()
        res = engine.run(tiny_workload.portfolio, tiny_workload.yet)
        # YET uploaded once per layer (trial + event arrays) plus lookups.
        assert res.details["h2d_bytes"] >= tiny_workload.yet.n_occurrences * 16
        assert res.details["d2h_bytes"] >= tiny_workload.yet.n_trials * 8

    def test_small_lookup_lands_in_constant(self, tiny_workload):
        res = DeviceEngine().run(tiny_workload.portfolio, tiny_workload.yet)
        lid = tiny_workload.portfolio.layers[0].layer_id
        # tiny workload: 500-event catalogue -> 4 KB dense table fits 64 KB
        assert res.details["layers"][lid]["lookup_in_constant"]

    def test_big_lookup_spills_to_global(self, tiny_workload):
        gpu = SimulatedGpu(DeviceProperties(constant_mem_bytes=128))
        res = DeviceEngine(gpu=gpu).run(tiny_workload.portfolio, tiny_workload.yet)
        lid = tiny_workload.portfolio.layers[0].layer_id
        assert not res.details["layers"][lid]["lookup_in_constant"]
        ref = VectorizedEngine().run(tiny_workload.portfolio, tiny_workload.yet)
        assert res.portfolio_ylt.allclose(ref.portfolio_ylt)

    def test_sparse_lookup_path(self, tiny_workload):
        # CSR by the book's own shape: one ELT row far past the dense
        # threshold.
        base = tiny_workload.portfolio.layers[0]
        far = EltTable.from_arrays([10**9], [75.0], contract_id=99)
        portfolio = Portfolio([Layer(base.layer_id, [*base.elts, far],
                                     base.terms)])
        res = DeviceEngine().run(portfolio, tiny_workload.yet)
        ref = SequentialEngine().run(portfolio, tiny_workload.yet)
        assert res.portfolio_ylt.allclose(ref.portfolio_ylt)
        assert res.details["layers"][base.layer_id]["lookup_kind"] == "sparse"

    def test_portfolio_too_big_to_coreside_splits_into_batches(
            self, small_portfolio_workload):
        """A global space that cannot host all layers at once must fall
        back to multiple resident batches, not fail mid-upload."""
        pf, yet = (small_portfolio_workload.portfolio,
                   small_portfolio_workload.yet)
        lookup_bytes = pf.layers[0].lookup().nbytes
        # Room for roughly one layer's lookup + annual + a small chunk.
        gpu = SimulatedGpu(DeviceProperties(
            global_mem_bytes=3 * (lookup_bytes + yet.n_trials * 8)
        ))
        res = DeviceEngine(gpu=gpu).run(pf, yet)
        assert res.details["n_batches"] > 1
        ref = VectorizedEngine().run(pf, yet)
        assert res.portfolio_ylt.allclose(ref.portfolio_ylt)


class TestMulticore:
    @pytest.mark.parametrize("n_workers", [1, 2, 5])
    def test_worker_count_invariant(self, tiny_workload, n_workers):
        with MulticoreEngine(n_workers=n_workers) as engine:
            res = engine.run(tiny_workload.portfolio, tiny_workload.yet)
        ref = VectorizedEngine().run(tiny_workload.portfolio, tiny_workload.yet)
        assert res.portfolio_ylt.allclose(ref.portfolio_ylt)

    def test_one_worker_pool_runs_in_process(self, small_portfolio_workload):
        """A one-worker pool runs its one span on the calling thread, and
        says so: no worker is spawned and nothing is shipped."""
        wl = small_portfolio_workload
        ref = VectorizedEngine().run(wl.portfolio, wl.yet)
        with MulticoreEngine(n_workers=1) as engine:
            res = engine.run(wl.portfolio, wl.yet)
            assert not engine.pool.started
            assert engine.pool.payload_ships == 0
        assert res.details["transport"] == "inline"
        assert res.details["n_workers"] == res.details["n_blocks"] == 1
        for lid, ylt in ref.ylt_by_layer.items():
            np.testing.assert_array_equal(res.ylt_by_layer[lid].losses,
                                          ylt.losses)

    def test_more_workers_than_trials(self):
        elt = EltTable.from_arrays([1], [10.0])
        from repro.core.tables import YET_SCHEMA

        table = ColumnTable.from_arrays(
            YET_SCHEMA, trial=[0, 1], seq=[0, 0], event_id=[1, 1]
        )
        yet = YetTable(table, n_trials=2)
        pf = Portfolio([Layer(0, [elt], LayerTerms())])
        with MulticoreEngine(n_workers=16) as engine:
            res = engine.run(pf, yet)
        assert res.details["n_blocks"] == 2
        np.testing.assert_allclose(res.portfolio_ylt.losses, [10.0, 10.0])

    def test_emit_yelt_unsupported(self, tiny_workload):
        with pytest.raises(EngineError):
            MulticoreEngine().run(tiny_workload.portfolio, tiny_workload.yet,
                                  emit_yelt=True)

    def test_pool_is_lazy(self):
        """Constructing the engine (or reading its pool) must not spawn
        workers; the first parallel run does."""
        engine = MulticoreEngine(n_workers=4)
        assert engine.pool.n_workers == 4
        assert not engine.pool.started
        engine.close()

    def test_close_idempotent_and_reusable(self, tiny_workload):
        engine = MulticoreEngine(n_workers=2)
        res = engine.run(tiny_workload.portfolio, tiny_workload.yet)
        engine.close()
        engine.close()  # idempotent
        assert not engine.pool.started
        # The engine stays usable: a fresh pool is built on demand.
        again = engine.run(tiny_workload.portfolio, tiny_workload.yet)
        assert res.portfolio_ylt.allclose(again.portfolio_ylt)
        engine.close()

    def test_context_manager_closes(self, tiny_workload):
        with MulticoreEngine(n_workers=2) as engine:
            engine.run(tiny_workload.portfolio, tiny_workload.yet)
            pool = engine.pool
            assert pool.started
        assert not pool.started
        assert engine.pool is not pool      # a closed substrate is gone

    @pytest.mark.parametrize("mode", ["shm", "pickle", "degraded"])
    def test_entry_points_run_one_path(self, small_portfolio_workload,
                                       risk_session, monkeypatch, mode):
        """A standalone engine, the registry's and the session's are one
        implementation — and so are the two host engines: bit-identical
        answers, one block task, one ``details`` schema."""
        from repro.hpc import shm
        from repro.serve import dispatch

        wl = small_portfolio_workload
        config = dict(n_workers=2,
                      transport="pickle" if mode == "pickle" else "auto")
        degraded = mode == "degraded"
        blocks = []
        if degraded:
            # In-process runs only: a pooled run pickles the task by name.
            real = dispatch._sweep_trials
            monkeypatch.setattr(
                dispatch, "_sweep_trials",
                lambda yet, kernel, t0, t1: (blocks.append((t0, t1)),
                                             real(yet, kernel, t0, t1))[1])
        before = shm.active_segment_names()
        results = []
        for engine in (MulticoreEngine(**config),
                       get_engine("multicore", **config)):
            with engine:
                engine.pool.health.degraded = degraded
                results.append(engine.run(wl.portfolio, wl.yet))
            assert shm.active_segment_names() == before
        session = risk_session(wl.yet, wl.portfolio, **config)
        session.dispatcher("pooled").pool.health.degraded = degraded
        results.append(session.aggregate(engine="multicore"))

        wholes = [VectorizedEngine().run(wl.portfolio, wl.yet),
                  get_engine("vectorized").run(wl.portfolio, wl.yet),
                  session.aggregate(engine="vectorized")]
        for res in results:
            assert res.details["transport"] == ("inline" if degraded else mode)
            assert res.details["n_blocks"] == 2
            assert res.details["n_workers"] == (1 if degraded else 2)
            assert res.details["degraded"] is degraded
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
        if degraded:
            assert blocks == [(0, 150), (150, 300)] * 3 + [(0, 300)] * 3


def _assert_layers_equal(res, ref):
    assert res.ylt_by_layer.keys() == ref.ylt_by_layer.keys()
    for lid, ylt in ref.ylt_by_layer.items():
        np.testing.assert_array_equal(res.ylt_by_layer[lid].losses, ylt.losses)


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

    def test_reused_object_id_reads_the_new_yet(self):
        """The DFS input is keyed by content: alternating two YETs that
        differ only in event ids, freed between runs so CPython may hand
        the new one the old one's id, never serves the previous YET's
        losses; an equal-content YET writes no second file."""
        from repro.core.tables import YET_SCHEMA

        elt = EltTable.from_arrays([1, 2, 3], [100.0, 200.0, 400.0])
        pf = Portfolio([Layer(0, [elt], LayerTerms())])
        engine = MapReduceEngine(n_splits=2)

        def make_yet(events):
            table = ColumnTable.from_arrays(
                YET_SCHEMA, trial=[0, 1, 2], seq=[0, 0, 0], event_id=events)
            return YetTable(table, n_trials=3)

        events = ([3, 2, 1], [1, 2, 3])
        refs = [VectorizedEngine().run(pf, make_yet(e)) for e in events]
        for run in range(20):
            # The YET dies with the run, so the next one may take its id.
            _assert_layers_equal(
                engine.run(pf, make_yet(events[run % 2])), refs[run % 2])
        assert len(engine.dfs.list_files()) == 2
        engine.run(pf, make_yet([1, 2, 3]))
        assert len(engine.dfs.list_files()) == 2

    def test_emit_yelt_unsupported(self, tiny_workload):
        with pytest.raises(EngineError):
            MapReduceEngine().run(tiny_workload.portfolio, tiny_workload.yet,
                                  emit_yelt=True)
