"""Tests for columnar compression and the out-of-core path (the
vectorized engine over a YET on disk)."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.engines import MulticoreEngine, VectorizedEngine
from repro.core.kernels import MIN_TAIL_GROUP
from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.core.tables import YET_SCHEMA, EltTable, StoredYet, YetTable
from repro.core.terms import LayerTerms
from repro.data.columnar import ColumnTable
from repro.data.compression import (
    compression_ratio,
    decode_column,
    encode_column,
    pack_table_compressed,
    unpack_table_compressed,
)
from repro.data.schema import Schema
from repro.data.serialization import pack_table
from repro.data.store import ChunkStore
from repro.errors import EngineError, StorageError
from repro.serve.dispatch import InlineDispatcher, PooledDispatcher
from repro.session import RiskSession


class TestColumnCodecs:
    def test_sorted_ints_roundtrip(self):
        values = np.arange(1000, dtype=np.int64)
        codec, payload = encode_column(values)
        assert codec == "delta-varint"
        out = decode_column(codec, payload, values.dtype, values.size)
        np.testing.assert_array_equal(out, values)

    def test_sorted_ints_compress_well(self):
        values = np.arange(10_000, dtype=np.int64)
        _, payload = encode_column(values)
        assert len(payload) < values.nbytes / 5

    def test_negative_ints_roundtrip(self):
        values = np.array([-5, 3, -1000, 0, 7], dtype=np.int64)
        codec, payload = encode_column(values)
        out = decode_column(codec, payload, values.dtype, values.size)
        np.testing.assert_array_equal(out, values)

    def test_floats_raw(self):
        values = np.random.default_rng(0).random(100)
        codec, payload = encode_column(values)
        assert codec == "raw"
        out = decode_column(codec, payload, values.dtype, values.size)
        np.testing.assert_array_equal(out, values)

    def test_unknown_codec_rejected(self):
        with pytest.raises(StorageError):
            decode_column("brotli", b"", np.dtype("f8"), 0)

    def test_truncated_varint_rejected(self):
        values = np.arange(10, dtype=np.int64)
        codec, payload = encode_column(values)
        with pytest.raises(StorageError):
            decode_column(codec, payload[:-1], values.dtype, values.size)

    @settings(max_examples=40)
    @given(values=hnp.arrays(np.int64, st.integers(0, 200),
                             elements=st.integers(-2**40, 2**40)))
    def test_int_roundtrip_property(self, values):
        codec, payload = encode_column(values)
        out = decode_column(codec, payload, values.dtype, values.size)
        np.testing.assert_array_equal(out, values)


class TestCompressedTables:
    S = Schema([("trial", np.int64), ("seq", np.int32),
                ("event_id", np.int64), ("loss", np.float64)])

    def make_yet_like(self, n=5000):
        rng = np.random.default_rng(0)
        counts = rng.poisson(10, 500)
        trial = np.repeat(np.arange(500), counts)[:n]
        n = trial.size
        return ColumnTable.from_arrays(
            self.S,
            trial=trial,
            seq=np.arange(n) % 13,
            event_id=rng.integers(0, 10_000, n),
            loss=rng.lognormal(10, 1, n),
        )

    def test_roundtrip(self):
        t = self.make_yet_like()
        assert unpack_table_compressed(pack_table_compressed(t)).equals(t)

    def test_yet_compresses_meaningfully(self):
        """Sorted trial + sawtooth seq: the ratio must beat 1.5x overall."""
        t = self.make_yet_like()
        assert compression_ratio(t) > 1.5

    def test_empty_table(self):
        t = ColumnTable(self.S)
        assert unpack_table_compressed(pack_table_compressed(t)).n_rows == 0

    def test_bad_magic_rejected(self):
        with pytest.raises(StorageError):
            unpack_table_compressed(b"nope" + b"\x00" * 16)

    def test_truncated_rejected(self):
        data = pack_table_compressed(self.make_yet_like(100))
        with pytest.raises(StorageError):
            unpack_table_compressed(data[:-10])


WIDTH = 64
BY_EVENT, BY_STREAM, BY_PROFILE = ("kernel.lane_rows.by_event",
                                   "kernel.lane_rows.by_stream",
                                   "kernel.profile_rows")


def mixed_portfolio():
    """A book with rows on every kernel path: a dense row three of 64
    entries pierce (by events), a ground-up dense row (on the stream), a
    row over a wide id range (by events) and a same-book group (book
    profile)."""
    rng = np.random.default_rng(3)
    ids = np.arange(WIDTH)

    def elt(contract_id, ids=ids):
        return EltTable.from_arrays(ids, rng.lognormal(10, 1.5, ids.size),
                                    contract_id=contract_id)

    high, shared = elt(0), elt(3)
    attach = float(np.sort(high.mean_losses)[-4])
    return Portfolio([
        Layer(0, [high], LayerTerms(occ_retention=attach, occ_limit=5e5)),
        Layer(1, [elt(1)], LayerTerms()),
        Layer(2, [elt(2, np.append(ids, 10**9))],          # forced sparse
              LayerTerms(occ_retention=1e4, agg_limit=5e6)),
        *(Layer(10 + i, [shared], LayerTerms(occ_retention=2e3 * i,
                                             occ_limit=5e4))
          for i in range(MIN_TAIL_GROUP)),
    ])


def yet_of(counts, seed=0):
    rng = np.random.default_rng(seed)
    trials = np.repeat(np.arange(len(counts)), counts)
    events = rng.integers(0, WIDTH + 3, trials.size)     # some past the books
    events[rng.random(trials.size) < 0.05] = 10**9       # the wide book's far id
    table = ColumnTable.from_arrays(
        YET_SCHEMA, trial=trials, seq=np.zeros(trials.size, dtype=np.int32),
        event_id=events)
    return YetTable(table, len(counts))


def column(name, values):
    """A one-column table, stored in the dtype ``values`` is given in."""
    values = np.asarray(values)
    return ColumnTable.from_arrays(Schema([(name, values.dtype)]),
                                   **{name: values})


def stored_chunks(root, offsets, *chunks):
    """A stored YET ``"yet"`` holding exactly the given trial offsets
    (none: no offsets table) and chunks of event ids."""
    store = ChunkStore(root)
    if offsets is not None:
        store.write_chunks("yet.trial_offsets",
                           [column("trial_offset", offsets)])
    store.write_chunks("yet", [column("event_id", c) for c in chunks])
    return store


def write_stored(root, yet, rows_per_chunk):
    """``yet`` stored as ``"yet"`` through :meth:`StoredYet.write`."""
    store = ChunkStore(root)
    StoredYet.write(store, "yet", yet, rows_per_chunk)
    return store


def run_stored(portfolio, store, name="yet"):
    """One out-of-core run: ``(result, the pass's yet.store.* levels)``."""
    yet = StoredYet(store, name)
    res = VectorizedEngine().run(portfolio, yet)
    return res, yet.cache_levels()


def assert_matches_vectorized(res, portfolio, yet):
    """Per layer, bit for bit, against the in-memory whole-YET run."""
    with RiskSession(yet, portfolio) as session:
        ref = session.aggregate(engine="vectorized")
    assert set(res.details) == set(ref.details)
    assert set(res.details["routed"]) == set(ref.details["routed"])
    assert set(res.ylt_by_layer) == set(ref.ylt_by_layer)
    for lid, ylt in ref.ylt_by_layer.items():
        np.testing.assert_array_equal(res.ylt_by_layer[lid].losses, ylt.losses,
                                      err_msg=f"layer {lid}")
    np.testing.assert_array_equal(res.portfolio_ylt.losses,
                                  ref.portfolio_ylt.losses)
    return ref


def skewed_yet():
    """40 trials: 0, 20 and 39 empty (first, middle, last), trial 5 has
    300 rows."""
    counts = np.random.default_rng(1).poisson(12, 40)
    counts[[0, 20, 39]] = 0
    counts[5] = 300
    return yet_of(counts)


class TestOutOfCoreEngine:
    """The out-of-core path: :class:`VectorizedEngine` over a
    :class:`StoredYet`, swept block by block by its inline dispatcher."""

    def test_matches_vectorized(self, tiny_workload, tmp_path):
        store = write_stored(tmp_path, tiny_workload.yet, 97)
        res, levels = run_stored(tiny_workload.portfolio, store)
        assert_matches_vectorized(res, tiny_workload.portfolio,
                                  tiny_workload.yet)
        assert levels["yet.store.chunks_read"] > 1
        assert levels["yet.store.rows_read"] == tiny_workload.yet.n_occurrences
        assert res.engine == "vectorized"
        assert res.details["occurrences_processed"] == (
            tiny_workload.yet.n_occurrences
            * tiny_workload.portfolio.n_layers)

    def test_chunk_size_invariance(self, tiny_workload, tmp_path):
        results = []
        for i, rows in enumerate((31, 97, 10_000)):
            store = write_stored(tmp_path / str(i), tiny_workload.yet, rows)
            res, _ = run_stored(tiny_workload.portfolio, store)
            results.append(res.ylt_by_layer)
        for other in results[1:]:
            for lid, ylt in results[0].items():
                np.testing.assert_array_equal(other[lid].losses, ylt.losses)

    @pytest.mark.parametrize("rows_per_chunk", [1, 31, 97, 10_000])
    def test_every_kernel_path_matches_vectorized(self, tmp_path,
                                                  rows_per_chunk):
        """Whatever the chunk size, the in-memory answer — with every
        kernel path proved to have run in every block."""
        portfolio, yet = mixed_portfolio(), skewed_yet()
        store = write_stored(tmp_path, yet, rows_per_chunk)
        res, levels = run_stored(portfolio, store)
        ref = assert_matches_vectorized(res, portfolio, yet)
        for lid, ylt in ref.ylt_by_layer.items():
            assert ylt.losses.any(), f"layer {lid} prices nothing"
        assert ref.details["routed"] == dict(
            dict.fromkeys(ref.details["routed"], 0),
            **{BY_EVENT: 2, BY_STREAM: 1, BY_PROFILE: MIN_TAIL_GROUP})
        # every chunk with rows is one block that routes them
        n_blocks = sum(1 for chunk in store.iter_chunks("yet")
                       if chunk.n_rows)
        assert levels["yet.store.chunks_read"] >= n_blocks
        assert res.details["routed"] == {
            name: rows * n_blocks
            for name, rows in ref.details["routed"].items()}

    @settings(max_examples=25, deadline=None)
    @given(counts=st.lists(st.integers(0, 40), min_size=1, max_size=25),
           rows_per_chunk=st.integers(1, 200), seed=st.integers(0, 2**16))
    def test_any_chunking_of_any_stream_matches_vectorized(
            self, counts, rows_per_chunk, seed):
        portfolio, yet = mixed_portfolio(), yet_of(counts, seed)
        with tempfile.TemporaryDirectory() as root:
            store = write_stored(root, yet, rows_per_chunk)
            res, levels = run_stored(portfolio, store)
        assert_matches_vectorized(res, portfolio, yet)
        assert levels["yet.store.rows_read"] == sum(counts)

    @pytest.mark.parametrize("span", [(0, 40), (5, 21), (20, 21), (38, 40)])
    def test_blocks_tile_the_span(self, tmp_path, span):
        """Blocks follow on from one another: laid end to end they are
        the in-memory block of the span, its empty trials included, and
        each is bounded by the whole YET's longest trial."""
        yet = skewed_yet()
        store = write_stored(tmp_path, yet, 31)
        t0, t1 = span
        start, trials, events = 0, [], []
        def trial_column(segments):
            return np.repeat(segments.trial_ids, np.diff(segments.bounds))

        whole = yet.trial_block(t0, t1)
        for segments in StoredYet(store, "yet").trial_blocks(t0, t1):
            assert segments.n_trials >= 1
            assert segments.max_count == whole.max_count == 300
            trials.append(trial_column(segments) + start)
            events.append(segments.event_ids)
            start += segments.n_trials
        assert start == t1 - t0
        np.testing.assert_array_equal(np.concatenate(trials),
                                      trial_column(whole))
        np.testing.assert_array_equal(np.concatenate(events), whole.event_ids)

    def test_one_trial_is_one_block(self, tmp_path):
        """A trial longer than the chunk bound is one chunk, alone; the
        empty trials around it are chunks of no rows."""
        portfolio, yet = mixed_portfolio(), yet_of([0, 0, 0, 50, 0])
        store = write_stored(tmp_path, yet, 7)
        assert [c.n_rows for c in store.iter_chunks("yet")] == [0, 50, 0]
        res, levels = run_stored(portfolio, store)
        assert_matches_vectorized(res, portfolio, yet)
        assert levels["yet.store.chunks_read"] == 3
        assert res.portfolio_ylt.losses[3] > 0.0

    def test_zero_row_chunk_is_skipped(self, tmp_path):
        portfolio, yet = mixed_portfolio(), yet_of([4, 6, 5])
        e = yet.event_ids
        store = stored_chunks(tmp_path, yet.trial_offsets, e[:4], e[4:4], e[4:])
        res, levels = run_stored(portfolio, store)
        assert_matches_vectorized(res, portfolio, yet)
        assert levels["yet.store.chunks_read"] == 3
        assert levels["yet.store.rows_read"] == 15

    def test_empty_table_prices_to_zero(self, tmp_path):
        """Nothing to route: the span is one zero-length block."""
        store = write_stored(tmp_path, YetTable(ColumnTable(YET_SCHEMA), 6), 10)
        res, levels = run_stored(mixed_portfolio(), store)
        assert levels == {"yet.store.chunks_read": 1, "yet.store.rows_read": 0}
        assert not any(res.details["routed"].values())
        assert len(res.ylt_by_layer) == 3 + MIN_TAIL_GROUP
        for ylt in res.ylt_by_layer.values():
            np.testing.assert_array_equal(ylt.losses, np.zeros(6))

    def test_a_run_shows_up_on_the_plane(self, tmp_path):
        """Routing, the inline rate and what the pass read reach the
        engine's dispatcher's telemetry plane."""
        portfolio, yet = mixed_portfolio(), skewed_yet()
        store = write_stored(tmp_path, yet, 97)
        n_chunks = len(store.chunk_paths("yet"))
        engine = VectorizedEngine()
        engine.run(portfolio, StoredYet(store, "yet"))
        metrics = engine.dispatcher.telemetry.snapshot()["metrics"]
        for name in (BY_EVENT, BY_STREAM, BY_PROFILE,
                     "dispatch.inline.lanes_per_second"):
            assert metrics[name] > 0, name
        assert metrics["yet.store.chunks_read"] == n_chunks
        assert metrics["yet.store.rows_read"] == yet.n_occurrences

    def test_a_span_reads_up_to_its_last_trials_chunk(self, tmp_path):
        """A degraded 4-worker run sweeps a 16-chunk stored YET in four
        spans: each reads up to the chunk holding its last trial (4, 8,
        12 and 16 chunks), and the run's levels count all 40 reads."""
        portfolio, yet = mixed_portfolio(), yet_of(np.full(64, 5))
        store = write_stored(tmp_path, yet, 20)
        assert len(store.chunk_paths("yet")) == 16
        stored = StoredYet(store, "yet")
        with PooledDispatcher(n_workers=4) as dispatcher:
            dispatcher.pool.health.degraded = True
            assert len(dispatcher.spans(stored)) == 4
            final = dispatcher.run(portfolio.kernel(), stored)
            metrics = dispatcher.telemetry.snapshot()["metrics"]
            assert not dispatcher.pool.started
        np.testing.assert_array_equal(
            final, InlineDispatcher().run(portfolio.kernel(), yet))
        assert stored.cache_levels() == {"yet.store.chunks_read": 40,
                                         "yet.store.rows_read": 40 * 20}
        assert metrics["yet.store.chunks_read"] == 40

    def test_each_engine_takes_its_own_source(self, tiny_workload, tmp_path):
        """``vectorized`` reads either source; ``multicore`` reads a YET
        in memory, and says so before it looks for a pool."""
        stored = StoredYet.write(ChunkStore(tmp_path), "yet",
                                 tiny_workload.yet, 100)
        with pytest.raises(EngineError, match="expected YetTable, got"):
            MulticoreEngine().run(tiny_workload.portfolio, stored)
        engine = VectorizedEngine()
        np.testing.assert_array_equal(
            engine.run(tiny_workload.portfolio, stored).portfolio_ylt.losses,
            engine.run(tiny_workload.portfolio,
                       tiny_workload.yet).portfolio_ylt.losses)
        with pytest.raises(EngineError, match="YetTable or StoredYet"):
            engine.run(tiny_workload.portfolio, "not a yet")

    def test_a_stored_yelt_is_refused(self, tiny_workload, tmp_path):
        """A YELT is the occurrence stream priced row by row; a stored
        YET is never in memory whole, so asking for one is an error."""
        stored = StoredYet.write(ChunkStore(tmp_path), "yet",
                                 tiny_workload.yet, 100)
        with pytest.raises(EngineError, match="YELT"):
            VectorizedEngine().run(tiny_workload.portfolio, stored,
                                   emit_yelt=True)
        assert stored.cache_levels()["yet.store.chunks_read"] == 0

    @pytest.mark.parametrize("offsets, chunks, complaint", [
        ([0, 2, 1, 3], [[1, 2, 3]],
         "trial offsets: must start at 0 and never step back"),
        ([1, 3, 5], [[1, 2], [3, 4]],
         "trial offsets: must start at 0 and never step back"),
        ([0.0, 1.5, 4.0], [[1, 2, 3, 4]],
         "trial offsets: trial_offset column is float64, not integer"),
        (None, [[1, 2]], "trial offsets: not stored"),
        ([0, 2, 4, 6], [[1, 2], [3, 4]],
         "trial offsets: end at row 6, past the rows stored"),
        ([0, 2, 4], [[1, 2], [3, 4], [5]],
         "chunk 2: ends at row 5, inside a trial or past the last"),
        ([0, 2, 4], [[1], [2, 3, 4]],
         "chunk 0: ends at row 1, inside a trial or past the last"),
        ([0, 2, 4], [[1, 2], [3, -4]], "chunk 1: negative event id"),
        ([0, 2, 4], [[1, 2], [3.0, 4.5]],
         "chunk 1: event_id column is float64, not integer"),
        # int64 on disk, int32 in a block: narrowed, never wrapped
        ([0, 2, 4], [[1, 2], [3, 2**31 + 1]],
         "chunk 1: column 'event_id': values do not fit int32"),
    ], ids=["steps_back_in_chunk", "offsets_start_past_0", "float_trials",
            "offsets_missing", "offsets_end_past_rows",
            "rows_past_offsets_end", "ends_inside_trial", "negative_event_id",
            "float_event_ids", "event_id_past_int32"])
    def test_bad_stored_rows_rejected(self, tmp_path, offsets, chunks,
                                      complaint):
        store = stored_chunks(tmp_path, offsets, *chunks)
        with pytest.raises(EngineError,
                           match=f"stored table 'yet', {complaint}"):
            run_stored(mixed_portfolio(), store)

    def test_bad_n_trials_rejected(self, tmp_path):
        store = stored_chunks(tmp_path, [0], [])
        with pytest.raises(EngineError, match="n_trials must be in"):
            run_stored(mixed_portfolio(), store)

    def test_wrong_table_rejected(self, tiny_workload, tmp_path):
        store = ChunkStore(tmp_path)
        wrong = ColumnTable.from_arrays(
            Schema([("x", np.int64)]), x=np.arange(10)
        )
        store.write_table("notyet", wrong, rows_per_chunk=5)
        with pytest.raises(EngineError, match="trial offsets: not stored"):
            run_stored(tiny_workload.portfolio, store, name="notyet")

    def test_out_of_range_trials_rejected(self, tiny_workload, tmp_path):
        """Offsets of fewer trials than the chunks hold."""
        yet = tiny_workload.yet
        store = write_stored(tmp_path, yet, 100)
        store.delete_table("yet.trial_offsets")
        store.write_chunks("yet.trial_offsets",
                           [column("trial_offset", yet.trial_offsets[:3])])
        with pytest.raises(EngineError, match="chunk 0: .* past the last"):
            run_stored(tiny_workload.portfolio, store)

    def test_a_stored_yet_is_its_offsets_and_event_ids(self, tiny_workload,
                                                       tmp_path):
        """4 B per occurrence and 8 B per trial offset, besides one pack
        header per chunk."""
        yet = tiny_workload.yet
        store = write_stored(tmp_path, yet, 97)

        def header(name, dtype, n_rows):
            values = np.zeros(n_rows, dtype)
            return len(pack_table(column(name, values))) - values.nbytes

        rows = [chunk.n_rows for chunk in store.iter_chunks("yet")]
        assert len(rows) > 1 and sum(rows) == yet.n_occurrences
        assert store.stored_bytes("yet") == 4 * yet.n_occurrences + sum(
            header("event_id", np.int32, n) for n in rows)
        assert store.stored_bytes("yet.trial_offsets") == (
            8 * (yet.n_trials + 1)
            + header("trial_offset", np.int64, yet.n_trials + 1))
