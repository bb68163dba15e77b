"""Edge-case and failure-injection tests across the stack.

Degenerate inputs (empty YETs, uncovered catalogues), corrupted storage,
and hostile configurations — the inputs a production system meets on a
bad day.
"""

import numpy as np
import pytest
from conftest import make_yet

from repro.analytics.comparison import assert_engines_equivalent
from repro.core import EltTable, Layer, LayerTerms, Portfolio
from repro.core.tables import YET_SCHEMA, YetTable
from repro.data.columnar import ColumnTable
from repro.data.dfs import SimDfs
from repro.data.serialization import pack_table
from repro.errors import StorageError
from repro.session import RiskSession

ALL_ENGINES = ["sequential", "vectorized", "device", "multicore",
               "mapreduce"]


def empty_yet(n_trials=10):
    return YetTable(ColumnTable(YET_SCHEMA), n_trials=n_trials)


def run_all(pf, yet, names=ALL_ENGINES):
    with RiskSession(yet, pf) as session:
        return session.run_all(names)


def aggregate(pf, yet, engine, **kwargs):
    with RiskSession(yet, pf) as session:
        return session.aggregate(engine=engine, **kwargs)


def one_layer_portfolio(terms=None):
    elt = EltTable.from_arrays([1, 2, 3], [100.0, 200.0, 300.0])
    return Portfolio([Layer(0, [elt], terms or LayerTerms())])


class TestEmptyYet:
    def test_all_engines_produce_zero_ylt(self):
        pf = one_layer_portfolio()
        yet = empty_yet()
        results = run_all(pf, yet)
        assert_engines_equivalent(results)
        res = results["vectorized"]
        assert (res.portfolio_ylt.losses == 0).all()
        assert res.portfolio_ylt.n_trials == 10

    def test_emit_yelt_on_empty_yet(self):
        res = aggregate(one_layer_portfolio(), empty_yet(), "vectorized",
                        emit_yelt=True)
        assert res.yelt_rows() == 0


class TestUncoveredCatalogue:
    def test_events_outside_every_elt(self):
        """A YET referencing only uncovered events yields a zero YLT."""
        pf = one_layer_portfolio()
        yet = make_yet([0, 1, 2], [500, 600, 700], n_trials=4)
        results = run_all(pf, yet)
        assert_engines_equivalent(results)
        assert (results["sequential"].portfolio_ylt.losses == 0).all()


class TestExtremeTermsInteraction:
    def test_occ_limit_below_retention_band(self):
        """occ_limit smaller than typical retained losses: every attaching
        occurrence pays exactly the limit."""
        terms = LayerTerms(occ_retention=50.0, occ_limit=10.0)
        pf = one_layer_portfolio(terms)
        yet = make_yet([0, 0], [2, 3], n_trials=1)
        res = aggregate(pf, yet, "sequential")
        assert res.portfolio_ylt.losses[0] == pytest.approx(20.0)

    def test_huge_event_ids(self):
        """Sparse lookups must handle ids near the top of the YET's int32
        id range without allocating."""
        elt = EltTable.from_arrays([2**30, 2**31 - 1], [10.0, 20.0])
        pf = Portfolio([Layer(0, [elt], LayerTerms())])
        yet = make_yet([0, 0], [2**30, 2**31 - 1], n_trials=1)
        results = run_all(pf, yet, ["sequential", "vectorized", "device"])
        assert_engines_equivalent(results)
        res = results["vectorized"]
        assert res.portfolio_ylt.losses[0] == pytest.approx(30.0)

    def test_single_trial_single_event(self):
        pf = one_layer_portfolio()
        yet = make_yet([0], [1], n_trials=1)
        assert_engines_equivalent(run_all(pf, yet))


class TestDfsCorruption:
    def test_corrupted_block_detected_on_decode(self):
        """Bit-rot inside a stored block must fail loudly, not return
        garbage losses."""
        dfs = SimDfs(n_datanodes=2, replication=1)
        table = ColumnTable.from_arrays(
            YET_SCHEMA, trial=[0, 1], seq=[0, 0], event_id=[1, 2]
        )
        dfs.write_table("yet", table, rows_per_block=2)
        # reach into the datanode and flip bytes in the header region
        block_id = dfs.file_blocks("yet")[0].block_id
        for node in dfs._nodes.values():
            if block_id in node.blocks:
                raw = bytearray(node.blocks[block_id])
                raw[5] ^= 0xFF
                node.blocks[block_id] = bytes(raw)
        with pytest.raises(StorageError):
            dfs.read_table("yet")

    def test_truncated_block_detected(self):
        dfs = SimDfs(n_datanodes=2, replication=1)
        table = ColumnTable.from_arrays(
            YET_SCHEMA, trial=[0], seq=[0], event_id=[1]
        )
        payload = pack_table(table)
        dfs.write("raw", payload[:-3])  # store a truncated packed table
        from repro.data.serialization import unpack_table

        with pytest.raises(StorageError):
            unpack_table(dfs.read("raw"))


class TestDeterminismAcrossEngines:
    def test_repeated_runs_identical(self, tiny_workload):
        """Engines are pure: repeated runs give bit-identical YLTs."""
        with RiskSession(tiny_workload.yet,
                         tiny_workload.portfolio) as session:
            for name in ("vectorized", "device", "mapreduce"):
                a = session.aggregate(engine=name).portfolio_ylt.losses
                b = session.aggregate(engine=name).portfolio_ylt.losses
                np.testing.assert_array_equal(a, b)
