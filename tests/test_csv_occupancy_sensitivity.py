"""Tests for CSV interchange and term sensitivities."""

import numpy as np
import pytest

from repro.analytics.sensitivity import term_sensitivities
from repro.core.tables import ELT_SCHEMA, YLT_SCHEMA
from repro.data.columnar import ColumnTable
from repro.data.csv_io import (
    read_csv,
    table_from_csv_text,
    table_to_csv_text,
    write_csv,
)
from repro.data.schema import Schema
from repro.errors import AnalysisError, SchemaError, StorageError


class TestCsvIo:
    def make_elt_table(self):
        return ColumnTable.from_arrays(
            ELT_SCHEMA,
            event_id=[3, 1, 7],
            mean_loss=[100.5, 200.25, 0.125],
            sigma=[10.0, 0.0, 5.5],
        )

    def test_text_roundtrip_exact(self):
        t = self.make_elt_table()
        back = table_from_csv_text(table_to_csv_text(t), ELT_SCHEMA)
        assert back.equals(t)  # exact, including float repr round-trip

    def test_file_roundtrip(self, tmp_path):
        t = self.make_elt_table()
        write_csv(t, tmp_path / "elt.csv")
        assert read_csv(tmp_path / "elt.csv", ELT_SCHEMA).equals(t)

    def test_header_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            table_from_csv_text("a,b\n1,2\n", ELT_SCHEMA)

    def test_ragged_row_rejected(self):
        text = "event_id,mean_loss,sigma\n1,2.0\n"
        with pytest.raises(StorageError, match="line 2"):
            table_from_csv_text(text, ELT_SCHEMA)

    def test_unparseable_value_rejected(self):
        text = "event_id,mean_loss,sigma\n1,abc,0.0\n"
        with pytest.raises(StorageError, match="mean_loss"):
            table_from_csv_text(text, ELT_SCHEMA)

    def test_empty_input_rejected(self):
        with pytest.raises(StorageError):
            table_from_csv_text("", ELT_SCHEMA)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            read_csv(tmp_path / "nope.csv", ELT_SCHEMA)

    def test_empty_table_roundtrip(self):
        t = ColumnTable(YLT_SCHEMA)
        back = table_from_csv_text(table_to_csv_text(t), YLT_SCHEMA)
        assert back.n_rows == 0

    def test_large_values_roundtrip(self):
        t = ColumnTable.from_arrays(
            YLT_SCHEMA, trial=[2**62], loss=[1.7976931348623157e308]
        )
        back = table_from_csv_text(table_to_csv_text(t), YLT_SCHEMA)
        assert back.equals(t)


class TestSensitivities:
    def test_signs_are_economic(self, tiny_workload):
        """Raising the attachment cheapens the layer; raising the limit
        (if binding) or the share enriches it."""
        layer = tiny_workload.portfolio.layers[0]
        sens = term_sensitivities(layer, tiny_workload.yet)
        assert sens["occ_retention"] <= 0.0
        assert sens["agg_retention"] <= 0.0
        assert sens["occ_limit"] >= 0.0
        # participation scales the layer linearly: slope == EAL / share
        from repro.core.simulation import AggregateAnalysis

        eal = AggregateAnalysis(
            tiny_workload.portfolio, tiny_workload.yet
        ).run("vectorized").ylt_by_layer[layer.layer_id].mean()
        expect = eal / layer.terms.participation
        assert sens["participation"] == pytest.approx(expect, rel=1e-6)

    def test_unlimited_terms_skipped(self, tiny_workload):
        from repro.core.layer import Layer
        from repro.core.terms import LayerTerms

        layer = Layer(5, tiny_workload.portfolio.layers[0].elts, LayerTerms())
        sens = term_sensitivities(layer, tiny_workload.yet)
        assert sens["occ_limit"] == 0.0  # inf: no invented cap
        assert sens["agg_limit"] == 0.0

    def test_unknown_term_rejected(self, tiny_workload):
        layer = tiny_workload.portfolio.layers[0]
        with pytest.raises(AnalysisError):
            term_sensitivities(layer, tiny_workload.yet, terms=("magic",))

    def test_bad_bump_rejected(self, tiny_workload):
        layer = tiny_workload.portfolio.layers[0]
        with pytest.raises(AnalysisError):
            term_sensitivities(layer, tiny_workload.yet, bump_fraction=0.0)

    def test_custom_statistic(self, tiny_workload):
        from repro.dfa.metrics import value_at_risk

        layer = tiny_workload.portfolio.layers[0]
        sens = term_sensitivities(
            layer, tiny_workload.yet,
            statistic=lambda ylt: value_at_risk(ylt, 0.9),
            terms=("occ_retention",),
        )
        assert "occ_retention" in sens
