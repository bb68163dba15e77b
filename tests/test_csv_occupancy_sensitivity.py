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
    def test_signs_are_economic(self, tiny_workload, risk_session):
        """Raising the attachment cheapens the layer; raising the limit
        (if binding) or the share enriches it."""
        layer = tiny_workload.portfolio.layers[0]
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        sens = term_sensitivities(session, layer)
        assert sens["occ_retention"] <= 0.0
        assert sens["agg_retention"] <= 0.0
        assert sens["occ_limit"] >= 0.0
        # participation scales the layer linearly: slope == EAL / share
        eal = session.aggregate(engine="vectorized").ylt_by_layer[
            layer.layer_id].mean()
        expect = eal / layer.terms.participation
        assert sens["participation"] == pytest.approx(expect, rel=1e-6)

    def test_unlimited_terms_skipped(self, tiny_workload, risk_session):
        from repro.core.layer import Layer
        from repro.core.terms import LayerTerms

        layer = Layer(5, tiny_workload.portfolio.layers[0].elts, LayerTerms())
        sens = term_sensitivities(risk_session(tiny_workload.yet), layer)
        assert sens["occ_limit"] == 0.0  # inf: no invented cap
        assert sens["agg_limit"] == 0.0

    def test_unknown_term_rejected(self, tiny_workload, risk_session):
        layer = tiny_workload.portfolio.layers[0]
        with pytest.raises(AnalysisError):
            term_sensitivities(risk_session(tiny_workload.yet), layer,
                               terms=("magic",))

    def test_bad_bump_rejected(self, tiny_workload, risk_session):
        layer = tiny_workload.portfolio.layers[0]
        with pytest.raises(AnalysisError):
            term_sensitivities(risk_session(tiny_workload.yet), layer,
                               bump_fraction=0.0)

    def test_custom_statistic(self, tiny_workload, risk_session):
        from repro.dfa.metrics import value_at_risk

        layer = tiny_workload.portfolio.layers[0]
        sens = term_sensitivities(
            risk_session(tiny_workload.yet), layer,
            statistic=lambda ylt: value_at_risk(ylt, 0.9),
            terms=("occ_retention",),
        )
        assert "occ_retention" in sens

    @pytest.mark.parametrize("workload", ["tiny_workload",
                                          "small_portfolio_workload"])
    def test_one_run_prices_every_bump(self, workload, request,
                                       risk_session):
        """The base layer and every finite bump are one portfolio priced
        in one engine run, and each slope is the one separate runs of
        the base and the bumped layer give, bit for bit."""
        import dataclasses
        import math

        from repro.core.engines import VectorizedEngine
        from repro.core.layer import Layer
        from repro.core.portfolio import Portfolio

        class Counting(VectorizedEngine):
            runs = 0

            def run(self, *args, **kwargs):
                self.runs += 1
                return super().run(*args, **kwargs)

        wl = request.getfixturevalue(workload)

        def alone(layer, terms):
            one = Layer(0, layer.elts, terms, weights=layer.weights)
            res = VectorizedEngine().run(Portfolio([one]), wl.yet)
            return res.ylt_by_layer[0].mean()

        session = risk_session(wl.yet)
        for layer in wl.portfolio:
            engine = Counting()
            sens = term_sensitivities(session, layer, engine=engine)
            assert engine.runs == 1
            base = alone(layer, layer.terms)
            scale = max(layer.terms.occ_retention, 1.0)
            for name, slope in sens.items():
                current = getattr(layer.terms, name)
                if math.isinf(current):
                    assert slope == 0.0
                    continue
                bump = (-0.05 * current if name == "participation"
                        else 0.05 * (current or scale))
                bumped = dataclasses.replace(
                    layer.terms, **{name: current + bump})
                assert slope == (alone(layer, bumped) - base) / bump, name
