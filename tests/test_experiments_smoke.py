"""Smoke tests for the experiment runners (tiny scales).

The E1-E11 runners are the source of EXPERIMENTS.md; these tests keep
them importable, runnable, and shape-stable without bench-scale cost.
"""

import pytest

from repro.bench import experiments


class TestRunners:
    def test_e01_table_sizes(self):
        report = experiments.run_e01_table_sizes(n_trials=100)
        text = report.render()
        assert "5.00e+16" in text
        assert any("1000" in str(cell) for row in report.rows for cell in row)

    def test_e03_speedup_shape(self):
        report = experiments.run_e03_speedup(trials_list=(50,), repeats=1)
        assert len(report.rows) == 1
        # the speedup columns end with 'x'
        assert report.rows[0][-1].endswith("x")

    def test_e05_chunking(self):
        report = experiments.run_e05_chunking(
            n_trials=500, chunk_sizes=(50_000, None)
        )
        placements = {row[2] for row in report.rows}
        assert "constant" in placements and "global" in placements

    def test_e06_scan_vs_random(self):
        report = experiments.run_e06_scan_vs_random(
            n_occurrences=2_000, elt_rows=1_000
        )
        assert "faster" in report.notes[0]

    def test_e07_mapreduce(self):
        report = experiments.run_e07_mapreduce(n_trials=300, n_splits=4,
                                               workers=(1, 2))
        assert len(report.rows) == 2
        assert any("verified" in n for n in report.notes)

    def test_e08_stage1(self):
        report = experiments.run_e08_stage1_pipeline(
            n_events=60, n_sites=300, n_contracts=4
        )
        assert any("procs" in str(row[0]) for row in report.rows)

    def test_e09_burst(self):
        report = experiments.run_e09_burst_elasticity(measure_trials=500)
        assert any("burst factor" in n for n in report.notes)
        assert len(report.rows) == 4

    def test_e10_dfa(self):
        report = experiments.run_e10_dfa_metrics(n_trials=1_000)
        assert any("warehouse" in n for n in report.notes)
        # 4 combination columns per metric row
        assert all(len(row) == 5 for row in report.rows)

    def test_e11_ablations(self):
        report = experiments.run_e11_ablations(n_trials=300)
        sweeps = {row[0] for row in report.rows}
        assert sweeps == {"events/trial", "ELTs/layer"}

    @pytest.mark.slow
    def test_e04_million_trials_scaled(self):
        report = experiments.run_e04_million_trials(
            full_trials=20_000, events_per_trial=50.0,
            block_trials=10_000, throughput_trials=2_000,
        )
        assert len(report.rows) == 3

