"""Smoke tests for the experiment definitions (tiny scales).

Each ``run_eNN`` in ``bench_eNN_*.py`` is the one definition of a paper
claim; these tests keep every definition importable, runnable, and
shape-stable (its own checks included) without bench-scale cost.
"""

import bench_e01_table_sizes as e01
import bench_e03_speedup as e03
import bench_e04_million_trials as e04
import bench_e05_chunking as e05
import bench_e06_scan_vs_random as e06
import bench_e07_mapreduce as e07
import bench_e08_stage1_pipeline as e08
import bench_e09_burst_elasticity as e09
import bench_e10_dfa_metrics as e10
import bench_e11_ablations as e11
import bench_e12_extensions as e12


class TestRunners:
    def test_e01_table_sizes(self):
        report = e01.run_e01_table_sizes(n_trials=100)
        text = report.render()
        assert "5.00e+16" in text
        assert any("1000" in str(cell) for row in report.rows for cell in row)

    def test_e03_speedup_shape(self):
        report = e03.run_e03_speedup(trials_list=(50,), repeats=1)
        assert len(report.rows) == 1
        # the speedup columns end with 'x'
        assert report.rows[0][-1].endswith("x")

    def test_e05_chunking(self):
        report = e05.run_e05_chunking(n_trials=500, chunk_sizes=(50_000, None))
        placements = {row[2] for row in report.rows}
        assert "constant" in placements and "global" in placements

    def test_e06_scan_vs_random(self):
        report = e06.run_e06_scan_vs_random(n_occurrences=2_000, elt_rows=1_000)
        assert "faster" in report.notes[0]

    def test_e07_mapreduce(self):
        report = e07.run_e07_mapreduce(n_trials=300, n_splits=4, workers=(1, 2))
        assert len(report.rows) == 2
        assert any("verified" in n for n in report.notes)

    def test_e08_stage1(self):
        report = e08.run_e08_stage1_pipeline(n_events=60, n_sites=300,
                                             n_contracts=4)
        assert any("procs" in str(row[0]) for row in report.rows)

    def test_e09_burst(self):
        report = e09.run_e09_burst_elasticity(measure_trials=500)
        assert any("burst factor" in n for n in report.notes)
        assert len(report.rows) == 4

    def test_e10_dfa(self):
        report = e10.run_e10_dfa_metrics(n_trials=1_000)
        assert any("warehouse" in n for n in report.notes)
        # 4 combination columns per metric row
        assert all(len(row) == 5 for row in report.rows)

    def test_e11_ablations(self):
        report = e11.run_e11_ablations(n_trials=300)
        sweeps = {row[0] for row in report.rows}
        assert sweeps == {"events/trial", "ELTs/layer"}

    def test_e04_million_trials_scaled(self):
        report = e04.run_e04_million_trials(
            full_trials=20_000, events_per_trial=50.0,
            block_trials=10_000, throughput_trials=2_000,
        )
        assert len(report.rows) == 3

    def test_e12_extensions(self):
        report = e12.run_e12_extensions(n_trials=200, rows_per_chunk=50_000,
                                        pack_rows=100_000)
        assert [row[0] for row in report.rows] == [
            "analysis mode", "analysis mode", "reinstatements", "YET source",
            "YET chunk", "YET chunk"]
        assert len(report.headers) == 4
