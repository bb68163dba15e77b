"""Tier-1 smoke of the end-to-end benchmark: a tiny shape, no wall-clock
asserts.  It checks what the benchmark promises about itself — seeded
inputs, the metric names of ``BENCHMARK.json`` and nothing else, the path
proofs, and that a wrong answer fails the command."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from e2e_inputs import build_inputs
from e2e_layers import traced_pass, traced_round
from e2e_ref import load_reference
from e2e_round import WORKLOADS, run_round
from run import rescale

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def names(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    every = [*SPEC["workloads"], *SPEC["end_to_end"], *SPEC["per_layer"]]
    assert len({m["name"] for m in every}) == len(every)
    assert all(NAME.match(m["name"]) for m in every)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in (*SPEC["end_to_end"], *SPEC["per_layer"]):
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert build_inputs(7, "tiny").digest() == build_inputs(7, "tiny").digest()
    assert build_inputs(7, "tiny").digest() != build_inputs(8, "tiny").digest()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_round_answers_are_right_and_took_the_intended_path(workload):
    record = run_round(workload, seed=7, segment_s=0.1, setup_cycles=2,
                       shape="tiny")
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert all(record["checks"].values()), record["checks"]
    assert all(record["proofs"].values()), record["proofs"]
    assert "sequential_oracle" in record["checks"]
    assert set(rescale(record, load_reference())) == names("end_to_end")


def check_traced(workload: str, record: dict) -> None:
    assert all(record["checks"].values()), record["checks"]
    # Pool, shared memory and dispatch do work on the pooled workload only.
    assert (record["per_layer"]["trace.share.dispatch"] > 0) == (
        workload == "agg_lanes_pooled")


@pytest.mark.parametrize("workload", sorted(set(WORKLOADS)
                                            - {"agg_lanes_inline"}))
def test_traced_pass_reproduces_the_answers_it_explains(workload):
    record = traced_pass(workload, build_inputs(7, "tiny"), seconds=0.15)
    check_traced(workload, record)
    if workload == "quotes_burst_churn":
        assert record["per_layer"]["cache.hit_ratio"] == 0.5
        assert record["per_layer"]["cache.evictions_per_burst"] == 32


def test_traced_round_has_every_per_layer_metric_and_nothing_unlisted():
    record = traced_round("agg_lanes_inline", seed=7, seconds=0.15,
                          shape="tiny")
    check_traced("agg_lanes_inline", record)
    assert set(record["per_layer"]) == names("per_layer")
    assert record["per_layer"]["kernel.tail_group_rows"] == 32


def test_command_prints_listed_metrics_and_fails_on_a_wrong_answer(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "quotes_burst_churn", "--seed", "7", "--seconds", "0.1",
         "--setup-cycles", "2", "--shape", "tiny", "--trace", "0",
         "--out", str(tmp_path), "--inject-wrong-answer"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.strip().splitlines()
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    printed = {}
    for line in lines:
        match = re.match(r"^quotes_burst_churn/(\S+) (\S+) (\S+)$", line)
        if match:
            float(match.group(2))
            printed[match.group(1)] = match.group(3)
    assert printed == units
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and result["failed"] >= 1
    assert set(result["metrics"]) == set(units)
    assert (tmp_path / "result-quotes_burst_churn.json").exists()
