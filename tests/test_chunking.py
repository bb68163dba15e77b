"""Tests for the device chunk planner."""

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.hpc.chunking import ChunkPlanner
from repro.hpc.device import DeviceProperties

PROPS = DeviceProperties(
    global_mem_bytes=1024 * 1024,      # 1 MiB toy device
    shared_mem_per_block_bytes=1024,   # 1 KiB shared
    constant_mem_bytes=4096,           # 4 KiB constant
)


class TestPlan:
    def planner(self, frac=1.0):
        return ChunkPlanner(PROPS, global_budget_fraction=frac)

    def test_single_chunk_when_it_fits(self):
        plan = self.planner().plan(n_rows=1000, row_bytes=16)
        assert plan.n_chunks == 1
        assert plan.rows_per_chunk == 1000

    def test_chunking_kicks_in_when_too_big(self):
        # 1M rows x 16B = 16 MiB > 1 MiB device
        plan = self.planner().plan(n_rows=1_000_000, row_bytes=16)
        assert plan.n_chunks > 1
        assert plan.rows_per_chunk * 16 <= PROPS.global_mem_bytes

    def test_plan_covers_all_rows(self):
        plan = self.planner().plan(n_rows=999_999, row_bytes=16)
        assert plan.rows_per_chunk * plan.n_chunks >= 999_999
        assert plan.rows_per_chunk * (plan.n_chunks - 1) < 999_999

    def test_lookup_spills_to_global_when_big(self):
        # A lookup the caller placed in global memory is resident state.
        plan = self.planner().plan(n_rows=100, row_bytes=16,
                                   resident_bytes=10_000)
        assert plan.resident_bytes == 100 * 16 + 10_000

    def test_global_lookup_reduces_row_budget(self):
        with_lookup = self.planner().plan(
            n_rows=10**9, row_bytes=16, resident_bytes=500_000
        )
        without = self.planner().plan(n_rows=10**9, row_bytes=16)
        assert with_lookup.rows_per_chunk == (
            without.rows_per_chunk - 500_000 // 16)

    def test_budget_fraction_respected(self):
        full = ChunkPlanner(PROPS, 1.0).plan(10**9, 16)
        half = ChunkPlanner(PROPS, 0.5).plan(10**9, 16)
        assert half.rows_per_chunk == full.rows_per_chunk // 2

    def test_rows_per_block_bounded_by_shared(self):
        plan = self.planner().plan(n_rows=10_000, row_bytes=16,
                                   shared_bytes_per_row=8)
        assert plan.rows_per_block <= PROPS.shared_mem_per_block_bytes // 8

    def test_max_rows_per_chunk_override(self):
        plan = self.planner().plan(n_rows=10_000, row_bytes=16,
                                   max_rows_per_chunk=100)
        assert plan.rows_per_chunk == 100
        assert plan.n_chunks == 100

    def test_oversized_lookup_rejected(self):
        with pytest.raises(CapacityError):
            self.planner().plan(n_rows=10, row_bytes=16,
                                resident_bytes=2 * 1024 * 1024)

    def test_zero_rows_plan(self):
        plan = self.planner().plan(n_rows=0, row_bytes=16)
        assert plan.n_chunks == 0

    @pytest.mark.parametrize("kwargs", [
        dict(n_rows=-1, row_bytes=16),
        dict(n_rows=10, row_bytes=0),
        dict(n_rows=10, row_bytes=16, resident_bytes=-1),
        dict(n_rows=10, row_bytes=16, shared_bytes_per_row=0),
        dict(n_rows=10, row_bytes=16, max_rows_per_chunk=0),
    ])
    def test_bad_args_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            self.planner().plan(**kwargs)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            ChunkPlanner(PROPS, 0.0)
