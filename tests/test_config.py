"""The library's hardware and DFS defaults, each on the record that
reads it."""

from repro.data.dfs import SimDfs
from repro.hpc.device import DeviceProperties


class TestReproConfig:
    def test_defaults_are_fermi_class(self):
        props = DeviceProperties()
        assert props.global_mem_bytes == 3 * 1024**3
        assert props.shared_mem_per_block_bytes == 48 * 1024
        assert props.constant_mem_bytes == 64 * 1024
        dfs = SimDfs()
        assert (dfs.block_bytes, dfs.replication) == (64 * 1024**2, 3)
