"""Tests for the library configuration bundle."""

import pytest

from repro.config import DEFAULTS, ReproConfig


class TestReproConfig:
    def test_defaults_are_fermi_class(self):
        assert DEFAULTS.device_global_mem_bytes == 3 * 1024**3
        assert DEFAULTS.device_shared_mem_bytes == 48 * 1024
        assert DEFAULTS.device_constant_mem_bytes == 64 * 1024

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULTS.default_seed = 1  # type: ignore[misc]

    def test_with_copies(self):
        custom = DEFAULTS.with_(dfs_replication=2)
        assert custom.dfs_replication == 2
        assert DEFAULTS.dfs_replication == 3  # original untouched
        assert isinstance(custom, ReproConfig)

    def test_device_properties_from_config(self):
        from repro.hpc.device import DeviceProperties

        custom = DEFAULTS.with_(device_global_mem_bytes=1024)
        props = DeviceProperties.from_config(custom)
        assert props.global_mem_bytes == 1024
        assert props.shared_mem_per_block_bytes == 48 * 1024
