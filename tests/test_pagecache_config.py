"""Unit tests for the page cache configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.pagecache.config import PageCacheConfig
from repro.pagecache.lru import ACTIVE_TO_INACTIVE_RATIO


class TestValidation:
    def test_defaults_match_stock_linux(self):
        config = PageCacheConfig()
        assert config.dirty_ratio == pytest.approx(0.20)
        assert config.dirty_expire == pytest.approx(30.0)
        assert config.writeback_interval == pytest.approx(5.0)
        # The kernel keeps the active list at most twice the inactive list.
        assert ACTIVE_TO_INACTIVE_RATIO == 2.0

    @pytest.mark.parametrize("field,value", [
        ("dirty_ratio", 0.0),
        ("dirty_ratio", 1.5),
        ("dirty_expire", -1.0),
        ("writeback_interval", 0.0),
        ("chunk_size", 0.0),
        ("dirty_threshold_base", "bogus"),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            PageCacheConfig(**{field: value})

    def test_with_updates_returns_validated_copy(self):
        config = PageCacheConfig()
        updated = config.with_updates(dirty_ratio=0.4)
        assert updated.dirty_ratio == pytest.approx(0.4)
        assert config.dirty_ratio == pytest.approx(0.2)
        with pytest.raises(ConfigurationError):
            config.with_updates(dirty_ratio=2.0)

    def test_coalesce_extents_is_no_longer_a_field(self):
        # The extent cache coalesces losslessly and always; the retired
        # knob is an unknown keyword like any other.
        with pytest.raises(TypeError, match="coalesce_extents"):
            PageCacheConfig(coalesce_extents=True)
        with pytest.raises(TypeError, match="coalesce_extents"):
            PageCacheConfig().with_updates(coalesce_extents=True)
        assert "coalesce_extents" not in PageCacheConfig.__dataclass_fields__

    def test_coalesce_extents_unset_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PageCacheConfig()

    def test_eviction_policy_default_and_validation(self):
        assert PageCacheConfig().eviction_policy == "lru"
        assert PageCacheConfig(eviction_policy="arc").eviction_policy == "arc"
        with pytest.raises(ConfigurationError, match="unknown eviction policy"):
            PageCacheConfig(eviction_policy="mru")
        with pytest.raises(ConfigurationError):
            PageCacheConfig().with_updates(eviction_policy=3.5)

    def test_eviction_policy_accepts_instance_and_class(self):
        from repro.pagecache.policy import ARCPolicy

        assert isinstance(
            PageCacheConfig(eviction_policy=ARCPolicy()).eviction_policy,
            ARCPolicy,
        )
        assert (
            PageCacheConfig(eviction_policy=ARCPolicy).eviction_policy
            is ARCPolicy
        )


class TestPresets:
    def test_reference_preset_enables_kernel_idiosyncrasies(self):
        config = PageCacheConfig.reference()
        assert config.protect_written_files is True
        assert config.evict_from_active is True
        assert config.dirty_threshold_base == "available"
