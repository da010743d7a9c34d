import pytest

from tiersim.config import (ConfigError, Policy, SimConfig,
                            config_from_mapping, load_config_file, parse_size)
from tiersim.pagetable import COUNTER_MAX


def format_size(n: int) -> str:
    """The largest binary suffix that divides `n`, the inverse of
    `parse_size` on whole units."""
    for suffix, mult in (("GiB", 1024 ** 3), ("MiB", 1024 ** 2), ("KiB", 1024)):
        if n % mult == 0 and n >= mult:
            return f"{n // mult}{suffix}"
    return str(n)


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("128MiB", 128 * 1024 ** 2),
        ("4KiB", 4096),
        ("1GiB", 1024 ** 3),
        ("2g", 2 * 1024 ** 3),
        ("512", 512),
        ("0x1000", 4096),
        ("1.5MiB", 1536 * 1024),
        (4096, 4096),
        ("64 KiB", 64 * 1024),
        ("2GB", 2 * 1024 ** 3),
        ("0xab", 0xAB),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_size(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_size("lots")

    @pytest.mark.parametrize("text", ["127.9b", "1.0001KiB", "4096.5"])
    def test_rejects_a_fractional_byte_count(self, text):
        with pytest.raises(ConfigError, match="whole number of bytes"):
            parse_size(text)

    def test_format_roundtrip(self):
        assert format_size(128 * 1024 ** 2) == "128MiB"
        assert format_size(4096) == "4KiB"
        assert format_size(100) == "100"
        for n in (128 * 1024 ** 2, 4096, 100, 3 * 1024 ** 3):
            assert parse_size(format_size(n)) == n


class TestMapping:
    def test_size_fields_take_suffixes(self):
        cfg = config_from_mapping({"fast_capacity_bytes": "1MiB",
                                   "slow_capacity_bytes": "4MiB",
                                   "bloom_window": "32",
                                   "policy": "pagemove"})
        assert cfg.fast_capacity_bytes == 1024 ** 2
        assert cfg.policy is Policy.PAGEMOVE

    def test_dashes_normalize(self):
        cfg = config_from_mapping({"promotion-threshold": "6"})
        assert cfg.promotion_threshold == 6

    def test_float_fields(self):
        cfg = config_from_mapping({"dma_bandwidth_bytes_per_ns": "2.5",
                                   "adaptive_alpha": "0.5"})
        assert cfg.dma_bandwidth_bytes_per_ns == 2.5
        assert cfg.adaptive_alpha == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_mapping({"dram_size": "1MiB"})

    def test_exact_recency_values(self):
        for word in ("true", "True", "YES", " on ", "1", True):
            assert config_from_mapping({"exact_recency": word}).exact_recency
        for word in ("false", "FALSE", "No", "off", "0", False):
            assert not config_from_mapping({"exact_recency": word}).exact_recency

    @pytest.mark.parametrize("word", ["ture", "", "2", "enabled"])
    def test_exact_recency_rejects_other_words(self, word):
        with pytest.raises(ConfigError, match="exact_recency"):
            config_from_mapping({"exact_recency": word})

    @pytest.mark.parametrize("key,value", [
        ("bloom_window", "16.9"), ("promotion_threshold", "2.5"),
        ("rng_seed", "-0.5"), ("adaptive_window_pages", "abc"),
        ("bloom_window", "nan"),
    ])
    def test_int_fields_reject_fractions_and_words(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}: expected an integer"):
            config_from_mapping({key: value})

    def test_int_fields_take_whole_numbers(self):
        cfg = config_from_mapping({"bloom_window": "16.0", "rng_seed": "0x10",
                                   "promotion_threshold": " 3 "})
        assert (cfg.bloom_window, cfg.rng_seed, cfg.promotion_threshold) == (16, 16, 3)


class TestConfigFile:
    def test_parses_comments_and_blanks(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("# memory sizes\n\nfast_capacity_bytes = 1MiB\n"
                        "policy = statcomb   # combined\n")
        mapping = load_config_file(path)
        assert mapping == {"fast_capacity_bytes": "1MiB", "policy": "statcomb"}

    def test_fractional_size_names_its_field(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("page_size_bytes = 4096.5\n")
        with pytest.raises(ConfigError, match="page_size_bytes"):
            config_from_mapping(load_config_file(path))

    def test_missing_equals_is_an_error(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("fast_capacity_bytes 1MiB\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config_file(path)


class TestGeometry:
    def test_cache_zone_shrinks_host_space(self):
        base = dict(fast_capacity_bytes=256 * 1024,
                    slow_capacity_bytes=1024 * 1024, bloom_window=16)
        plain = SimConfig(policy=Policy.PAGEMOVE, **base)
        cached = SimConfig(policy=Policy.STATCOMB, cache_zone_bytes=64 * 1024,
                           **base)
        assert plain.fast_pages == 64
        assert cached.fast_pages == 48
        assert plain.host_space_bytes - cached.host_space_bytes == 64 * 1024
        assert cached.cache_sets == 128

    def test_alldram_geometry_spans_everything(self):
        cfg = SimConfig(policy=Policy.ALLDRAM, fast_capacity_bytes=1024 ** 2,
                        slow_capacity_bytes=1024 ** 2)
        assert cfg.total_pages == 512
        assert cfg.fast_pages == 512
        assert cfg.slow_pages == 0

    def test_validate_returns_self(self):
        cfg = SimConfig(policy=Policy.PAGEMOVE, fast_capacity_bytes=256 * 1024,
                        slow_capacity_bytes=256 * 1024, bloom_window=8)
        assert cfg.validate() is cfg


class TestValidation:
    @pytest.mark.parametrize("field,values", [
        ("cache_ways", [2, 8]),
        ("adaptive_alpha", [0.0, -0.25, 1.5]),
        ("adaptive_lo_water", [-0.1, 1.1]),
        ("adaptive_hi_water", [-0.1, 1.1]),
        ("fast_read_nj", [-1.0]),
        ("fast_write_nj", [-1.0]),
        ("slow_read_nj", [-1.0]),
        ("slow_write_nj", [-1.0]),
        ("fast_background_mw_per_gb", [-1.0]),
    ])
    def test_out_of_range_value_names_its_field(self, field, values):
        for value in values:
            with pytest.raises(ConfigError, match=field):
                SimConfig(**{field: value}).validate()

    def test_watermarks_must_be_ordered(self):
        with pytest.raises(ConfigError, match="adaptive_lo_water"):
            SimConfig(adaptive_lo_water=0.8, adaptive_hi_water=0.5).validate()
        SimConfig(adaptive_lo_water=0.5, adaptive_hi_water=0.5).validate()

    @pytest.mark.parametrize("field", ["promotion_threshold",
                                       "adaptive_max_threshold"])
    def test_threshold_past_the_counter_is_rejected(self, field):
        # 32 blocks per page, but the 4-bit counter stops at 15.
        assert SimConfig().blocks_per_page > COUNTER_MAX == 15
        SimConfig(**{field: COUNTER_MAX}).validate()
        with pytest.raises(ConfigError, match=field):
            SimConfig(**{field: 16}).validate()

    def test_threshold_bounded_by_small_pages(self):
        cfg = SimConfig(page_size_bytes=512, promotion_threshold=4,
                        adaptive_max_threshold=4)
        assert cfg.validate() is cfg
        with pytest.raises(ConfigError, match="promotion_threshold"):
            SimConfig(page_size_bytes=512, promotion_threshold=5,
                      adaptive_max_threshold=4).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_dma_bandwidth_is_rejected(self, value):
        with pytest.raises(ConfigError, match="dma_bandwidth_bytes_per_ns"):
            SimConfig(dma_bandwidth_bytes_per_ns=value).validate()

    @pytest.mark.parametrize("field,wording,overrides", [
        ("page_size_bytes", "is not a power of two",
         dict(page_size_bytes=3000)),
        ("block_size_bytes", "multiple of the block size",
         dict(block_size_bytes=3000)),
        ("fast_capacity_bytes", "whole pages",
         dict(fast_capacity_bytes=256 * 1024 + 1)),
        ("slow_capacity_bytes", "whole pages",
         dict(slow_capacity_bytes=1024 * 1024 + 1)),
        ("cache_zone_bytes", "leave room",
         dict(policy=Policy.STATCOMB, cache_zone_bytes=256 * 1024)),
        ("cache_zone_bytes", "requires a non-empty cache zone",
         dict(policy=Policy.STATCOMB)),
        ("cache_zone_bytes", "multiple of block_size",
         dict(policy=Policy.STATCOMB, cache_zone_bytes=1000)),
        ("cache_zone_bytes", "set count 3",
         dict(policy=Policy.STATCOMB, cache_zone_bytes=3 * 512)),
        ("cache_zone_bytes", "does not use a cache zone",
         dict(policy=Policy.PAGEMOVE, cache_zone_bytes=64 * 1024)),
        ("fast_capacity_bytes", "no page-managed fast pages",
         dict(policy=Policy.STATCOMB, fast_capacity_bytes=4096,
              cache_zone_bytes=2048)),
        ("bloom_window", "victim search cannot terminate",
         dict(policy=Policy.PAGEMOVE, bloom_window=64)),
        ("bloom_window", "must be positive",
         dict(policy=Policy.STATIC, bloom_window=0)),
        ("dma_bandwidth_bytes_per_ns", "DMA bandwidth must be positive",
         dict(dma_bandwidth_bytes_per_ns=0.0)),
    ])
    def test_structural_error_names_its_field(self, field, wording,
                                              overrides):
        kwargs = dict(fast_capacity_bytes=256 * 1024,
                      slow_capacity_bytes=1024 * 1024, bloom_window=16)
        kwargs.update(overrides)
        with pytest.raises(ConfigError, match=field) as info:
            SimConfig(**kwargs).validate()
        assert wording in str(info.value)
