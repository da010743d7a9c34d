import dataclasses
import itertools
import math
from pathlib import Path

import pytest

from tiersim import Simulator, oracle_run
from tiersim.cli import config_for_policy
from tiersim.config import (CACHING, FIELDS, PARSERS, ConfigError, Policy,
                            SimConfig, config_from_mapping, load_config_file,
                            parse_size)
from tiersim.pagetable import COUNTER_MAX

from conftest import random_records, small_config


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
        # The block cache is always 4-way, so its way count is no key.
        with pytest.raises(ConfigError, match="unknown config key: cache_ways"):
            config_from_mapping({"cache_ways": "4"})

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

    def test_every_policy_view_validates(self):
        base = SimConfig(policy=Policy.STATCOMB, fast_capacity_bytes=1024 ** 2,
                         slow_capacity_bytes=1024 ** 2,
                         cache_zone_bytes=64 * 1024, bloom_window=16)
        for policy in Policy:
            cfg = config_for_policy(base, policy)
            assert cfg.validate() is cfg and cfg.policy is policy
        alldram = config_for_policy(base, Policy.ALLDRAM)
        assert alldram.fast_capacity_bytes == 2 * 1024 ** 2
        assert alldram.total_pages == alldram.fast_pages == 512
        assert alldram.slow_pages == 0

    def test_validate_returns_self(self):
        cfg = SimConfig(policy=Policy.PAGEMOVE, fast_capacity_bytes=256 * 1024,
                        slow_capacity_bytes=256 * 1024, bloom_window=8)
        assert cfg.validate() is cfg


README = Path(__file__).resolve().parent.parent / "README.md"
ENDPOINTS = {"0": 0, "1": 1, "2**32": 2 ** 32, "inf": math.inf}


def reference_row(field) -> str:
    """`field`'s row of README's config reference, from its declaration."""
    meta = field.metadata
    read_by = ("all" if set(meta["read_by"]) == set(Policy)
               else ", ".join(policy.value for policy in meta["read_by"]))
    cells = [f"`{field.name}`", f"`{meta['flag'][0]}`" if meta["flag"] else "—",
             meta["kind"], meta["bounds"] or "—", read_by,
             "yes" if meta["sweep"] else "no"]
    return f"| {' | '.join(cells)} |"


class TestDeclarations:
    def test_every_field_carries_a_declaration(self):
        assert len(FIELDS) == 26
        for field in dataclasses.fields(SimConfig):
            meta = field.metadata
            assert set(meta) == {"kind", "bounds", "read_by", "flag", "sweep"}
            assert meta["kind"] in PARSERS and set(meta["read_by"]) <= set(Policy)
            assert meta["flag"] is None or meta["flag"][0].startswith("--")
            assert FIELDS[field.name] is field

    def test_the_readme_reference_is_the_declarations(self):
        lines = README.read_text().splitlines()
        first = lines.index("| key | flag | kind | bounds | read by | sweep |") + 2
        rows = list(itertools.takewhile(lambda line: line.startswith("|"),
                                        lines[first:]))
        assert rows == [reference_row(f) for f in dataclasses.fields(SimConfig)]

    @pytest.mark.parametrize("name", [name for name, field in FIELDS.items()
                                      if field.metadata["bounds"]])
    def test_a_declared_bound_binds_every_policy(self, name):
        # Each end of the interval, and the float just past it.
        bounds = FIELDS[name].metadata["bounds"]
        lo, hi = (ENDPOINTS[end] for end in bounds[1:-1].split(", "))
        ends = ((lo, bounds[0] == "("), (hi, bounds[-1] == ")"))
        inside = [end for end, is_open in ends if not is_open]
        outside = [end for end, is_open in ends if is_open] + [
            math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
        message = f"{name} must lie in {bounds}"
        for policy in Policy:
            base = config_for_policy(SimConfig(cache_zone_bytes=64 * 1024),
                                     policy)
            for value in inside:
                cfg = dataclasses.replace(base, **{name: value})
                try:
                    cfg.validate()
                except ConfigError as exc:   # a cross-field check
                    assert str(exc) != message
            for value in outside:
                # A geometry bound may refuse it first, naming the field.
                with pytest.raises(ConfigError, match=f"^{name}[ :]") as info:
                    dataclasses.replace(base, **{name: value}).validate()
                if policy is Policy.STATIC:   # reads no field bounded so
                    assert str(info.value) == message


class TestValidation:
    @pytest.mark.parametrize("field,values", [
        ("adaptive_min_threshold", [0, 9]),
        ("adaptive_alpha", [0.0, -0.25, 1.5]),
        ("adaptive_lo_water", [-0.1, 1.1]),
        ("adaptive_hi_water", [-0.1, 1.1]),
        ("fast_read_nj", [-1.0]),
        ("fast_write_nj", [-1.0]),
        ("slow_read_nj", [-1.0]),
        ("slow_write_nj", [-1.0]),
        ("fast_background_mw_per_gb", [-1.0]),
        ("adaptive_window_pages", [-1, -3]),
    ])
    def test_out_of_range_value_names_its_field(self, field, values):
        for value in values:
            with pytest.raises(ConfigError, match=field):
                SimConfig(**{field: value}).validate()

    def test_alldram_refuses_a_slow_tier(self):
        mapping = {"policy": "alldram", "fast_capacity_bytes": "1MiB",
                   "slow_capacity_bytes": "1MiB"}
        direct = SimConfig(policy=Policy.ALLDRAM, fast_capacity_bytes=1024 ** 2,
                           slow_capacity_bytes=1024 ** 2)
        for cfg in (direct, config_from_mapping(mapping)):
            with pytest.raises(ConfigError, match="^slow_capacity_bytes: "):
                cfg.validate()
        config_from_mapping({**mapping, "slow_capacity_bytes": "0"}).validate()

    def test_watermarks_must_be_ordered(self):
        with pytest.raises(ConfigError, match="adaptive_lo_water"):
            SimConfig(adaptive_lo_water=0.8, adaptive_hi_water=0.5).validate()
        SimConfig(adaptive_lo_water=0.5, adaptive_hi_water=0.5).validate()

    @pytest.mark.parametrize("field,readers", [
        ("promotion_threshold", CACHING),
        ("adaptive_max_threshold", (Policy.ADPCOMB,))],
        ids=["promotion_threshold", "adaptive_max_threshold"])
    def test_threshold_past_the_counter_is_rejected(self, field, readers):
        # 32 blocks per page, but the 4-bit counter stops at 15. The bound
        # holds only under the policies that read the threshold.
        assert SimConfig().blocks_per_page > COUNTER_MAX == 15
        base = SimConfig(cache_zone_bytes=64 * 1024, **{field: COUNTER_MAX})
        for policy in Policy:
            cfg = config_for_policy(base, policy)
            assert cfg.validate() is cfg
            past = dataclasses.replace(cfg, **{field: COUNTER_MAX + 1})
            if policy in readers:
                with pytest.raises(ConfigError, match=f"^{field} 16 "):
                    past.validate()
            else:
                assert past.validate() is past

    def test_threshold_bounded_by_small_pages(self):
        # 512-byte pages hold 4 blocks, so a threshold past 4 could never
        # be reached, under the combined policies that compare it.
        base = SimConfig(page_size_bytes=512, cache_zone_bytes=64 * 1024,
                         promotion_threshold=4, adaptive_max_threshold=4)
        for policy in Policy:
            cfg = config_for_policy(base, policy)
            assert cfg.validate() is cfg
            past = dataclasses.replace(cfg, promotion_threshold=5)
            if policy in CACHING:
                with pytest.raises(ConfigError, match="^promotion_threshold 5 "
                                   r"must be in \[1, 4\]$"):
                    past.validate()
            else:
                assert past.validate() is past

    def test_adaptive_window_zero_still_disables_adaptation(self):
        cfg = SimConfig(policy=Policy.ADPCOMB, cache_zone_bytes=64 * 1024,
                        adaptive_window_pages=0)
        assert cfg.validate() is cfg

    @pytest.mark.parametrize("field", [
        "fast_read_ns", "fast_write_ns", "slow_read_ns", "slow_write_ns",
        "fast_read_nj", "fast_write_nj", "slow_read_nj", "slow_write_nj",
        "fast_background_mw_per_gb"])
    def test_non_finite_device_number_is_rejected(self, field):
        # An infinite latency or energy would reach the JSON report as
        # `Infinity`, which strict parsers refuse; a huge finite one would
        # overflow a report's float or multiply out to infinity.
        for value in (float("inf"), float("-inf"), float("nan"), 2 ** 32 + 1,
                      10 ** 308, 10 ** 400):
            with pytest.raises(ConfigError,
                               match=rf"^{field} must lie in \[0, 2\*\*32\]$"):
                SimConfig(**{field: value}).validate()
        SimConfig(**{field: 2 ** 32}).validate()
        if field.endswith(("_nj", "_per_gb")):
            cfg = config_from_mapping({field: "inf"})
            with pytest.raises(ConfigError, match=f"^{field} "):
                cfg.validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_dma_bandwidth_is_rejected(self, value):
        with pytest.raises(ConfigError, match="dma_bandwidth_bytes_per_ns"):
            SimConfig(dma_bandwidth_bytes_per_ns=value).validate()

    @pytest.mark.parametrize("page", [4096, 64 * 1024])
    def test_page_swap_past_2_32_ns_is_rejected(self, page):
        # A swap moves 2 * page bytes; past 2**32 ns its due time overflowed.
        smallest = 2 * page / 2 ** 32
        for value in (math.nextafter(smallest, 0), smallest / 2, 1e-306,
                      5e-324):
            with pytest.raises(ConfigError, match=r"^dma_bandwidth_bytes_per_ns"
                               r": .* swap a page within 2\*\*32 ns"):
                SimConfig(page_size_bytes=page, bloom_window=16,
                          dma_bandwidth_bytes_per_ns=value).validate()
        SimConfig(page_size_bytes=page, bloom_window=16,
                  dma_bandwidth_bytes_per_ns=smallest).validate()

    def test_smallest_bandwidth_runs_as_the_oracle_does(self):
        cfg = small_config(dma_bandwidth_bytes_per_ns=2 * 4096 / 2 ** 32,
                           exact_recency=True)
        recs = random_records(300, cfg.host_space_bytes, seed=3)
        report = Simulator(cfg).run(recs)
        assert report == oracle_run(recs, cfg)[0]
        assert report["page_relocations"] == 1

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
        ("bloom_window", "victim search can find a fast page outside",
         dict(policy=Policy.PAGEMOVE, bloom_window=64)),
        ("bloom_window", "must lie in [1, inf)",
         dict(policy=Policy.STATIC, bloom_window=0)),
        ("dma_bandwidth_bytes_per_ns", "DMA bandwidth must be positive",
         dict(dma_bandwidth_bytes_per_ns=0.0)),
        ("fast_capacity_bytes", "must not be empty",
         dict(fast_capacity_bytes=0)),
        ("fast_capacity_bytes", "must not be empty",
         dict(policy=Policy.STATIC, fast_capacity_bytes=-4096)),
        ("slow_capacity_bytes", "cannot be negative",
         dict(slow_capacity_bytes=-4096)),
        ("slow_capacity_bytes", "cannot be negative",
         dict(slow_capacity_bytes=-8 << 20)),
    ])
    def test_structural_error_names_its_field(self, field, wording,
                                              overrides):
        kwargs = dict(fast_capacity_bytes=256 * 1024,
                      slow_capacity_bytes=1024 * 1024, bloom_window=16)
        kwargs.update(overrides)
        with pytest.raises(ConfigError, match=field) as info:
            SimConfig(**kwargs).validate()
        assert wording in str(info.value)
