"""Simulator configuration: geometry, device timing/energy, policy knobs."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .pagetable import COUNTER_MAX


class Policy(enum.Enum):
    STATIC = "static"
    PAGEMOVE = "pagemove"
    STATCOMB = "statcomb"
    ADPCOMB = "adpcomb"
    ALLDRAM = "alldram"


# Policies that move data between tiers (and therefore run the victim search).
MIGRATING = (Policy.PAGEMOVE, Policy.STATCOMB, Policy.ADPCOMB)
# Policies that manage a sub-page block cache in fast memory.
CACHING = (Policy.STATCOMB, Policy.ADPCOMB)

# Decimal-looking suffixes are treated as binary too; device sheets mix
# them freely and the worked numbers only come out exact in binary units.
_SUFFIXES = {
    "kib": 1024, "kb": 1024, "k": 1024,
    "mib": 1024 ** 2, "mb": 1024 ** 2, "m": 1024 ** 2,
    "gib": 1024 ** 3, "gb": 1024 ** 3, "g": 1024 ** 3,
    "b": 1,
}


def parse_size(text) -> int:
    """Parse a byte size like '128MiB', '1.5KiB', '512' into an int. A size
    that is not a whole number of bytes ('127.9b', '1.0001KiB') is a
    ConfigError, not a truncated int."""
    if isinstance(text, int):
        return text
    s = str(text).strip().lower().replace("_", "")
    try:
        return int(s, 0)
    except ValueError:
        pass
    mult = 1
    for suffix in sorted(_SUFFIXES, key=len, reverse=True):
        if s.endswith(suffix):
            s, mult = s[: -len(suffix)].strip(), _SUFFIXES[suffix]
            break
    try:
        size = Fraction(s) * mult
    except ValueError:
        raise ConfigError(f"not a byte size: {text!r}") from None
    if size.denominator != 1:
        raise ConfigError(f"not a whole number of bytes: {text!r}")
    return int(size)


class ConfigError(ValueError):
    """Raised when a configuration violates a structural constraint."""


@dataclass
class SimConfig:
    # Capacities.  The cache zone is carved out of fast memory, so the
    # host-visible space is (fast - cache_zone) + slow.
    fast_capacity_bytes: int = 128 * 1024 ** 2
    slow_capacity_bytes: int = 1024 ** 3
    page_size_bytes: int = 4096
    block_size_bytes: int = 128
    cache_zone_bytes: int = 0
    cache_ways: int = 4

    # Device timing (ns per access) and energy (nJ per block-sized access).
    fast_read_ns: int = 50
    fast_write_ns: int = 50
    slow_read_ns: int = 100
    slow_write_ns: int = 300
    fast_read_nj: float = 4.2
    fast_write_nj: float = 3.5
    slow_read_nj: float = 1.28
    slow_write_nj: float = 8.7
    fast_background_mw_per_gb: float = 30.0

    # Migration engine.
    dma_bandwidth_bytes_per_ns: float = 8.0

    # Placement policy.
    policy: Policy = Policy.PAGEMOVE
    promotion_threshold: int = 4
    bloom_window: int = 2048
    rng_seed: int = 0

    # Adaptive-threshold controller (only read under the adaptive policy;
    # adaptive_window_pages == 0 disables adaptation entirely).
    adaptive_min_threshold: int = 1
    adaptive_max_threshold: int = 8
    adaptive_window_pages: int = 64
    adaptive_alpha: float = 0.25
    adaptive_hi_water: float = 0.75
    adaptive_lo_water: float = 0.25

    # Test hook: replace the bloom filter with an exact sliding-window queue
    # so runs are bit-comparable against the reference oracle.
    exact_recency: bool = False

    # Derived geometry ------------------------------------------------

    @property
    def blocks_per_page(self) -> int:
        return self.page_size_bytes // self.block_size_bytes

    @property
    def fast_pages(self) -> int:
        """Page-managed pages in the fast tier (cache zone excluded)."""
        if self.policy is Policy.ALLDRAM:
            return self.total_pages
        return (self.fast_capacity_bytes - self.cache_zone_bytes) // self.page_size_bytes

    @property
    def slow_pages(self) -> int:
        if self.policy is Policy.ALLDRAM:
            return 0
        return self.slow_capacity_bytes // self.page_size_bytes

    @property
    def total_pages(self) -> int:
        """Host-visible pages."""
        if self.policy is Policy.ALLDRAM:
            return (self.fast_capacity_bytes + self.slow_capacity_bytes) // self.page_size_bytes
        return self.fast_pages + self.slow_pages

    @property
    def host_space_bytes(self) -> int:
        return self.total_pages * self.page_size_bytes

    @property
    def cache_sets(self) -> int:
        if self.cache_zone_bytes == 0:
            return 0
        return self.cache_zone_bytes // (self.block_size_bytes * self.cache_ways)

    def validate(self) -> "SimConfig":
        p = self.page_size_bytes
        _need(p > 0 and p & (p - 1) == 0,
              f"page_size_bytes: page size {p} is not a power of two")
        _need(self.block_size_bytes > 0 and p % self.block_size_bytes == 0,
              "block_size_bytes: page size must be a multiple of the block size")
        for name in ("fast_capacity_bytes", "slow_capacity_bytes"):
            _need(getattr(self, name) % p == 0,
                  f"{name}: tier capacities must be whole pages")
        _need(self.cache_ways == 4, f"cache_ways {self.cache_ways}: the block "
              "cache is 4-way (its pLRU tree has 3 bits)")
        zone = self.cache_zone_bytes
        _need(zone < self.fast_capacity_bytes, "cache_zone_bytes: cache zone "
              "must leave room for page-managed fast memory")
        if self.policy in CACHING:
            _need(zone > 0, f"cache_zone_bytes: {self.policy.value} requires "
                  "a non-empty cache zone")
            _need(zone % (self.block_size_bytes * self.cache_ways) == 0,
                  "cache_zone_bytes: cache zone must be a multiple of "
                  "block_size * ways")
            sets = self.cache_sets
            _need(sets & (sets - 1) == 0, "cache_zone_bytes: cache set count "
                  f"{sets} is not a power of two")
        else:
            _need(zone == 0, f"cache_zone_bytes: policy {self.policy.value} "
                  "does not use a cache zone")
        # A threshold is compared with the per-page cached-block counter,
        # which cannot count past a page's blocks or its 4-bit maximum.
        limit = min(self.blocks_per_page, COUNTER_MAX)
        _need(1 <= self.promotion_threshold <= limit,
              f"promotion_threshold {self.promotion_threshold} must be in "
              f"[1, {limit}]")
        if self.policy in MIGRATING:
            _need(self.fast_pages >= 1, "fast_capacity_bytes: no page-managed "
                  "fast pages available")
            _need(self.bloom_window < self.fast_pages, "bloom_window: bloom "
                  "window must be smaller than the fast page count or the "
                  "victim search cannot terminate")
        _need(self.bloom_window >= 1, "bloom_window: bloom window must be positive")
        bandwidth = self.dma_bandwidth_bytes_per_ns
        _need(math.isfinite(bandwidth) and bandwidth > 0,
              "dma_bandwidth_bytes_per_ns: DMA bandwidth must be positive and "
              f"finite, got {bandwidth}")
        for name in _NON_NEGATIVE_FIELDS:
            _need(getattr(self, name) >= 0, f"{name} must be non-negative")
        _need(1 <= self.adaptive_min_threshold <= self.adaptive_max_threshold,
              "adaptive_min_threshold must be in [1, adaptive_max_threshold]")
        _need(self.adaptive_max_threshold <= limit,
              f"adaptive_max_threshold {self.adaptive_max_threshold} must be "
              f"at most {limit}")
        _need(0 < self.adaptive_alpha <= 1, "adaptive_alpha must be in (0, 1]")
        for name in ("adaptive_lo_water", "adaptive_hi_water"):
            _need(0 <= getattr(self, name) <= 1, f"{name} must be in [0, 1]")
        _need(self.adaptive_lo_water <= self.adaptive_hi_water,
              "adaptive_lo_water must not exceed adaptive_hi_water")
        return self


def _need(ok: bool, message: str):
    if not ok:
        raise ConfigError(message)


# Device numbers that are meaningless below zero.
_NON_NEGATIVE_FIELDS = (
    "fast_read_ns", "fast_write_ns", "slow_read_ns", "slow_write_ns",
    "fast_read_nj", "fast_write_nj", "slow_read_nj", "slow_write_nj",
    "fast_background_mw_per_gb",
)


_SIZE_FIELDS = {
    "fast_capacity_bytes", "slow_capacity_bytes", "page_size_bytes",
    "block_size_bytes", "cache_zone_bytes",
}


def config_from_mapping(mapping: dict) -> SimConfig:
    """Build a SimConfig from string-valued keys (config file / CLI)."""
    kwargs = {}
    known = {f.name: f for f in fields(SimConfig)}
    for key, value in mapping.items():
        name = key.strip().replace("-", "_")
        if name not in known:
            raise ConfigError(f"unknown config key: {key}")
        if name in _SIZE_FIELDS:
            try:
                kwargs[name] = parse_size(value)
            except ConfigError as exc:
                raise ConfigError(f"{name}: {exc}") from None
        elif name == "policy":
            kwargs[name] = value if isinstance(value, Policy) else Policy(str(value).lower())
        elif name == "exact_recency":
            word = str(value).strip().lower()
            _need(word in ("true", "false", "yes", "no", "on", "off", "1", "0"),
                  f"{name}: expected true/false/yes/no/on/off/1/0, got {value!r}")
            kwargs[name] = word in ("true", "yes", "on", "1")
        elif not isinstance(value, str):
            kwargs[name] = value
        elif known[name].type in ("float", float):
            kwargs[name] = float(value)
        else:
            try:
                number = float(value) if "." in value else int(value, 0)
            except ValueError:
                number = math.nan
            _need(number % 1 == 0, f"{name}: expected an integer, got {value!r}")
            kwargs[name] = int(number)
    return SimConfig(**kwargs)


def load_config_file(path) -> dict:
    """Read `key = value` lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
