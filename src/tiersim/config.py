"""Simulator configuration: geometry, device timing/energy, policy knobs."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .pagetable import COUNTER_MAX
from .subcache import WAYS


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
        return (self.fast_capacity_bytes - self.cache_zone_bytes) // self.page_size_bytes

    @property
    def slow_pages(self) -> int:
        return self.slow_capacity_bytes // self.page_size_bytes

    @property
    def total_pages(self) -> int:
        """Host-visible pages."""
        return self.fast_pages + self.slow_pages

    @property
    def host_space_bytes(self) -> int:
        return self.total_pages * self.page_size_bytes

    @property
    def cache_sets(self) -> int:
        if self.cache_zone_bytes == 0:
            return 0
        return self.cache_zone_bytes // (self.block_size_bytes * WAYS)

    def validate(self) -> "SimConfig":
        p = self.page_size_bytes
        _need(p > 0 and p & (p - 1) == 0,
              f"page_size_bytes: page size {p} is not a power of two")
        _need(self.block_size_bytes > 0 and p % self.block_size_bytes == 0,
              "block_size_bytes: page size must be a multiple of the block size")
        _need(self.fast_capacity_bytes > 0,
              "fast_capacity_bytes: the fast tier must not be empty")
        _need(self.slow_capacity_bytes >= 0,
              "slow_capacity_bytes: a tier capacity cannot be negative")
        for name in ("fast_capacity_bytes", "slow_capacity_bytes"):
            _need(getattr(self, name) % p == 0,
                  f"{name}: tier capacities must be whole pages")
        # The all-DRAM baseline is one fast tier: its whole capacity is fast.
        _need(self.policy is not Policy.ALLDRAM or self.slow_capacity_bytes == 0,
              "slow_capacity_bytes: alldram has no slow tier; give its whole "
              "capacity as fast_capacity_bytes")
        zone = self.cache_zone_bytes
        _need(zone < self.fast_capacity_bytes, "cache_zone_bytes: cache zone "
              "must leave room for page-managed fast memory")
        if self.policy in CACHING:
            _need(zone > 0, f"cache_zone_bytes: {self.policy.value} requires "
                  "a non-empty cache zone")
            _need(zone % (self.block_size_bytes * WAYS) == 0,
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
        # A page swap moves 2 * p bytes; like a device number, it must take
        # at most 2**32 ns. Scaling by 2**32 is exact, so this never rounds.
        bandwidth = self.dma_bandwidth_bytes_per_ns
        _need(math.isfinite(bandwidth) and 2 * p <= 2 ** 32 * bandwidth,
              "dma_bandwidth_bytes_per_ns: DMA bandwidth must be positive and "
              f"finite and swap a page within 2**32 ns, got {bandwidth}")
        for name in _NON_NEGATIVE_FIELDS:
            _need(0 <= getattr(self, name) <= 2 ** 32,
                  f"{name} must lie in [0, 2**32]")
        _need(1 <= self.adaptive_min_threshold <= self.adaptive_max_threshold,
              "adaptive_min_threshold must be in [1, adaptive_max_threshold]")
        _need(self.adaptive_max_threshold <= limit,
              f"adaptive_max_threshold {self.adaptive_max_threshold} must be "
              f"at most {limit}")
        _need(self.adaptive_window_pages >= 0, "adaptive_window_pages must "
              "be non-negative (0 disables adaptation)")
        _need(0 < self.adaptive_alpha <= 1, "adaptive_alpha must be in (0, 1]")
        for name in ("adaptive_lo_water", "adaptive_hi_water"):
            _need(0 <= getattr(self, name) <= 1, f"{name} must be in [0, 1]")
        _need(self.adaptive_lo_water <= self.adaptive_hi_water,
              "adaptive_lo_water must not exceed adaptive_hi_water")
        return self


def _need(ok: bool, message: str):
    if not ok:
        raise ConfigError(message)


# Device numbers, each in [0, 2**32]: with fewer than 2**64 requests, every
# time and energy a report multiplies out of them stays a finite float.
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
    """Build a SimConfig from string-valued keys (config file / CLI). A
    value that does not parse is a ConfigError naming its field."""
    kwargs = {}
    known = {f.name: f.type for f in fields(SimConfig)}
    for key, value in mapping.items():
        name = key.strip().replace("-", "_")
        if name not in known:
            raise ConfigError(f"unknown config key: {key}")
        try:
            kwargs[name] = _parse_value(name, known[name], value)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return SimConfig(**kwargs)


def _parse_value(name: str, kind: str, value):
    """Field `name`'s value, of annotated type `kind`, from `value`. Values
    that are not strings pass through, except sizes and booleans."""
    if name in _SIZE_FIELDS:
        return parse_size(value)
    if kind == "bool":
        word = str(value).strip().lower()
        _need(word in ("true", "false", "yes", "no", "on", "off", "1", "0"),
              f"expected true/false/yes/no/on/off/1/0, got {value!r}")
        return word in ("true", "yes", "on", "1")
    if not isinstance(value, str):
        return value
    try:
        if kind == "Policy":
            return Policy(value.strip().lower())
        if kind == "float":
            return float(value)
        number = float(value) if "." in value else int(value, 0)
        if number % 1 == 0:
            return int(number)
    except ValueError:
        pass
    raise ConfigError(f"expected {_EXPECTED[kind]}, got {value!r}")


_EXPECTED = {"int": "an integer", "float": "a number",
             "Policy": "one of " + ", ".join(policy.value for policy in Policy)}


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
