"""Simulator configuration: geometry, device timing/energy, policy knobs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
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


def _field(default, kind, bounds=None, read_by=tuple(Policy), flag=None,
           sweep=False):
    """Declare a SimConfig field, once: `kind` keys its parser in `PARSERS`;
    `validate()` keeps it in `bounds` (written '[0, 2**32]', '(0, 1]',
    '[1, inf)') under every policy, and in its geometry bounds under the
    `read_by` policies; `flag` is its run/sweep option and help text; and
    `sweep` says whether `sweep --param` takes it."""
    return field(default=default, metadata=dict(
        kind=kind, bounds=bounds, read_by=read_by, flag=flag, sweep=sweep))


# Device numbers: with fewer than 2**64 requests, every time and energy a
# report multiplies out of them stays a finite float.
_DEVICE = "[0, 2**32]"
_ADAPTIVE = (Policy.ADPCOMB,)


@dataclass
class SimConfig:
    # Capacities.  The cache zone is carved out of fast memory, so the
    # host-visible space is (fast - cache_zone) + slow.
    fast_capacity_bytes: int = _field(
        128 * 1024 ** 2, "size", sweep=True,
        flag=("--fast-size", "fast tier capacity (e.g. 128MiB)"))
    slow_capacity_bytes: int = _field(
        1024 ** 3, "size", flag=("--slow-size", "slow tier capacity"))
    page_size_bytes: int = _field(
        4096, "size", flag=("--page-size", "page size (default 4KiB)"))
    block_size_bytes: int = _field(
        128, "size", flag=("--block-size", "block size (default 128)"))
    cache_zone_bytes: int = _field(
        0, "size", read_by=CACHING, sweep=True,
        flag=("--cache-size", "cache zone size (combined policies)"))

    # Device timing (ns per access) and energy (nJ per block-sized access).
    fast_read_ns: int = _field(50, "int", _DEVICE)
    fast_write_ns: int = _field(50, "int", _DEVICE)
    slow_read_ns: int = _field(100, "int", _DEVICE)
    slow_write_ns: int = _field(300, "int", _DEVICE)
    fast_read_nj: float = _field(4.2, "float", _DEVICE)
    fast_write_nj: float = _field(3.5, "float", _DEVICE)
    slow_read_nj: float = _field(1.28, "float", _DEVICE)
    slow_write_nj: float = _field(8.7, "float", _DEVICE)
    fast_background_mw_per_gb: float = _field(30.0, "float", _DEVICE)

    # Migration engine.
    dma_bandwidth_bytes_per_ns: float = _field(
        8.0, "float", "(0, inf)", MIGRATING, sweep=True,
        flag=("--dma-bw", "DMA bandwidth, bytes/ns"))

    # Placement policy.
    policy: Policy = _field(Policy.PAGEMOVE, "policy")
    promotion_threshold: int = _field(
        4, "int", "[1, inf)", CACHING, sweep=True,
        flag=("--threshold", "promotion threshold"))
    bloom_window: int = _field(
        2048, "int", "[1, inf)", MIGRATING, sweep=True,
        flag=("--bloom-window", "recency window in pages"))
    rng_seed: int = _field(
        0, "int", read_by=(Policy.STATIC,), flag=("--seed", "simulator RNG seed"))

    # Adaptive-threshold controller (adaptive_window_pages == 0 disables
    # adaptation entirely).
    adaptive_min_threshold: int = _field(1, "int", "[1, inf)", _ADAPTIVE)
    adaptive_max_threshold: int = _field(8, "int", "[1, inf)", _ADAPTIVE)
    adaptive_window_pages: int = _field(
        64, "int", "[0, inf)", _ADAPTIVE, sweep=True, flag=(
            "--adaptive", "adaptive evaluation window in promotions (0 disables)"))
    adaptive_alpha: float = _field(0.25, "float", "(0, 1]", _ADAPTIVE)
    adaptive_hi_water: float = _field(0.75, "float", "[0, 1]", _ADAPTIVE)
    adaptive_lo_water: float = _field(0.25, "float", "[0, 1]", _ADAPTIVE)

    # Test hook: replace the bloom filter with an exact sliding-window queue
    # so runs are bit-comparable against the reference oracle.
    exact_recency: bool = _field(False, "bool", read_by=MIGRATING)

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
        if self._reads("promotion_threshold"):
            _need(self.promotion_threshold <= limit,
                  f"promotion_threshold {self.promotion_threshold} must be in "
                  f"[1, {limit}]")
        if self._reads("adaptive_max_threshold"):
            _need(self.adaptive_max_threshold <= limit,
                  f"adaptive_max_threshold {self.adaptive_max_threshold} must "
                  f"be at most {limit}")
        if self.policy in MIGRATING:
            _need(self.fast_pages >= 1, "fast_capacity_bytes: no page-managed "
                  "fast pages available")
            _need(self.bloom_window < self.fast_pages, "bloom_window: bloom "
                  "window must be smaller than the fast page count, so that the "
                  "victim search can find a fast page outside the window")
        # A page swap moves 2 * p bytes; like a device number, it must take
        # at most 2**32 ns. Scaling by 2**32 is exact, so this never rounds.
        if self._reads("dma_bandwidth_bytes_per_ns"):
            bandwidth = self.dma_bandwidth_bytes_per_ns
            _need(2 * p <= 2 ** 32 * bandwidth, "dma_bandwidth_bytes_per_ns: "
                  "DMA bandwidth must be positive and finite and swap a page "
                  f"within 2**32 ns, got {bandwidth}")
        for f in fields(self):
            bounds = f.metadata["bounds"]
            _need(bounds is None or _within(getattr(self, f.name), bounds),
                  f"{f.name} must lie in {bounds}")
        _need(self.adaptive_min_threshold <= self.adaptive_max_threshold,
              "adaptive_min_threshold must be in [1, adaptive_max_threshold]")
        _need(self.adaptive_lo_water <= self.adaptive_hi_water,
              "adaptive_lo_water must not exceed adaptive_hi_water")
        return self

    def _reads(self, name: str) -> bool:
        """Whether this config's policy reads field `name`."""
        return self.policy in FIELDS[name].metadata["read_by"]


FIELDS = {f.name: f for f in fields(SimConfig)}


def _need(ok: bool, message: str):
    if not ok:
        raise ConfigError(message)


def _within(value, interval: str) -> bool:
    """Whether `value` lies in `interval`, written like '(0, 2**32]'."""
    lo, hi = map(_endpoint, interval[1:-1].split(","))
    above = lo < value if interval[0] == "(" else lo <= value
    below = value < hi if interval[-1] == ")" else value <= hi
    return above and below


def _endpoint(text: str) -> float:
    base, _, power = text.partition("**")
    return float(base) ** int(power or 1)


def config_from_mapping(mapping: dict) -> SimConfig:
    """Build a SimConfig from string-valued keys (config file / CLI). A
    value that does not parse is a ConfigError naming its field."""
    kwargs = {}
    for key, value in mapping.items():
        name = key.strip().replace("-", "_")
        if name not in FIELDS:
            raise ConfigError(f"unknown config key: {key}")
        expected, parse = PARSERS[FIELDS[name].metadata["kind"]]
        try:
            kwargs[name] = parse(str(value).strip())
        except (KeyError, ValueError):
            raise ConfigError(f"{name}: expected {expected}, got {value!r}") from None
    return SimConfig(**kwargs)


def _whole_number(text: str) -> int:
    number = float(text) if "." in text else int(text, 0)
    if number % 1:   # also true of nan, and so of inf % 1
        raise ValueError(text)
    return int(number)


_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}
# Each kind: what its values must be, and a parser that refuses the others.
PARSERS = {
    "size": ("a whole number of bytes", parse_size),
    "int": ("an integer", _whole_number),
    "float": ("a number", float),
    "bool": ("true/false/yes/no/on/off/1/0", lambda text: _BOOLS[text.lower()]),
    "policy": ("one of " + ", ".join(policy.value for policy in Policy),
               lambda text: Policy(text.lower())),
}


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
