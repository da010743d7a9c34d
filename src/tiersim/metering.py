"""Time, energy and traffic accounting, plus the hardware metadata-cost
calculator for the remap table and cache-zone tags. Each access is counted
in blocks on one of eight counters, named by index: the request loop bumps a
foreground one and adds its latency; `charge` counts background blocks."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pagetable import BITMAP_BITS, COUNTER_MAX
from .subcache import PLRU_BITS, WAYS

REPORT_SCHEMA_VERSION = 1

# 1 mW sustained for 1 ns is 1e-3 nJ.
_MW_NS_TO_NJ = 1e-3
_GIB = 1024 ** 3


# Index of each access counter in MeterLedger.counts, in the order of
# MeterLedger.FG_FIELDS followed by MeterLedger.MIG_FIELDS.
FAST_READ, FAST_WRITE, SLOW_READ, SLOW_WRITE = range(4)
MIG_FAST_READ, MIG_FAST_WRITE, MIG_SLOW_READ, MIG_SLOW_WRITE = range(4, 8)


def _counter(index: int) -> property:
    return property(lambda self: self.counts[index])


class MeterLedger:
    """Access counters in block-sized units; energy is derived from the
    final counts so identical runs produce bit-identical numbers."""

    FG_FIELDS = ("fast_reads", "fast_writes", "slow_reads", "slow_writes")
    MIG_FIELDS = ("mig_fast_reads", "mig_fast_writes",
                  "mig_slow_reads", "mig_slow_writes")

    (fast_reads, fast_writes, slow_reads, slow_writes, mig_fast_reads,
     mig_fast_writes, mig_slow_reads, mig_slow_writes) = map(_counter, range(8))

    def __init__(self, config):
        self.config = config
        self.block_size = config.block_size_bytes
        self.counts = [0] * 8
        # Latency per unit of each foreground counter.
        self.unit_ns = [config.fast_read_ns, config.fast_write_ns,
                        config.slow_read_ns, config.slow_write_ns]
        # The simulated clock: foreground accesses and write stalls advance it.
        self.total_foreground_ns = 0
        self.stall_ns = 0
        self.write_stalls = 0

    def charge(self, index: int, units: int):
        """Count `units` blocks of background traffic on counter `index`."""
        self.counts[index] += units

    def charge_stall(self, ns: int):
        self.stall_ns += ns
        self.write_stalls += 1
        self.total_foreground_ns += ns

    # Derived ------------------------------------------------------------

    def energy_breakdown(self, elapsed_ns: int, background_gib: float) -> dict:
        cfg = self.config
        bg_mw = cfg.fast_background_mw_per_gb * background_gib
        return {
            "energy_fast_background_nj": bg_mw * elapsed_ns * _MW_NS_TO_NJ,
            "energy_fast_read_nj": (self.fast_reads + self.mig_fast_reads) * cfg.fast_read_nj,
            "energy_fast_write_nj": (self.fast_writes + self.mig_fast_writes) * cfg.fast_write_nj,
            "energy_slow_read_nj": (self.slow_reads + self.mig_slow_reads) * cfg.slow_read_nj,
            "energy_slow_write_nj": (self.slow_writes + self.mig_slow_writes) * cfg.slow_write_nj,
        }

    def finalize(self, background_gib: float) -> dict:
        elapsed_ns = self.total_foreground_ns
        energy = self.energy_breakdown(elapsed_ns, background_gib)
        total_energy = sum(energy.values())   # in energy_breakdown's order
        fg_accesses = (self.fast_reads + self.fast_writes
                       + self.slow_reads + self.slow_writes)
        fast_hits = self.fast_reads + self.fast_writes
        report = dict(zip(self.FG_FIELDS + self.MIG_FIELDS, self.counts))
        report.update({
            "foreground_accesses": fg_accesses,
            "fast_hit_fraction": fast_hits / fg_accesses if fg_accesses else 1.0,
            "slow_writes_total": self.slow_writes + self.mig_slow_writes,
            # Each migrated block is written exactly once, to one tier.
            "migrated_bytes": self.block_size * (self.mig_fast_writes
                                                 + self.mig_slow_writes),
            "write_stalls": self.write_stalls,
            "stall_ns": self.stall_ns,
            "total_foreground_ns": self.total_foreground_ns,
            "elapsed_ns": elapsed_ns,
        })
        report.update(energy)
        report["energy_total_nj"] = total_energy
        return report


# Metadata-cost calculator ------------------------------------------------


@dataclass
class MetadataCostReport:
    bits_per_page_entry: int
    page_entry_bytes: int
    page_entries: int
    total_page_table_bytes: int
    bits_per_cache_set: int
    cache_sets: int
    total_cache_meta_bytes: float
    functional_bits_per_page_entry: int
    functional_page_table_bytes: int
    functional_bits_per_cache_set: int
    functional_cache_meta_bytes: float


# Fixed widths of the per-entry and per-set metadata in the hardware design:
# a page entry carries 5 statistic bits on top of the page number; a cache
# set carries an 8-bit tag and a dirty bit per way plus the pLRU bits (39
# bits for 4 ways).
PAGE_ENTRY_STAT_BITS = 5
SET_TAG_BITS = 8

# Functional (simulation-accurate) widths: the resident-block counter plus
# the access bitmap per page entry, and full tags plus valid bits per cache
# set.
FUNCTIONAL_PAGE_STAT_BITS = COUNTER_MAX.bit_length() + BITMAP_BITS


def metadata_cost(total_space_bytes: int, page_size_bytes: int,
                  cache_sets: int = 0, block_bytes: int = 128) -> MetadataCostReport:
    """Metadata widths and totals for a space of `total_space_bytes` in
    pages of `page_size_bytes` and a cache of `cache_sets` sets (0: none).
    A bad argument is a ValueError that starts with its `metacost` flag."""
    page, block = page_size_bytes, block_bytes
    if not _power_of_two(page):
        raise ValueError(f"page: page size {page} is not a power of two")
    if not _power_of_two(block) or page % block:
        raise ValueError(f"block: block size {block} is not a power of two "
                         f"that divides the page size {page}")
    if cache_sets and not _power_of_two(cache_sets):
        raise ValueError(f"sets: set count {cache_sets} is neither 0 nor a "
                         "power of two")
    if total_space_bytes <= 0 or total_space_bytes % page:
        raise ValueError(f"space: {total_space_bytes} bytes is not a positive "
                         "whole number of pages")
    entries = total_space_bytes // page_size_bytes
    addr_bits = max(0, (entries - 1).bit_length()) if entries > 1 else 0
    bits_per_entry = addr_bits + PAGE_ENTRY_STAT_BITS
    entry_bytes = math.ceil(bits_per_entry / 8)
    bits_per_set = WAYS * SET_TAG_BITS + PLRU_BITS + WAYS

    func_bits_entry = addr_bits + FUNCTIONAL_PAGE_STAT_BITS
    total_blocks = total_space_bytes // block_bytes
    block_bits = max(1, (max(1, total_blocks) - 1).bit_length())
    set_bits = max(0, (cache_sets - 1).bit_length()) if cache_sets > 1 else 0
    func_tag_bits = max(1, block_bits - set_bits)
    func_bits_set = WAYS * func_tag_bits + PLRU_BITS + WAYS + WAYS

    return MetadataCostReport(
        bits_per_page_entry=bits_per_entry,
        page_entry_bytes=entry_bytes,
        page_entries=entries,
        total_page_table_bytes=entries * entry_bytes,
        bits_per_cache_set=bits_per_set,
        cache_sets=cache_sets,
        total_cache_meta_bytes=bits_per_set * cache_sets / 8,
        functional_bits_per_page_entry=func_bits_entry,
        functional_page_table_bytes=entries * math.ceil(func_bits_entry / 8),
        functional_bits_per_cache_set=func_bits_set,
        functional_cache_meta_bytes=func_bits_set * cache_sets / 8,
    )


def _power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def gib(nbytes: int) -> float:
    return nbytes / _GIB
