"""Internal page table: host-page to internal-page remapping plus per-page
policy metadata and the counter-based victim search."""

from __future__ import annotations

import random

from .recency import mix64

# Per-entry metadata widths. The cached-block counter saturates at 15; the
# access bitmap has one bit per page sub-region.
COUNTER_MAX = 15
BITMAP_BITS = 8


class PageTable:
    """One-to-one remap of host pages onto internal pages.

    Internal pages [0, fast_pages) are the page-managed fast tier; the rest
    are slow. The victim search walks a monotone counter through a mixing
    hash, probing table slots until it lands on a fast-zone page whose host
    page is not recency-protected; past its probe budget it sweeps the table
    from slot 0 instead.
    """

    def __init__(self, fast_pages: int, total_pages: int, blocks_per_page: int,
                 recency, static_shuffle_seed=None):
        self.fast_pages = fast_pages
        self.total_pages = total_pages
        self.blocks_per_page = blocks_per_page
        self.region_blocks = max(1, blocks_per_page // BITMAP_BITS)
        self.recency = recency

        self.table = list(range(total_pages))
        if static_shuffle_seed is not None:
            random.Random(static_shuffle_seed).shuffle(self.table)

        # Both fit a byte, so they are stored unboxed. `table` stays a list:
        # indexing an array would box every internal page above 256 on the
        # request path.
        self.cached_blocks = bytearray(total_pages)
        self.bitmap = bytearray(total_pages)

        # Victim search state.
        self.counter = 0
        self.candidate = None  # (host_page, internal_page) once searched

    # Lookup ----------------------------------------------------------

    def lookup(self, host_page: int) -> int:
        if not 0 <= host_page < self.total_pages:
            raise IndexError(f"host page {host_page} out of range")
        return self.table[host_page]

    # Access metadata ---------------------------------------------------

    def record_access(self, host_page: int, block_index: int):
        self.recency.record((host_page,))
        # Pages and blocks are powers of two, so the region is below
        # BITMAP_BITS without a clamp.
        self.bitmap[host_page] |= 1 << (block_index // self.region_blocks)

    def bitmap_popcount(self, host_page: int) -> int:
        return bin(self.bitmap[host_page]).count("1")

    def reset_bitmap(self, host_page: int):
        self.bitmap[host_page] = 0

    def add_cached_block(self, host_page: int):
        if self.cached_blocks[host_page] < COUNTER_MAX:
            self.cached_blocks[host_page] += 1

    def drop_cached_block(self, host_page: int):
        if self.cached_blocks[host_page] > 0:
            self.cached_blocks[host_page] -= 1

    # Victim search -----------------------------------------------------

    def search_candidate(self, excluded_internal=()):
        """Advance the counter until a fast, non-recent page is found.

        Runs in the background between requests, so it charges no simulated
        time. `excluded_internal` holds pages of an in-flight swap, which
        cannot be offered while their contents are moving. After
        `16 * fast_pages` probes it takes the first slot from 0 whose page
        is fast, not excluded and not recent, or else (a bloom filter can
        report every page recent) the first fast, non-excluded one.
        """
        for _ in range(16 * max(1, self.fast_pages)):
            slot = mix64(self.counter) % self.total_pages
            pointed = self.table[slot]
            self.counter += 1
            if pointed >= self.fast_pages:
                continue
            if pointed in excluded_internal:
                continue
            if slot in self.recency:
                continue
            self.candidate = (slot, pointed)
            return self.candidate
        eligible = [slot for slot, pointed in enumerate(self.table)
                    if pointed < self.fast_pages
                    and pointed not in excluded_internal]
        slot = next((slot for slot in eligible if slot not in self.recency),
                    eligible[0])
        self.candidate = (slot, self.table[slot])
        return self.candidate

    # Mutation ----------------------------------------------------------

    def swap_mappings(self, host_a: int, host_b: int):
        ta, tb = self.table[host_a], self.table[host_b]
        self.table[host_a], self.table[host_b] = tb, ta
