import random

import pytest

from tiersim import SimConfig
from tiersim.pagetable import BITMAP_BITS, PageTable
from tiersim.recency import BloomRecencyFilter, ExactRecencyFilter, mix64

from conftest import dump_pagetable


def make_table(fast=8, total=32, window=4, seed=None):
    return PageTable(fast, total, 32, ExactRecencyFilter(window),
                     static_shuffle_seed=seed)


def is_bijection(pt) -> bool:
    return sorted(pt.table) == list(range(pt.total_pages))


class TestLookup:
    def test_identity_init(self):
        pt = make_table()
        assert pt.lookup(0) == 0
        assert pt.lookup(17) == 17

    def test_zone_of_high_pages(self):
        pt = make_table(fast=8, total=32)
        assert pt.lookup(3) < pt.fast_pages
        assert pt.lookup(20) >= pt.fast_pages

    def test_out_of_range(self):
        pt = make_table()
        with pytest.raises(IndexError):
            pt.lookup(32)

    def test_lookup_after_swap_follows_data(self):
        # A slow page's host lookup must land on the fast page post-swap.
        pt = make_table(fast=8, total=32)
        hot_host, victim_host = 20, 3
        pt.swap_mappings(hot_host, victim_host)
        assert pt.lookup(hot_host) == 3
        assert pt.lookup(victim_host) == 20
        assert pt.lookup(hot_host) < pt.fast_pages

    def test_zone_split_at_large_scale(self):
        # fast zone pages 0..39999, slow beyond; a hot slow page lands on
        # fast page 38 once swapped with it.
        pt = PageTable(40000, 48000, 32, ExactRecencyFilter(16))
        assert pt.lookup(40027) >= pt.fast_pages
        pt.swap_mappings(40027, 38)
        assert pt.lookup(40027) == 38
        assert pt.lookup(40027) < pt.fast_pages
        assert pt.lookup(38) == 40027


class TestSwap:
    def test_double_swap_restores(self):
        pt = make_table()
        pt.swap_mappings(5, 25)
        pt.swap_mappings(5, 25)
        assert pt.lookup(5) == 5 and pt.lookup(25) == 25

    def test_random_swaps_keep_bijection(self):
        pt = make_table(fast=16, total=64)
        expect = list(range(64))
        rng = random.Random(7)
        for _ in range(1000):
            a, b = rng.randrange(64), rng.randrange(64)
            pt.swap_mappings(a, b)
            expect[a], expect[b] = expect[b], expect[a]
        assert is_bijection(pt)
        assert [pt.lookup(host) for host in range(64)] == expect

    def test_static_shuffle_is_bijective_and_seeded(self):
        a = make_table(seed=42)
        b = make_table(seed=42)
        c = make_table(seed=43)
        assert a.table == b.table
        assert a.table != c.table
        assert is_bijection(a)


class TestAccessMetadata:
    def test_bitmap_bit0_for_offset0(self):
        pt = make_table()
        pt.record_access(5, block_index=0)
        assert pt.bitmap[5] & 1

    def test_bitmap_region_mapping(self):
        # 32 blocks over 8 bits -> 4 blocks per bit
        pt = make_table()
        pt.record_access(5, block_index=7)
        assert pt.bitmap[5] == 0b10
        pt.record_access(5, block_index=31)
        assert pt.bitmap[5] == 0b10000010
        assert pt.bitmap_popcount(5) == 2
        pt.reset_bitmap(5)
        assert pt.bitmap[5] == 0

    def test_recency_recorded(self):
        pt = make_table()
        pt.record_access(9, 0)
        assert 9 in pt.recency

    def test_counter_saturates_at_15(self):
        pt = make_table()
        for _ in range(40):
            pt.add_cached_block(2)
        assert pt.cached_blocks[2] == 15
        for _ in range(40):
            pt.drop_cached_block(2)
        assert pt.cached_blocks[2] == 0


class TestVictimSearch:
    def test_first_probe_accepted_when_all_fast(self):
        pt = make_table(fast=32, total=32)
        start = pt.counter
        host, internal = pt.search_candidate()
        assert pt.counter == start + 1
        assert internal < 32
        assert internal == pt.lookup(mix64(start) % 32)

    def test_counter_advances_past_rejections(self):
        # Derived case: find a counter whose first three probes are slow-zone
        # entries and whose fourth is fast, then check the walk.
        fast, total = 8, 32
        start = None
        for c in range(10_000):
            zones = [mix64(c + i) % total for i in range(4)]
            internals = zones  # identity table: slot == internal page
            if (all(z >= fast for z in internals[:3]) and internals[3] < fast):
                start = c
                break
        assert start is not None
        pt = make_table(fast=fast, total=total)
        pt.counter = start
        host, internal = pt.search_candidate()
        assert pt.counter == start + 4
        assert internal == mix64(start + 3) % total

    def test_bloom_present_page_skipped(self):
        pt = make_table(fast=32, total=32, window=8)
        first_slot = mix64(pt.counter) % 32
        pt.recency.record((first_slot,))
        host, internal = pt.search_candidate()
        assert host != first_slot

    def test_candidate_never_recent_nor_slow(self):
        pt = make_table(fast=16, total=64, window=8)
        rng = random.Random(1)
        for _ in range(200):
            pt.record_access(rng.randrange(64), 0)
            host, internal = pt.search_candidate()
            assert internal < 16
            assert host not in pt.recency

    def test_monotone_counter(self):
        pt = make_table(fast=16, total=64)
        values = []
        for _ in range(50):
            pt.search_candidate()
            values.append(pt.counter)
        assert values == sorted(values)

    def test_exhaustion_falls_back_to_a_table_sweep(self):
        # Fast pages 1 and 0 sit at slots lo < hi, where none of the 32
        # hashed probes lands, so every search spends its budget; every
        # slot below lo holds a slow page.
        probed = {mix64(c) % 256 for c in range(32)}
        lo, hi = sorted(set(range(256)) - probed)[3:5]

        def table(recency, *recent):
            pt = PageTable(2, 256, 32, recency)
            slow = iter(range(2, 256))
            pt.table = [1 if s == lo else 0 if s == hi else next(slow)
                        for s in range(256)]
            pt.recency.record(recent)
            return pt

        # The lowest fast slot that is neither excluded nor recent.
        pt = table(ExactRecencyFilter(1))
        assert pt.search_candidate(excluded_internal=(1,)) == (hi, 0)
        assert pt.counter == 32
        assert table(ExactRecencyFilter(1), lo).search_candidate() == (hi, 0)
        # When a bloom filter holds every fast page, recency is ignored.
        pt = table(BloomRecencyFilter(2, 256), lo, hi)
        assert lo in pt.recency and hi in pt.recency
        assert pt.search_candidate() == (lo, 1)
        assert pt.candidate == (lo, 1)
        assert pt.search_candidate(excluded_internal=(1,)) == (hi, 0)

    def test_excluded_internal_pages_skipped(self):
        pt = make_table(fast=2, total=4, window=1)
        host, internal = pt.search_candidate(excluded_internal=(0,))
        assert internal == 1


def test_dump_format():
    pt = make_table(fast=2, total=4)
    pt.add_cached_block(1)
    lines = dump_pagetable(pt).splitlines()
    assert lines[0].startswith("host_page")
    assert lines[2].split()[:3] == ["1", "1", "1"]
    assert lines[2].split()[3] == "00000000"


# (page, block) pairs giving 1, 2, 4, 8, 16 and 32 blocks per page.
GEOMETRIES = [(512, 512), (512, 256), (512, 128), (1024, 128), (2048, 256),
              (4096, 128), (8192, 256)]


@pytest.mark.parametrize("page,block", GEOMETRIES)
def test_every_block_lands_in_the_bitmap(page, block):
    # validate() admits only power-of-two pages split into whole blocks, so
    # each block's region is a bit below BITMAP_BITS without a clamp.
    cfg = SimConfig(fast_capacity_bytes=4 * page, slow_capacity_bytes=4 * page,
                    page_size_bytes=page, block_size_bytes=block,
                    bloom_window=2, promotion_threshold=1,
                    adaptive_max_threshold=1).validate()
    bpp = cfg.blocks_per_page
    pt = PageTable(4, 8, bpp, ExactRecencyFilter(2))
    for block_index in range(bpp):
        pt.reset_bitmap(3)
        pt.record_access(3, block_index)
        clamped = min(BITMAP_BITS - 1, block_index // pt.region_blocks)
        assert pt.bitmap[3] == 1 << clamped < 1 << BITMAP_BITS
    for block_index in range(bpp):
        pt.record_access(3, block_index)
    assert pt.bitmap_popcount(3) == min(bpp, BITMAP_BITS)
