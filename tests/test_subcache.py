import random

from tiersim import MemoryRequest, Policy, Simulator
from tiersim.subcache import BlockCache

from conftest import small_config


def make_cache(sets=4):
    return BlockCache(sets, 4, 128)


class PlruReference:
    """Recency-order reference for one set: victim must never be the most
    recently touched way, and must match an independently coded tree walk."""

    def __init__(self):
        self.bits = {"root": 0, "left": 0, "right": 0}

    def touch(self, way):
        if way < 2:
            self.bits["root"] = 1
            self.bits["left"] = 1 if way == 0 else 0
        else:
            self.bits["root"] = 0
            self.bits["right"] = 1 if way == 2 else 0

    def victim(self):
        if self.bits["root"]:
            return 3 if self.bits["right"] else 2
        return 1 if self.bits["left"] else 0


class TestLookupInsert:
    def test_empty_miss(self):
        assert make_cache().lookup(123) is None

    def test_insert_then_hit(self):
        c = make_cache()
        c.insert(123, bytes(128))
        assert c.lookup(123) is not None

    def test_fifth_block_evicts_plru_choice(self):
        c = make_cache(sets=1)
        blocks = [10, 20, 30, 40]  # all map to set 0 (sets=1)
        for b in blocks:
            c.insert(b, bytes(128))
        victim = c.insert(50, bytes(128))
        assert victim is not None
        evicted = victim[0]
        assert c.lookup(evicted) is None
        assert c.lookup(50) is not None

    def test_no_duplicate_tags_in_set(self):
        c = make_cache(sets=1)
        rng = random.Random(0)
        for _ in range(200):
            block = rng.randrange(8) * 100 + 1
            if c.peek(block) is None:
                c.insert(block, bytes(128))
        s = c.sets[0]
        tags = [s.tags[w] for w in range(4) if s.valid[w]]
        assert len(tags) == len(set(tags))

    def test_valid_count_tracks_occupancy(self):
        c = make_cache(sets=2)
        c.insert(0, bytes(128))
        c.insert(1, bytes(128))
        assert c.valid_count == 2
        c.invalidate(0, c.peek(0))
        assert c.valid_count == 1


class TestPlru:
    def test_victim_never_most_recent(self):
        c = make_cache(sets=1)
        ref = PlruReference()
        resident = []
        rng = random.Random(4)
        for b in range(4):
            c.insert(b, bytes(128))
            ref.touch(b)  # insert touches the filled way in order 0..3
            resident.append(b)
        last_touched = 3
        for step in range(500):
            if rng.random() < 0.6 and resident:
                blk = rng.choice(resident)
                way = c.lookup(blk)
                ref.touch(way)
                last_touched = way
            else:
                newblk = 100 + step
                expect_victim_way = ref.victim()
                victim = c.insert(newblk, bytes(128))
                assert victim is not None
                assert victim[0] == resident[expect_victim_way]
                assert expect_victim_way != last_touched
                resident[expect_victim_way] = newblk
                ref.touch(expect_victim_way)
                last_touched = expect_victim_way

    def test_replay_against_reference_misses(self):
        # insert 5 distinct blocks; the pLRU-evicted one must miss
        c = make_cache(sets=1)
        for b in (1, 2, 3, 4):
            c.insert(b, bytes(128))
        victim = c.insert(5, bytes(128))
        assert victim[0] == 1  # ways filled 0..3 in order; tree walks to way 0
        assert c.lookup(1) is None


class TestDirtyData:
    def test_write_sets_dirty_and_data_roundtrip(self):
        c = make_cache()
        c.insert(7, bytes(range(128)))
        way = c.lookup(7)
        c.line(7, way, write=True)[10:12] = b"\xAA\xBB"
        assert c.line(7, way)[10:12] == b"\xAA\xBB"
        assert c.line(7, way)[0:1] == b"\x00"
        dirty, data = c.invalidate(7, way)
        assert dirty and data[10:12] == b"\xAA\xBB"

    def test_read_does_not_dirty(self):
        c = make_cache()
        c.insert(7, bytes(128))
        way = c.lookup(7)
        assert c.line(7, way)[0:8] == bytes(8)
        assert not c.sets[7 % 4].dirty[way]

    def test_insert_is_clean(self):
        c = make_cache()
        c.insert(9, bytes(128))
        dirty, _ = c.invalidate(9, c.peek(9))
        assert not dirty


class TestSimulatorCachePaths:
    """Cache behavior through the dispatch loop (metering + page coupling)."""

    def _sim(self):
        # threshold high enough that pages never promote in these tests
        return Simulator(small_config(Policy.STATCOMB, promotion_threshold=30,
                                      bloom_window=8))

    def test_miss_copies_block_and_counts(self):
        sim = self._sim()
        slow_page = sim.config.fast_pages + 3
        out = sim.dispatch(MemoryRequest("R", slow_page * 4096, 64, 0))
        assert out.device == "slow"
        assert sim.block_relocations == 1
        assert sim.cache.peek(slow_page * 32) is not None
        assert sim.pagetable.cached_blocks[slow_page] == 1
        assert sim.ledger.mig_slow_reads == 1 and sim.ledger.mig_fast_writes == 1

    def test_second_touch_hits_cache_at_fast_latency(self):
        sim = self._sim()
        addr = (sim.config.fast_pages + 3) * 4096
        sim.dispatch(MemoryRequest("R", addr, 64, 0))
        out = sim.dispatch(MemoryRequest("R", addr, 64, 1))
        assert out.device == "fast"
        assert out.latency_ns == sim.config.fast_read_ns
        assert sim.ledger.fast_reads == 1 and sim.ledger.slow_reads == 1

    def test_dirty_eviction_writes_back_128_bytes(self):
        sim = self._sim()
        nsets = sim.config.cache_sets
        bpp = sim.config.blocks_per_page
        base = sim.config.fast_pages
        # Block 0 of pages whose block ids collide in one set (page % nsets
        # repeats every nsets/bpp pages since block_id = page * bpp).
        step = max(1, nsets // bpp)
        pages = [base + i * step for i in range(5)]
        assert len({(p * bpp) % nsets for p in pages}) == 1
        seq = 0
        for p in pages:
            addr = p * 4096
            sim.dispatch(MemoryRequest("W", addr, 64, seq)); seq += 1
            sim.dispatch(MemoryRequest("W", addr, 64, seq)); seq += 1  # hit -> dirty
        assert sim.writebacks == 1
        assert sim.ledger.mig_slow_writes == 1

    def test_occupancy_matches_counters(self):
        sim = self._sim()
        rng = random.Random(2)
        seq = 0
        for _ in range(3000):
            page = rng.randrange(sim.config.fast_pages, sim.config.total_pages)
            addr = page * 4096 + rng.randrange(32) * 128
            sim.dispatch(MemoryRequest(rng.choice("RW"), addr, 64, seq))
            seq += 1
        assert sum(sim.pagetable.cached_blocks) == sim.cache.valid_count


class TestRecycling:
    def _promoting_sim(self):
        return Simulator(small_config(Policy.STATCOMB, promotion_threshold=2,
                                      bloom_window=8))

    def test_block_of_still_slow_page_not_evicted(self):
        sim = Simulator(small_config(Policy.STATCOMB, promotion_threshold=30,
                                     bloom_window=8))
        addr = (sim.config.fast_pages + 1) * 4096
        sim.dispatch(MemoryRequest("R", addr, 64, 0))
        sim.dispatch(MemoryRequest("R", addr, 64, 1))
        assert sim.recycles == 0
        assert sim.cache.peek(addr // 128) is not None

    def test_promoted_page_block_recycled_on_touch(self):
        sim = self._promoting_sim()
        page = sim.config.fast_pages + 1
        seq = 0
        # Two blocks cached, third distinct block triggers promotion.
        for blk in (0, 1, 2):
            sim.dispatch(MemoryRequest("R", page * 4096 + blk * 128, 64, seq))
            seq += 1
        # Let the swap complete (advance time with unrelated fast traffic).
        for _ in range(40):
            sim.dispatch(MemoryRequest("R", 0, 64, seq)); seq += 1
        assert sim.pagetable.in_fast(sim.pagetable.lookup(page))
        # Touch a cached block of the now-fast page: proactive recycle.
        before = sim.recycles
        out = sim.dispatch(MemoryRequest("R", page * 4096, 64, seq))
        assert sim.recycles == before + 1
        assert out.device == "fast"
        assert sim.cache.peek(page * 32) is None

    def test_dirty_recycle_merges_into_fast_copy(self):
        sim = self._promoting_sim()
        page = sim.config.fast_pages + 1
        seq = 0
        sim.dispatch(MemoryRequest("R", page * 4096, 64, seq)); seq += 1
        # dirty the cached copy
        sim.dispatch(MemoryRequest("W", page * 4096 + 8, 8, seq)); wseq = seq; seq += 1
        sim.dispatch(MemoryRequest("R", page * 4096 + 128, 64, seq)); seq += 1
        sim.dispatch(MemoryRequest("R", page * 4096 + 256, 64, seq)); seq += 1
        for _ in range(40):
            sim.dispatch(MemoryRequest("R", 0, 64, seq)); seq += 1
        mig_fast_writes_before = sim.ledger.mig_fast_writes
        out = sim.dispatch(MemoryRequest("R", page * 4096 + 8, 8, seq))
        expected = bytes((wseq + i) & 0xFF for i in range(8))
        assert out.data == expected
        assert out.device == "fast"
        assert sim.ledger.mig_fast_writes == mig_fast_writes_before + 1


def test_dump_lists_every_way():
    c = make_cache(sets=2)
    c.insert(5, bytes(128))
    lines = c.dump().splitlines()
    assert len(lines) == 1 + 2 * 4
