import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tiersim import MemoryRequest, Policy, Simulator
from tiersim.pagetable import COUNTER_MAX
from tiersim.subcache import WAYS, BlockCache

from conftest import small_config


def make_cache(sets=4):
    return BlockCache(sets, 128)


def dump_cache(c) -> str:
    """A header, then one line per (set, way): tag, valid, dirty and the
    set's pLRU bits."""
    lines = ["set way tag valid dirty plru"]
    for idx in range(c.nsets):
        for way in range(WAYS):
            line = c.line_of(idx, way)
            lines.append(f"{idx} {way} {c.tags[line]} {c.valid[line]} "
                         f"{c.dirty[line]} {c.plru[idx]:03b}")
    return "\n".join(lines)


def line_bytes(c, block_id, way, write=False):
    """A copy of the resident line's data, read through its zone offset."""
    start = c.line_offset(block_id, way, write)
    return bytes(c.zone[start:start + c.block_bytes])


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
        tags = [c.tags[w] for w in range(4) if c.valid[w]]  # set 0: lines 0-3
        assert len(tags) == len(set(tags))

    def test_valid_count_tracks_occupancy(self):
        c = make_cache(sets=2)
        c.insert(0, bytes(128))
        c.insert(1, bytes(128))
        assert sum(c.valid) == len(c.resident) == 2
        c.invalidate(0, c.peek(0))
        assert sum(c.valid) == len(c.resident) == 1


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


class LinearScanCache:
    """Reference block cache: each set is four [tag, valid, dirty, data]
    lines found by scanning, with the pLRU of PlruReference."""

    def __init__(self, sets):
        self.sets = [[[0, False, False, b""] for _ in range(4)]
                     for _ in range(sets)]
        self.plru = [PlruReference() for _ in range(sets)]

    def _find(self, block_id):
        idx = block_id % len(self.sets)
        for way, (tag, valid, _, _) in enumerate(self.sets[idx]):
            if valid and tag == block_id:
                return idx, way
        return idx, None

    def lookup(self, block_id):
        idx, way = self._find(block_id)
        if way is not None:
            self.plru[idx].touch(way)
        return way

    def peek(self, block_id):
        return self._find(block_id)[1]

    def insert(self, block_id, data):
        idx, _ = self._find(block_id)
        lines = self.sets[idx]
        free = [way for way in range(4) if not lines[way][1]]
        way = free[0] if free else self.plru[idx].victim()
        tag, _, dirty, old = lines[way]
        victim = None if free else (tag, dirty, old)
        lines[way] = [block_id, True, False, bytes(data)]
        self.plru[idx].touch(way)
        return victim

    def write(self, block_id, way, offset, payload):
        line = self.sets[block_id % len(self.sets)][way]
        line[2] = True
        line[3] = line[3][:offset] + payload + line[3][offset + len(payload):]

    def invalidate(self, block_id, way):
        line = self.sets[block_id % len(self.sets)][way]
        line[1] = False
        return line[2], line[3]


@pytest.mark.parametrize("sets", [1, 2, 8, 64])
def test_residency_index_matches_a_linear_scan(sets):
    rng = random.Random(sets)
    c, ref = make_cache(sets), LinearScanCache(sets)
    universe = 6 * sets
    for _ in range(2000):
        block = rng.randrange(universe)
        op = rng.random()
        if op < 0.35:
            assert c.lookup(block) == ref.lookup(block)
        elif op < 0.45:
            assert c.peek(block) == ref.peek(block)
        elif op < 0.75:
            if ref.peek(block) is None:
                data = rng.randbytes(128)
                victim = c.insert(block, data)
                assert victim == ref.insert(block, data)
        else:
            way = ref.peek(block)
            assert c.peek(block) == way
            if way is not None and op < 0.9:
                payload = rng.randbytes(8)
                offset = rng.randrange(120)
                start = c.line_offset(block, way, write=True) + offset
                c.zone[start:start + 8] = payload
                ref.write(block, way, offset, payload)
            elif way is not None:
                assert c.invalidate(block, way) == ref.invalidate(block, way)
        assert len(c.resident) == sum(c.valid) == sum(
            line[1] for lines in ref.sets for line in lines)
        assert_same_state(c, ref)


def assert_same_state(c, ref):
    """The flat arrays hold what the reference's lines hold: the residency
    index names exactly the valid lines, and each set's valid flags, and the
    tags, dirty flags and data of its valid lines, match line for line."""
    for block_id, way in c.resident.items():
        line = c.line_of(block_id, way)
        assert c.valid[line] and c.tags[line] == block_id
    block = c.block_bytes
    for idx, lines in enumerate(ref.sets):
        first = c.line_of(idx, 0)
        assert list(c.valid[first:first + 4]) == [line[1] for line in lines]
        assert [(c.tags[first + w], c.dirty[first + w],
                 bytes(c.zone[(first + w) * block:(first + w + 1) * block]))
                for w in range(4) if c.valid[first + w]] \
            == [(line[0], line[2], line[3]) for line in lines if line[1]]


class TestDirtyData:
    def test_write_sets_dirty_and_data_roundtrip(self):
        c = make_cache()
        c.insert(7, bytes(range(128)))
        way = c.lookup(7)
        start = c.line_offset(7, way, write=True)
        c.zone[start + 10:start + 12] = b"\xAA\xBB"
        assert line_bytes(c, 7, way)[10:12] == b"\xAA\xBB"
        assert line_bytes(c, 7, way)[0:1] == b"\x00"
        dirty, data = c.invalidate(7, way)
        assert dirty and data[10:12] == b"\xAA\xBB"

    def test_read_does_not_dirty(self):
        c = make_cache()
        c.insert(7, bytes(128))
        way = c.lookup(7)
        assert line_bytes(c, 7, way)[0:8] == bytes(8)
        assert not c.dirty[c.line_of(7, way)]

    def test_insert_is_clean(self):
        c = make_cache()
        c.insert(9, bytes(128))
        dirty, _ = c.invalidate(9, c.peek(9))
        assert not dirty


class TestSimulatorCachePaths:
    """Cache behavior through the dispatch loop (metering + page coupling)."""

    def _sim(self):
        # threshold high enough that pages never promote in these tests
        return Simulator(small_config(Policy.STATCOMB, promotion_threshold=COUNTER_MAX,
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
        assert sum(sim.pagetable.cached_blocks) == len(sim.cache.resident)


class TestRecycling:
    def _promoting_sim(self):
        return Simulator(small_config(Policy.STATCOMB, promotion_threshold=2,
                                      bloom_window=8))

    def test_block_of_still_slow_page_not_evicted(self):
        sim = Simulator(small_config(Policy.STATCOMB, promotion_threshold=COUNTER_MAX,
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
        assert sim.pagetable.lookup(page) < sim.pagetable.fast_pages
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
    lines = dump_cache(c).splitlines()
    assert len(lines) == 1 + 2 * 4
    # Block 5 went to way 0 of set 1; the tree now points at the right pair.
    assert lines[1 + 4].split() == ["1", "0", "5", "1", "0", "011"]


# Line data for inserts: block bytes starting at any byte value.
_CYCLE = bytes(range(256)) * 17

CACHE_OPS = st.lists(st.tuples(
    st.sampled_from(["lookup", "peek", "insert", "write", "invalidate"]),
    st.integers(0, 6 * 64 - 1),                      # block id
    st.one_of(st.just(-1), st.integers(0, 4095)),    # write offset; -1: last byte
    st.binary(min_size=1, max_size=8)), max_size=120)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(log_sets=st.integers(0, 6), block=st.sampled_from([1, 4096]),
       ops=CACHE_OPS)
def test_flat_cache_matches_a_linear_scan_at_any_geometry(log_sets, block, ops):
    sets = 1 << log_sets
    c, ref = BlockCache(sets, block), LinearScanCache(sets)
    for op, block_id, offset, payload in ops:
        block_id %= 6 * sets
        way = ref.peek(block_id)
        if op == "lookup":
            assert c.lookup(block_id) == ref.lookup(block_id)
        elif op == "peek":
            assert c.peek(block_id) == way
        elif op == "insert" and way is None:
            data = _CYCLE[block_id & 0xFF:(block_id & 0xFF) + block]
            assert c.insert(block_id, data) == ref.insert(block_id, data)
        elif op == "write" and way is not None:
            offset = block - 1 if offset < 0 else offset % block
            payload = payload[:block - offset]
            start = c.line_offset(block_id, way, write=True) + offset
            c.zone[start:start + len(payload)] = payload
            ref.write(block_id, way, offset, payload)
        elif op == "invalidate" and way is not None:
            assert c.invalidate(block_id, way) == ref.invalidate(block_id, way)
        assert sum(c.valid) == sum(line[1] for lines in ref.sets
                                   for line in lines)
    assert_same_state(c, ref)


def test_a_zone_costs_little_more_than_its_bytes():
    # 16 MiB of 128-byte lines: tags, flags and pLRU bits add about 8%.
    zone = 16 << 20
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        c = BlockCache(zone // (WAYS * 128), 128)
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(c.zone) == zone
    assert allocated <= 1.3 * zone, allocated / zone
