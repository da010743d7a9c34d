import hashlib
import inspect
import json
import tracemalloc

import pytest

from tiersim import (ConfigError, MemoryRequest, Policy, SimConfig, Simulator,
                     Trace, TraceError, TraceRecord, WorkloadSpec, generate,
                     run_trace)
from tiersim import core
from tiersim.core import write_payload

from conftest import random_records, shadow_run, small_config


class TestDispatchBasics:
    def test_fast_hit_charges_fast_read(self):
        sim = Simulator(small_config(Policy.PAGEMOVE))
        out = sim.dispatch(MemoryRequest("R", 0x1000, 64, 0))
        assert out.device == "fast"
        assert out.latency_ns == sim.config.fast_read_ns
        assert sim.page_relocations == sim.block_relocations == 0

    def test_slow_touch_under_pagemove_serves_slow_and_swaps(self):
        sim = Simulator(small_config(Policy.PAGEMOVE))
        addr = (sim.config.fast_pages + 1) * 4096
        out = sim.dispatch(MemoryRequest("R", addr, 64, 0))
        assert out.device == "slow"
        assert out.latency_ns == sim.config.slow_read_ns
        assert sim.page_relocations == 1
        assert sim.engine.busy

    def test_statcomb_below_threshold_copies_block(self):
        sim = Simulator(small_config(Policy.STATCOMB))
        addr = (sim.config.fast_pages + 1) * 4096 + 0x200
        out = sim.dispatch(MemoryRequest("R", addr, 64, 0))
        assert out.device == "slow"
        assert sim.block_relocations == 1
        assert sim.cache.peek(addr // 128) is not None

    def test_out_of_range_address_is_fatal_with_seq(self):
        sim = Simulator(small_config(Policy.PAGEMOVE))
        bad = sim.config.host_space_bytes
        with pytest.raises(TraceError, match="request 3"):
            sim.dispatch(MemoryRequest("R", bad, 64, 3))

    def test_block_crossing_rejected(self):
        sim = Simulator(small_config(Policy.PAGEMOVE))
        with pytest.raises(TraceError, match="crosses"):
            sim.dispatch(MemoryRequest("R", 0x10F8, 16, 0))

    def test_oversized_request_rejected(self):
        sim = Simulator(small_config(Policy.PAGEMOVE))
        with pytest.raises(TraceError, match="size"):
            sim.dispatch(MemoryRequest("R", 0, 256, 0))


class TestRun:
    def test_empty_trace_all_zero(self):
        rep = run_trace([], small_config(Policy.PAGEMOVE))
        assert rep["requests"] == 0
        assert rep["elapsed_ns"] == 0
        assert rep["energy_total_nj"] == 0.0
        assert rep["fast_reads"] == rep["slow_writes"] == 0

    def test_single_touch_under_alldram(self):
        cfg = small_config(Policy.ALLDRAM, fast_capacity_bytes=2 * 1024 ** 2,
                           slow_capacity_bytes=0)
        rep = run_trace([TraceRecord("R", 0x4000, 64)], cfg)
        assert rep["fast_reads"] == 1
        assert rep["slow_reads"] == 0
        assert rep["migrated_bytes"] == 0

    def test_conservation_of_foreground_accesses(self):
        cfg = small_config(Policy.STATCOMB, promotion_threshold=2, bloom_window=8)
        recs = random_records(5000, cfg.host_space_bytes, seed=12)
        rep = run_trace(recs, cfg)
        assert rep["foreground_accesses"] == len(recs)
        assert rep["requests"] == len(recs)
        assert rep["reads"] + rep["writes"] == len(recs)

    def test_rerun_same_seed_bit_identical(self):
        cfg = small_config(Policy.PAGEMOVE)
        recs = random_records(10_000, cfg.host_space_bytes, seed=13)
        assert run_trace(recs, cfg) == run_trace(recs, cfg)

    def test_static_rerun_and_reseed(self):
        cfg = small_config(Policy.STATIC, rng_seed=5)
        recs = random_records(3000, cfg.host_space_bytes, seed=14)
        assert run_trace(recs, cfg) == run_trace(recs, cfg)
        other = run_trace(recs, small_config(Policy.STATIC, rng_seed=6))
        assert other != run_trace(recs, cfg)

    @pytest.mark.parametrize("policy", list(Policy))
    def test_run_matches_a_dispatch_loop(self, policy):
        cfg = small_config(policy, promotion_threshold=2, bloom_window=8,
                           dma_bandwidth_bytes_per_ns=2.0)
        if policy is Policy.ALLDRAM:
            cfg = small_config(policy, fast_capacity_bytes=1280 * 1024,
                               slow_capacity_bytes=0)
        recs = random_records(4000, cfg.host_space_bytes, seed=15)
        looped = Simulator(cfg)
        for seq, rec in enumerate(recs):
            looped.dispatch(MemoryRequest(rec.kind, rec.host_addr,
                                          rec.size_bytes, seq))
        ran = Simulator(cfg)
        assert ran.run(recs) == looped.finish()
        assert ran.content_digest() == looped.content_digest()

    @pytest.mark.parametrize("policy", list(Policy))
    def test_packed_trace_runs_like_its_list(self, policy):
        cfg = small_config(policy, promotion_threshold=2, bloom_window=8,
                           dma_bandwidth_bytes_per_ns=2.0)
        if policy is Policy.ALLDRAM:
            cfg = small_config(policy, fast_capacity_bytes=1280 * 1024,
                               slow_capacity_bytes=0)
        trace = Trace(random_records(4000, cfg.host_space_bytes, seed=16))
        looped = Simulator(cfg)
        for seq, rec in enumerate(trace):
            looped.dispatch(MemoryRequest(rec.kind, rec.host_addr,
                                          rec.size_bytes, seq))
        expected = looped.finish(), looped.content_digest()
        for records in (trace, list(trace)):
            sim = Simulator(cfg)
            assert (sim.run(records), sim.content_digest()) == expected

    # Bloom-mode runs: the oracle differential runs with exact recency, so
    # these pins are what hold the bloom filter's answers (and the victims
    # they steer) fixed. Each report differs from its exact-recency run.
    BLOOM_GOLDEN = {
        Policy.PAGEMOVE: ("sparse-wide", {
            "elapsed_ns": 862100, "energy_total_nj": 396662.55420898437,
            "slow_writes_total": 22754, "fast_hit_fraction": 0.15166666666666667,
            "page_relocations": 663, "block_relocations": 0, "writebacks": 0,
            "recycles": 0, "migrated_bytes": 5431296, "stall_ns": 0},
            "913a0c6d0fbeda4628d4429ed05958b3e2a02543e0514905d924f62d1ca99b0f",
            "b1c61479403d6662f056c2579e13fee5a402dc122a37a229303a09552b192ade"),
        Policy.ADPCOMB: ("zipfian", {
            "elapsed_ns": 531150, "energy_total_nj": 153102.41025878908,
            "slow_writes_total": 7540, "fast_hit_fraction": 0.6415,
            "page_relocations": 216, "block_relocations": 1689, "writebacks": 10,
            "recycles": 110, "migrated_bytes": 1988096, "stall_ns": 0},
            "7e2809b9c4404e9a3a578b1f77070e42044ce11298c4c5eb824b6eb15b06e965",
            "78e884a42acc72e98ffdf80de101aab0baa34fe25c0ab66c11cb46ea2abd31ed"),
    }

    @pytest.mark.parametrize("policy", list(BLOOM_GOLDEN))
    def test_bloom_mode_golden(self, policy):
        kind, fields, digest, report_sha = self.BLOOM_GOLDEN[policy]
        cfg = small_config(policy)
        spec = WorkloadSpec(kind=kind, footprint_bytes=cfg.host_space_bytes,
                            request_count=6000, seed=7)
        sim = Simulator(cfg)
        report = sim.run(generate(spec, cfg.block_size_bytes))
        assert not report["exact_recency"]
        assert {k: report[k] for k in fields} == fields
        assert sim.content_digest() == digest
        blob = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == report_sha

    def test_unpackable_record_is_a_trace_error(self):
        sim = Simulator(small_config(Policy.PAGEMOVE))
        with pytest.raises(TraceError, match="request 1"):
            sim.run([TraceRecord("R", 0, 64), TraceRecord("R", 1 << 64, 64)])
        with pytest.raises(TraceError, match="request 0: X 0x0 64 does not"):
            sim.run([TraceRecord("X", 0, 64)])


def payload(seq, size):
    """Write `seq`'s bytes, computed byte by byte."""
    return bytes((seq + i) & 0xFF for i in range(size))


class TestWritePayload:
    reference = staticmethod(payload)

    @pytest.mark.parametrize("block", [128, 512, 4096])
    def test_every_start_and_size_up_to_a_block(self, block):
        wrong = []
        for seq in range(1000 * 256, 1001 * 256):
            expected = self.reference(seq, block)
            wrong += [(seq, size) for size in range(1, block + 1)
                      if write_payload(seq, size) != expected[:size]]
        assert not wrong

    def test_sizes_beyond_the_precomputed_pattern(self):
        for seq in (0, 1, 255, 333):
            for size in (4097, 4353, 8192, 65536):
                assert write_payload(seq, size) == self.reference(seq, size)


class TestShadowContent:
    @pytest.mark.parametrize("policy", [Policy.STATIC, Policy.PAGEMOVE,
                                        Policy.STATCOMB, Policy.ADPCOMB])
    def test_reads_match_flat_shadow(self, policy):
        cfg = small_config(policy, rng_seed=3)
        recs = random_records(8000, cfg.host_space_bytes, seed=15)
        _, rep, mismatches = shadow_run(cfg, recs)
        assert mismatches == 0
        assert rep["requests"] == len(recs)

    def test_alldram_shadow(self):
        cfg = small_config(Policy.ALLDRAM, fast_capacity_bytes=2 * 1024 ** 2,
                           slow_capacity_bytes=0)
        _, _, mismatches = shadow_run(cfg, random_records(3000, 1024 ** 2, seed=16))
        assert mismatches == 0

    def test_peek_agrees_with_dispatch_reads(self):
        cfg = small_config(Policy.STATCOMB, promotion_threshold=2, bloom_window=8)
        sim = Simulator(cfg)
        recs = random_records(2000, cfg.host_space_bytes, seed=17)
        for seq, rec in enumerate(recs):
            peeked = sim.peek(rec.host_addr, rec.size_bytes)
            out = sim.dispatch(MemoryRequest(rec.kind, rec.host_addr,
                                             rec.size_bytes, seq))
            if rec.kind == "R":
                assert out.data == peeked


def content_heap(sim, requests):
    """Run (kind, addr, size) requests; return the bytes still held that
    were allocated where the simulator stores content: page indexes, the
    `mem` dict and slot arenas."""
    spans = []
    for fn in (Simulator._page_mem, Simulator._new_slot,
               Simulator._exchange_chunks):
        lines, first = inspect.getsourcelines(fn)
        spans.append((first, first + len(lines)))
    trace = Trace(TraceRecord(*request) for request in requests)
    tracemalloc.start()
    try:
        sim.run(trace)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = 0
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        if frame.filename == core.__file__ and any(
                lo <= frame.lineno < hi for lo, hi in spans):
            held += stat.size
    return held


def wide_config(policy=Policy.STATIC, **overrides):
    # 5,120 pages of 4 KiB: 1,024 fast and 4,096 slow.
    return small_config(policy, fast_capacity_bytes=4 << 20,
                        slow_capacity_bytes=16 << 20, **overrides)


class TestContentMemory:
    """Content memory grows with the blocks a run writes, not the pages it
    touches. Budgets are the measured heap (CPython 3.11) plus a little
    headroom; a page-sized buffer per touched page would hold 4 KiB."""

    def test_sparse_run_holds_a_block_per_written_block(self):
        sim = Simulator(wide_config())
        pages = sim.config.host_space_bytes // 4096
        assert pages >= 4096
        # One line per page; measured 365 B per page and block.
        requests = [("W", p * 4096 + (p % 32) * 128 + 8, 64)
                    for p in range(pages)]
        held = content_heap(sim, requests)
        assert held <= pages * 128 + pages * 256
        assert sim.next_slot == (pages + 1) * 128

    def test_dense_run_has_almost_no_per_block_overhead(self):
        sim = Simulator(wide_config())
        blocks = 512 * 32
        # Streaming stores over 512 whole pages; measured 7.8 B per block
        # beyond its 128 data bytes (its 4 B slot reference included).
        requests = [("W", a, 128) for a in range(0, blocks * 128, 128)]
        held = content_heap(sim, requests)
        assert held <= blocks * (128 + 12)

    def test_reads_of_never_written_blocks_allocate_no_slot(self):
        sim = Simulator(wide_config())
        pages = sim.config.host_space_bytes // 4096
        requests = [("R", p * 4096 + (p % 32) * 128, 64) for p in range(pages)]
        held = content_heap(sim, requests)
        assert sim.next_slot == 128 and len(sim.arenas) == 1
        assert held <= pages * 256
        assert sim.peek(0, 4096) == bytes(4096)

    def test_slot_references_widen_for_a_large_geometry(self):
        assert Simulator(small_config())._blank_index.typecode == "I"
        # 4 GiB of 64 KiB pages: byte offsets past 2**32 need 8-byte entries.
        cfg = small_config(Policy.STATIC, page_size_bytes=64 << 10,
                           fast_capacity_bytes=64 << 20,
                           slow_capacity_bytes=4 << 30)
        sim = Simulator(cfg)
        assert sim._blank_index.typecode == "Q"
        top = cfg.host_space_bytes - 128
        sim.dispatch(MemoryRequest("W", top, 128, 5))
        assert sim.peek(top, 128) == payload(5, 128)

    def test_partial_landing_allocates_no_slot(self):
        sim = Simulator(small_config(Policy.PAGEMOVE, bloom_window=8))
        slow_page = sim.config.fast_pages + 5
        base = slow_page * 4096
        sim.dispatch(MemoryRequest("W", base + 128, 64, 0))   # starts a swap
        job = sim.engine.job
        assert job is not None and sim.next_slot == 2 * 128
        seq = 1
        while job.applied_chunks < 8:    # unrelated traffic: no landing yet
            sim.dispatch(MemoryRequest("R", 7 * 4096, 64, seq))
            seq += 1
        assert job.exchanged_chunks == 0
        out = sim.dispatch(MemoryRequest("R", base + 128, 64, seq))
        assert 0 < job.exchanged_chunks < job.total_chunks
        assert out.data == payload(0, 64)
        assert sim.next_slot == 2 * 128 and len(sim.arenas) == 1


class TestBlockContent:
    """Edge cases of block-granular content, each against a shadow."""

    @staticmethod
    def play(sim, shadow, requests, seq=0):
        for kind, addr, size in requests:
            out = sim.dispatch(MemoryRequest(kind, addr, size, seq))
            if kind == "W":
                shadow[addr:addr + size] = payload(seq, size)
            else:
                assert out.data == shadow[addr:addr + size], (seq, hex(addr))
            seq += 1
        return seq

    def test_peek_of_a_page_mixing_every_kind_of_block(self):
        cfg = small_config(Policy.STATCOMB, promotion_threshold=3,
                           bloom_window=8, dma_bandwidth_bytes_per_ns=2.0)
        sim = Simulator(cfg)
        shadow = bytearray(cfg.host_space_bytes)
        page = cfg.fast_pages + 9
        base = page * 4096
        seq = self.play(sim, shadow, [
            ("W", base + 2 * 128 + 16, 64),    # written in the page, cached
            ("W", base + 2 * 128 + 80, 16),    # cache hit: a dirty line
            ("R", base + 20 * 128, 8),         # cached clean, never written
            ("W", base + 30 * 128, 128),       # third cached block
            ("W", base + 11 * 128 + 32, 32),   # written in the page: a swap
        ])
        job = sim.engine.job
        assert job is not None and job.src_host == page
        while job.applied_chunks < 12:         # fast traffic elsewhere
            seq = self.play(sim, shadow, [("R", 3 * 4096, 8)], seq)
        # A write into a copied chunk lands the first part of the swap.
        seq = self.play(sim, shadow, [("W", base + 5 * 128 + 120, 8)], seq)
        assert 0 < job.exchanged_chunks < job.total_chunks
        assert sim.cache.peek(page * 32 + 2) is not None
        s = sim.cache._set_for(page * 32 + 2)
        assert s.dirty[sim.cache.peek(page * 32 + 2)]
        victim = job.dst_host * 4096
        for addr in (base, victim):
            assert sim.peek(addr, 4096) == shadow[addr:addr + 4096]
        while sim.engine.busy:
            seq = self.play(sim, shadow, [("R", 3 * 4096, 8)], seq)
        for addr in (base, victim):
            assert sim.peek(addr, 4096) == shadow[addr:addr + 4096]

    def test_one_byte_at_the_end_of_a_block_changes_nothing_else(self):
        cfg = small_config(Policy.STATIC)
        sim = Simulator(cfg)
        shadow = bytearray(cfg.host_space_bytes)
        seq = self.play(sim, shadow, [("W", 4096 + b * 128, 128)
                                      for b in range(32)])
        before = sim.peek(4096, 4096)
        self.play(sim, shadow, [("W", 4096 + 6 * 128 + 127, 1)], seq)
        after = sim.peek(4096, 4096)
        changed = [i for i in range(4096) if before[i] != after[i]]
        assert changed == [6 * 128 + 127]
        assert after == shadow[4096:8192]

    @pytest.mark.parametrize("policy", [Policy.STATIC, Policy.PAGEMOVE,
                                        Policy.STATCOMB])
    def test_first_write_leaves_the_zero_slot_zero(self, policy):
        cfg = small_config(policy)
        sim = Simulator(cfg)
        shadow = bytearray(cfg.host_space_bytes)
        seq = self.play(sim, shadow, [("W", 3 * 4096 + 128 + 1, 64)])
        for page in (4, 40, cfg.fast_pages + 20):
            seq = self.play(sim, shadow, [("R", page * 4096 + 7 * 128, 128)],
                            seq)
            assert sim.peek(page * 4096, 4096) == bytes(4096)

    def test_written_back_line_takes_its_own_slot(self):
        # A block read first (so its page block has no slot), then written
        # while cached, is written back on eviction into a slot of its own.
        cfg = small_config(Policy.STATCOMB, promotion_threshold=8)
        sim = Simulator(cfg)
        shadow = bytearray(cfg.host_space_bytes)
        page = cfg.fast_pages + 3
        addr = page * 4096 + 4 * 128
        seq = self.play(sim, shadow, [("R", addr, 64), ("W", addr, 64)])
        sets = sim.cache.nsets
        block_id = addr // 128
        # Four more slow blocks of the same set, from other pages, evict it.
        for k in range(1, 5):
            seq = self.play(sim, shadow, [("R", (block_id + k * sets) * 128, 8)],
                            seq)
        assert sim.cache.peek(block_id) is None
        assert sim.writebacks == 1
        for other in (page * 4096, (page + 1) * 4096, 2 * 4096):
            assert sim.peek(other, 128) == bytes(128)
        assert sim.peek(page * 4096, 4096) == shadow[page * 4096:
                                                     (page + 1) * 4096]
        self.play(sim, shadow, [("R", addr, 64), ("R", 2 * 4096, 64)], seq)


class TestLatencyDominance:
    def test_alldram_is_a_floor_for_every_policy(self):
        base = small_config(Policy.PAGEMOVE)
        # the cache zone shrinks host space for the caching policies
        space = small_config(Policy.STATCOMB).host_space_bytes
        recs = random_records(4000, space, seed=18)
        floor = sum(base.fast_read_ns if r.kind == "R" else base.fast_write_ns
                    for r in recs)
        for policy in (Policy.STATIC, Policy.PAGEMOVE, Policy.STATCOMB,
                       Policy.ADPCOMB):
            rep = run_trace(recs, small_config(policy))
            assert rep["elapsed_ns"] >= floor


class TestConfigValidation:
    def test_page_size_power_of_two(self):
        with pytest.raises(ConfigError):
            SimConfig(page_size_bytes=3000).validate()

    def test_cache_zone_only_for_caching_policies(self):
        with pytest.raises(ConfigError):
            small_config(Policy.PAGEMOVE, cache_zone_bytes=64 * 1024).validate()
        with pytest.raises(ConfigError):
            small_config(Policy.STATCOMB, cache_zone_bytes=0).validate()

    def test_cache_sets_power_of_two(self):
        with pytest.raises(ConfigError):
            small_config(Policy.STATCOMB, cache_zone_bytes=three_blocks_line())\
                .validate()

    def test_threshold_bounds(self):
        with pytest.raises(ConfigError):
            small_config(Policy.STATCOMB, promotion_threshold=0).validate()
        with pytest.raises(ConfigError):
            small_config(Policy.STATCOMB, promotion_threshold=33).validate()

    def test_bloom_window_must_fit_fast_zone(self):
        with pytest.raises(ConfigError, match="bloom"):
            small_config(Policy.PAGEMOVE, bloom_window=64).validate()

    # (kind, host page) requests; each touches block 7p mod 32 of its page.
    # The guard counts pages that hold content, read or written: the
    # request that fires it is pinned for each trace.
    GUARD_TRACES = {
        "reads": ([("R", p) for p in (0, 1, 0, 2, 1, 3, 3, 4, 0, 5, 6, 2, 7,
                                      1, 8, 9)], 14),
        "writes": ([("W", p) for p in (15, 14, 15, 13, 12, 11, 14, 10, 9, 9,
                                       8, 7, 6)], 11),
        # Reads of never-written pages count as much as writes.
        "mixed": ([("W", 0), ("R", 1), ("W", 1), ("R", 0), ("R", 2),
                   ("W", 3), ("R", 3), ("R", 4), ("W", 5), ("R", 6),
                   ("R", 5), ("W", 7), ("W", 2), ("R", 8), ("W", 9)], 13),
    }

    def test_alldram_footprint_guard(self):
        from tiersim import SimulationError
        cfg = small_config(Policy.ALLDRAM, fast_capacity_bytes=8 * 4096,
                           slow_capacity_bytes=8 * 4096)
        sim = Simulator(cfg)
        with pytest.raises(SimulationError):
            for page in range(16):
                sim.dispatch(MemoryRequest("R", page * 4096, 64, page))
        for name, (trace, fires_at) in self.GUARD_TRACES.items():
            sim = Simulator(cfg)
            served = []
            with pytest.raises(SimulationError, match="more than 8 pages"):
                for seq, (kind, page) in enumerate(trace):
                    addr = page * 4096 + (7 * page % 32) * 128
                    sim.dispatch(MemoryRequest(kind, addr, 64, seq))
                    served.append(seq)
            assert len(served) == fires_at, name


def three_blocks_line():
    # 3 sets worth of capacity: 3 * 128 * 4 (not a power-of-two set count)
    return 3 * 128 * 4


def test_page_table_dump_via_simulator():
    sim = Simulator(small_config(Policy.PAGEMOVE))
    dump = sim.pagetable.dump()
    assert dump.splitlines()[1].split()[:2] == ["0", "0"]
