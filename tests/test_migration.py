import math
import random
from fractions import Fraction

import pytest

from tiersim import MemoryRequest, Policy, Simulator, TraceRecord, core, oracle_run
from tiersim.migration import DmaEngine
from tiersim.policies import slow_touch_action

from conftest import peek_digest, random_records, small_config


def make_engine(page=4096, chunk=128, bw=8.0,
                exchange=lambda first, stop: None):
    return DmaEngine(page, chunk, bw, exchange=exchange)


class TestEngine:
    def test_swap_duration_4k_at_8_bytes_per_ns(self):
        eng = make_engine()
        eng.start_swap(10, 100, 2, 5, now_ns=0)
        assert eng.job.due_ns == 1024  # 2 * 4096 / 8

    def test_advance_zero_makes_no_progress(self):
        eng = make_engine()
        eng.start_swap(10, 100, 2, 5, now_ns=0)
        eng.advance_to(0)
        assert eng.job.applied_chunks == 0 and eng.completed_swaps == 0

    def test_advance_past_completion_clamps_and_completes(self):
        eng = make_engine()
        job = eng.start_swap(10, 100, 2, 5, now_ns=0)
        eng.advance_to(10_000)
        assert eng.job is None
        assert eng.completed_swaps == 1
        assert job.applied_chunks == 32

    def test_interleaved_advances_match_one_big_advance(self):
        rng = random.Random(5)
        for trial in range(30):
            eng_a = make_engine(bw=rng.choice([2.0, 5.0, 8.0]))
            eng_b = make_engine(bw=eng_a.bandwidth)
            job_a = eng_a.start_swap(1, 9, 0, 3, now_ns=0)
            job_b = eng_b.start_swap(1, 9, 0, 3, now_ns=0)
            t = 0
            for _ in range(rng.randrange(2, 9)):
                t += rng.randrange(0, 400)
                eng_a.advance_to(t)
            eng_a.advance_to(5000)
            eng_b.advance_to(5000)
            assert eng_a.completed_swaps == eng_b.completed_swaps == 1
            assert job_a.applied_chunks == job_b.applied_chunks

    def test_chunk_exchange_sequence(self):
        # Each advance lands the chunks it copies; locating lands nothing.
        seen = []
        eng = make_engine(exchange=lambda first, stop: seen.append((first, stop)))
        eng.start_swap(7, 80, 3, 2, now_ns=0)
        eng.advance_to(100)   # 100*8/2 = 400B -> 3 chunks copied
        assert seen == [(0, 3)]
        eng.advance_to(200)   # 800B -> 6 chunks copied
        assert eng.job.applied_chunks == 6
        assert seen == [(0, 3), (3, 6)]
        eng.advance_to(200)   # no new chunk: nothing lands
        assert seen == [(0, 3), (3, 6)]
        assert eng.locate(5, 0) is None
        assert eng.locate(7, 0) == 2
        assert eng.locate(3, 4000) == 2
        assert seen == [(0, 3), (3, 6)]   # locating lands nothing
        eng.advance_to(300)   # 1200B -> 9 chunks copied
        assert seen == [(0, 3), (3, 6), (6, 9)]
        assert eng.locate(3, 0) == 80
        eng.advance_to(10_000)
        # Completion lands the remainder and retires the job.
        assert seen == [(0, 3), (3, 6), (6, 9), (9, 32)]
        assert eng.job is None and eng.completed_swaps == 1

    def test_untouched_swap_lands_whole_at_completion(self):
        seen = []
        eng = make_engine(exchange=lambda first, stop: seen.append((first, stop)))
        job = eng.start_swap(7, 80, 3, 2, now_ns=0)
        assert eng.locate(7, 0) == 80 and eng.locate(4, 0) is None
        assert seen == [] and eng.completed_swaps == 0
        # The first advance completes the swap: one whole-page exchange.
        eng.advance_to(1024)
        assert seen == [(0, eng.total_chunks)] and eng.completed_swaps == 1
        assert job.applied_chunks == eng.total_chunks == 32
        eng.advance_to(500)   # stale, and the engine is idle: nothing lands
        assert seen == [(0, 32)] and eng.completed_swaps == 1

    def test_progress_monotone_under_time_replays(self):
        seen = []
        eng = make_engine(exchange=lambda first, stop: seen.append((first, stop)))
        eng.start_swap(7, 80, 3, 2, now_ns=0)
        eng.advance_to(100)
        chunks = eng.job.applied_chunks
        eng.advance_to(50)  # stale time must not roll progress back
        assert eng.job.applied_chunks == chunks
        assert seen == [(0, chunks)]   # nor land anything

    def test_due_is_never_after_completion(self):
        # The request path skips the engine until the clock reaches `due_ns`,
        # so a due time after the first completing ns would delay completion.
        rng = random.Random(17)
        bandwidths = ([0.1, 1 / 3, 3.0, 6.4, 7.3, 0.7, 12.8, 100.0, 2.0, 8.0]
                      + [rng.uniform(0.05, 64.0) for _ in range(150)])
        for page, chunk in ((2048, 128), (4096, 128), (65536, 256)):
            for bw in bandwidths:
                start = rng.randrange(1 << 40)
                eng = make_engine(page, chunk, bw)
                job = eng.start_swap(1, 9, 0, 3, now_ns=start)
                first = start + max(0, math.floor(2 * page / bw) - 3)
                while eng.chunks_done(first) < eng.total_chunks:
                    first += 1
                assert first - 2 <= job.due_ns <= first, (page, bw)
                # `first` is where advance_to itself completes.
                eng.advance_to(first - 1)
                assert eng.job is job and not eng.completed_swaps, (page, bw)
                eng.advance_to(first)
                assert eng.job is None and eng.completed_swaps == 1, (page, bw)

    @pytest.mark.parametrize("bw", [0.1, 0.7, 6.4, 7.3, 123.456])
    @pytest.mark.parametrize("page", [4096, 65536])
    def test_a_stall_ends_when_its_chunk_is_counted(self, page, bw):
        # At 64 KiB pages, 256 B chunks and 0.7 B/ns, float times once had
        # chunk 20 counted done at 15360 ns but its stall end at 15361.
        # Chunk i is done at the first ns each direction has moved
        # (i + 1) chunks, computed here with exact rationals.
        rate = Fraction(bw) / 2
        for chunk in (128, 256):
            eng = make_engine(page, chunk, bw)
            start = 12345
            eng.start_swap(1, 9, 0, 3, now_ns=start)
            for i in range(eng.total_chunks):
                t = eng.chunk_done_ns(i)
                assert t == start + math.ceil((i + 1) * chunk / rate), (chunk, i)
                assert eng.chunks_done(t) > i >= eng.chunks_done(t - 1), (chunk, i)
            assert eng.job.due_ns == t

    def test_chunks_done_moves_no_progress(self):
        eng = make_engine()
        eng.start_swap(7, 80, 3, 2, now_ns=100)
        assert eng.chunks_done(612) == 16     # 512 ns at 4 B/ns a direction
        assert eng.chunks_done(10_000) == 32  # complete
        assert eng.job.applied_chunks == 0 and eng.completed_swaps == 0
        eng.advance_to(612)
        assert eng.job.applied_chunks == 16

    def test_route_and_stall(self):
        eng = make_engine()
        eng.start_swap(7, 80, 3, 2, now_ns=0)
        eng.advance_to(512)  # 2048 bytes = 16 chunks
        assert eng.locate(7, 0) == 2        # copied: the new copy
        assert eng.locate(7, 2047) == 2
        assert eng.locate(7, 2048) == 80    # not yet copied: the old copy
        # chunk 16 is mid-copy: writes there wait for it
        assert eng.write_stall_ns(2048, now_ns=512) == 32  # chunk done at 544
        assert eng.write_stall_ns(4000, now_ns=512) == 0
        assert eng.write_stall_ns(0, now_ns=512) == 0

    def test_locate_both_sides(self):
        eng = make_engine()
        assert eng.locate(7, 0) is None      # idle engine: nothing in flight
        eng.start_swap(7, 80, 3, 2, now_ns=0)
        # src data moves 80 -> 2; dst data moves 2 -> 80
        assert eng.locate(7, 0) == 80
        assert eng.locate(3, 0) == 2
        assert eng.locate(5, 0) is None      # page not part of the swap
        eng.advance_to(32)                   # chunk 0 copied
        assert eng.locate(7, 0) == 2
        assert eng.locate(3, 0) == 80
        eng.advance_to(10_000)
        assert eng.locate(7, 0) is None


class TestConflictRouting:
    """Dispatch-level behavior for requests that hit pages mid-swap."""

    def _swapping_sim(self):
        sim = Simulator(small_config(Policy.PAGEMOVE, bloom_window=8))
        slow_page = sim.config.fast_pages + 5
        sim.dispatch(MemoryRequest("R", slow_page * 4096, 64, 0))
        assert sim.engine.busy
        return sim, slow_page

    def test_read_at_offset0_mid_swap_served_from_destination(self):
        sim, page = self._swapping_sim()
        # Advance half the swap with unrelated fast traffic.
        seq = 1
        while sim.ledger.total_foreground_ns - sim.engine.job.start_ns < 512:
            sim.dispatch(MemoryRequest("R", 0, 64, seq)); seq += 1
        out = sim.dispatch(MemoryRequest("R", page * 4096, 64, seq))
        assert out.device == "fast"   # low offsets already copied to fast

    def test_read_at_last_byte_at_zero_progress_served_from_source(self):
        sim, page = self._swapping_sim()
        out = sim.dispatch(MemoryRequest("R", page * 4096 + 4032, 64, 1))
        assert out.device == "slow"
        assert out.stall_ns == 0

    def test_write_into_copying_chunk_is_held(self):
        sim, page = self._swapping_sim()
        # Immediately after the triggering request the engine sits at chunk 0.
        out = sim.dispatch(MemoryRequest("W", page * 4096, 64, 1))
        assert out.stall_ns > 0
        assert sim.ledger.write_stalls == 1
        assert out.device == "fast"   # after the wait the chunk lives in fast

    def test_reads_never_stall(self):
        sim, page = self._swapping_sim()
        out = sim.dispatch(MemoryRequest("R", page * 4096, 64, 1))
        assert out.stall_ns == 0

    def test_second_swap_rejected_while_active(self):
        sim, _ = self._swapping_sim()
        other_slow = sim.config.fast_pages + 9
        out = sim.dispatch(MemoryRequest("R", other_slow * 4096, 64, 1))
        assert out.device == "slow"
        assert sim.engine.job.src_host != other_slow
        assert sim.page_relocations == 1

    def test_completion_updates_mapping_exactly_once(self):
        sim, page = self._swapping_sim()
        internal_before = sim.pagetable.lookup(page)
        assert internal_before >= sim.pagetable.fast_pages
        seq = 1
        for _ in range(40):
            sim.dispatch(MemoryRequest("R", 0, 64, seq)); seq += 1
        assert not sim.engine.busy
        assert sim.engine.completed_swaps == 1
        assert sim.pagetable.lookup(page) < sim.pagetable.fast_pages

    def test_remap_flips_in_the_advance_that_lands_the_last_chunk(self):
        sim, _ = self._swapping_sim()
        engine, job = sim.engine, sim.engine.job
        table = sim.pagetable.table
        before = table[job.src_host], table[job.dst_host]
        # All but the last chunk land: the pair keeps its mapping.
        engine.advance_to(engine.chunk_done_ns(engine.total_chunks - 2))
        assert job.applied_chunks == engine.total_chunks - 1
        assert (table[job.src_host], table[job.dst_host]) == before
        engine.advance_to(job.due_ns)
        assert engine.job is None and engine.completed_swaps == 1
        assert (table[job.dst_host], table[job.src_host]) == before

    def test_no_lost_writes_across_swap(self):
        # Write to every block while its page swaps; all data must survive.
        sim, page = self._swapping_sim()
        seq = 1
        payloads = {}
        for blk in range(32):
            addr = page * 4096 + blk * 128
            sim.dispatch(MemoryRequest("W", addr, 64, seq))
            payloads[addr] = bytes((seq + i) & 0xFF for i in range(64))
            seq += 1
        for _ in range(40):
            sim.dispatch(MemoryRequest("R", 0, 64, seq)); seq += 1
        assert not sim.engine.busy
        for addr, expect in payloads.items():
            out = sim.dispatch(MemoryRequest("R", addr, 64, seq)); seq += 1
            assert out.data == expect


class TestLazyLanding:
    """Content of an in-flight swap lands only at the lazy clock's advances,
    which the request path makes before it reads a page of the pair; it
    must read the same as an eager copy."""

    @pytest.mark.parametrize("exact", (True, False))
    @pytest.mark.parametrize("policy", (Policy.PAGEMOVE, Policy.ADPCOMB))
    def test_content_matches_oracle_mid_swap(self, policy, exact):
        cfg = small_config(policy, exact_recency=exact)
        records = list(random_records(1500, cfg.host_space_bytes, seed=23,
                                      write_fraction=0.6))
        sim = Simulator(cfg)
        checked = []
        for n, rec in enumerate(records):
            sim.dispatch(MemoryRequest(rec.kind, rec.host_addr,
                                       rec.size_bytes, n))
            job = sim.engine.job
            if (job is not None and 0 < sim.engine.chunks_done(
                    sim.ledger.total_foreground_ns) < sim.engine.total_chunks
                    and n >= (checked[-1] + 60 if checked else 0)):
                assert sim.content_digest() == \
                    oracle_run(records[:n + 1], cfg)[1], f"request {n}"
                checked.append(n)
        assert len(checked) >= 10

    @pytest.mark.parametrize("policy", (Policy.PAGEMOVE, Policy.ADPCOMB))
    def test_digest_reads_each_block_as_peek_does_mid_swap(self, policy):
        # On the in-flight pair a partial landing splits a page's blocks
        # between its two copies.
        cfg = small_config(policy)
        records = random_records(1500, cfg.host_space_bytes, seed=29,
                                 write_fraction=0.6)
        sim = Simulator(cfg)
        split = 0
        for n, rec in enumerate(records):
            sim.dispatch(MemoryRequest(rec.kind, rec.host_addr,
                                       rec.size_bytes, n))
            if sim.engine.job is not None and n % 10 == 0:
                sim.engine.advance_to(sim.ledger.total_foreground_ns)
                job = sim.engine.job
                split += (job is not None
                          and 0 < job.applied_chunks < sim.engine.total_chunks)
                assert sim.content_digest() == peek_digest(sim), f"request {n}"
        assert split >= 10

    def test_read_paths_mutate_nothing_mid_swap(self):
        sim = Simulator(small_config(Policy.PAGEMOVE, bloom_window=8))
        base = (sim.config.fast_pages + 5) * 4096
        sim.dispatch(MemoryRequest("W", base + 128, 64, 0))   # starts a swap
        job, engine = sim.engine.job, sim.engine
        victim = job.dst_host * 4096
        sim.dispatch(MemoryRequest("W", victim + 128, 32, 1))
        seq = 2
        while engine.chunks_done(sim.ledger.total_foreground_ns) < 8:
            sim.dispatch(MemoryRequest("R", 7 * 4096, 64, seq))
            seq += 1
        # Catch the engine up without locating a page of the pair.
        engine.advance_to(sim.ledger.total_foreground_ns)
        assert 0 < job.applied_chunks < sim.blocks_per_page

        def state():
            return ({page: index[:] for page, index in sim.mem.items()},
                    {n: bytes(arena) for n, arena in sim.arenas.items()},
                    job.applied_chunks)

        before = state()
        assert sim.peek(base, 4096)[128:192] == core.write_payload(0, 64)
        assert sim.peek(victim + 128, 32) == core.write_payload(1, 32)
        sim.content_digest()
        assert engine.locate(job.src_host, 128) == job.dst_internal
        assert engine.locate(job.dst_host, 4095) == job.dst_internal
        assert state() == before
        assert engine.job is job

    def test_untouched_victim_stays_unallocated(self):
        sim = Simulator(small_config(Policy.PAGEMOVE, bloom_window=8))
        slow_page = sim.config.fast_pages + 5
        sim.dispatch(MemoryRequest("W", slow_page * 4096, 64, 0))
        job = sim.engine.job
        victim_internal = job.dst_internal
        assert victim_internal not in sim.mem
        promoted = sim.mem[job.src_internal]
        other = 7 if job.dst_host != 7 else 8
        seq = 1
        while sim.engine.busy:   # unrelated traffic until the swap completes
            sim.dispatch(MemoryRequest("R", other * 4096, 64, seq)); seq += 1
        # The buffers were traded, not copied: the victim's new home holds
        # no buffer and still reads as zeros.
        assert job.src_internal not in sim.mem
        assert sim.mem[victim_internal] is promoted
        assert sim.pagetable.lookup(job.dst_host) == job.src_internal
        assert sim.peek(job.dst_host * 4096, 4096) == bytes(4096)


def test_block_copies_coexist_with_active_swap():
    # A page swap occupies the engine, but 128 B block transfers still run.
    cfg = small_config(Policy.STATCOMB, promotion_threshold=1, bloom_window=8)
    sim = Simulator(cfg)
    page_a = cfg.fast_pages + 1
    page_b = cfg.fast_pages + 2
    sim.dispatch(MemoryRequest("R", page_a * 4096, 64, 0))        # copy in
    sim.dispatch(MemoryRequest("R", page_a * 4096 + 128, 64, 1))  # promote
    assert sim.engine.busy
    sim.dispatch(MemoryRequest("R", page_b * 4096, 64, 2))
    assert sim.engine.busy
    assert sim.cache.peek(page_b * 32) is not None
    assert sim.block_relocations == 2


def test_migrated_byte_accounting():
    sim = Simulator(small_config(Policy.STATCOMB, promotion_threshold=2,
                                 bloom_window=8))
    rng = random.Random(0)
    seq = 0
    for _ in range(4000):
        page = rng.randrange(sim.config.total_pages)
        addr = page * 4096 + rng.randrange(32) * 128
        sim.dispatch(MemoryRequest(rng.choice("RW"), addr, 64, seq))
        seq += 1
    rep = sim.finish()
    # Dirty recycle merges are the fast-write migration units not explained
    # by block copy-ins or swap traffic (clean recycles move no bytes).
    dirty_merges = (rep["mig_fast_writes"] - rep["block_relocations"]
                    - 32 * rep["page_relocations"])
    assert dirty_merges >= 0
    page_bytes = 2 * 4096 * rep["page_relocations"]
    block_bytes = 128 * (rep["block_relocations"] + rep["writebacks"]
                         + dirty_merges)
    assert rep["migrated_bytes"] == page_bytes + block_bytes
    assert rep["mig_slow_writes"] == 32 * rep["page_relocations"] + rep["writebacks"]


class TestLazyClock:
    """A busy engine is caught up only where its progress is read: at a page
    of the in-flight pair, a write stall, a victim write-back and
    completion."""

    @staticmethod
    def counted_run(monkeypatch, cfg, n, seed):
        records = random_records(n, cfg.host_space_bytes, seed=seed)
        expected = Simulator(cfg).run(records)
        sim = Simulator(cfg)
        advances = []
        busy_at_decision = []
        advance_to = DmaEngine.advance_to

        def counted_advance(engine, now_ns):
            advances.append(now_ns)
            return advance_to(engine, now_ns)

        def counted_action(*args):
            busy_at_decision.append(sim.engine.busy)
            return slow_touch_action(*args)

        monkeypatch.setattr(DmaEngine, "advance_to", counted_advance)
        monkeypatch.setattr(core, "slow_touch_action", counted_action)
        busy_requests = pair_touches = 0
        page = cfg.page_size_bytes
        for seq, rec in enumerate(records):
            job = sim.engine.job
            if job is not None:
                busy_requests += 1
                pair_touches += rec.host_addr // page in (job.src_host,
                                                          job.dst_host)
            sim.dispatch(MemoryRequest(rec.kind, rec.host_addr,
                                       rec.size_bytes, seq))
        report = sim.finish()
        assert report == expected
        return report, advances, busy_at_decision, busy_requests, pair_touches

    def test_pagemove_advances_once_per_swap_and_pair_touch(self, monkeypatch):
        cfg = small_config(Policy.PAGEMOVE, bloom_window=8,
                           dma_bandwidth_bytes_per_ns=2.0)
        report, advances, decisions, busy, pair = self.counted_run(
            monkeypatch, cfg, 4000, seed=31)
        swaps = report["page_relocations"]
        assert swaps > 100
        # A stalled write catches the engine up a second time.
        assert len(advances) <= swaps + pair + report["write_stalls"]
        assert len(advances) < busy / 4   # far fewer than busy requests
        # A busy engine refuses every swap, and pagemove has no cache, so
        # the policy is only asked while the engine is idle.
        assert not any(decisions)
        assert len(decisions) == swaps

    def test_adpcomb_still_decides_while_the_engine_is_busy(self, monkeypatch):
        cfg = small_config(Policy.ADPCOMB, bloom_window=8,
                           dma_bandwidth_bytes_per_ns=2.0)
        report, advances, decisions, busy, _ = self.counted_run(
            monkeypatch, cfg, 4000, seed=31)
        assert report["page_relocations"] > 10
        assert report["block_relocations"] > 100
        # Block copies do not need the engine, so they still reach the policy.
        assert any(decisions)
        assert len(advances) < busy / 4

    def test_victim_write_back_sees_progress_since_the_last_pair_touch(self):
        # A dirty cache line of the page being promoted is evicted after
        # its chunk was copied, with no request to the pair in between: the
        # write-back must land in the page's new, fast copy.
        cfg = small_config(Policy.STATCOMB, promotion_threshold=2,
                           bloom_window=8, dma_bandwidth_bytes_per_ns=0.5)
        page = cfg.fast_pages + 9
        sets_apart = cfg.cache_sets // cfg.blocks_per_page   # same cache set
        records = [TraceRecord("W", page * 4096, 64),         # copied in
                   TraceRecord("W", page * 4096 + 8, 8),      # dirty line
                   TraceRecord("R", page * 4096 + 128, 8),    # copied in
                   TraceRecord("R", page * 4096 + 256, 8)]    # swap starts
        records += [TraceRecord("R", 3 * 4096, 8)] * 20       # chunk 0 copies
        records += [TraceRecord("R", (page + k * sets_apart) * 4096, 8)
                    for k in (1, 2, 3, 4)]                    # the 4th evicts
        sim = Simulator(cfg)
        for seq, rec in enumerate(records[:4]):
            sim.dispatch(MemoryRequest(rec.kind, rec.host_addr,
                                       rec.size_bytes, seq))
        job = sim.engine.job
        assert job is not None and job.src_host == page
        for seq, rec in enumerate(records[4:], 4):
            sim.dispatch(MemoryRequest(rec.kind, rec.host_addr,
                                       rec.size_bytes, seq))
        assert sim.engine.job is job and 0 < job.applied_chunks
        assert sim.cache.peek(page * cfg.blocks_per_page) is None
        assert (sim.recycles, sim.writebacks) == (1, 0)
        report = sim.finish()
        assert (report, sim.content_digest()) == oracle_run(records, cfg)
