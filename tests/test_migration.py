import random

import pytest

from tiersim import MemoryRequest, Policy, Simulator, oracle_run
from tiersim.migration import DmaEngine

from conftest import random_records, small_config


def make_engine(page=4096, chunk=128, bw=8.0, exchange=None):
    done = []
    eng = DmaEngine(page, chunk, bw, on_complete=done.append,
                    exchange=exchange)
    return eng, done


class TestEngine:
    def test_swap_duration_4k_at_8_bytes_per_ns(self):
        eng, _ = make_engine()
        eng.start_swap(10, 100, 2, 5, now_ns=0)
        assert eng.completion_ns() == 1024  # 2 * 4096 / 8

    def test_advance_zero_makes_no_progress(self):
        eng, done = make_engine()
        eng.start_swap(10, 100, 2, 5, now_ns=0)
        eng.advance_to(0)
        assert eng.job.applied_chunks == 0 and not done

    def test_advance_past_completion_clamps_and_completes(self):
        eng, done = make_engine()
        eng.start_swap(10, 100, 2, 5, now_ns=0)
        eng.advance_to(10_000)
        assert eng.job is None
        assert len(done) == 1
        assert done[0].applied_chunks == 32

    def test_interleaved_advances_match_one_big_advance(self):
        rng = random.Random(5)
        for trial in range(30):
            eng_a, done_a = make_engine(bw=rng.choice([2.0, 5.0, 8.0]))
            eng_b, done_b = make_engine(bw=eng_a.bandwidth)
            eng_a.start_swap(1, 9, 0, 3, now_ns=0)
            eng_b.start_swap(1, 9, 0, 3, now_ns=0)
            t = 0
            for _ in range(rng.randrange(2, 9)):
                t += rng.randrange(0, 400)
                eng_a.advance_to(t)
            eng_a.advance_to(5000)
            eng_b.advance_to(5000)
            assert bool(done_a) == bool(done_b) == True
            assert done_a[0].applied_chunks == done_b[0].applied_chunks

    def test_chunk_exchange_sequence(self):
        # Chunks land in the content model lazily: when a page of the pair
        # is located, or when the swap completes.
        seen = []
        eng, done = make_engine(exchange=lambda first, stop: seen.append((first, stop)))
        eng.on_complete = lambda job: done.append(list(seen))
        eng.start_swap(7, 80, 3, 2, now_ns=0)
        eng.advance_to(100)   # 100*8/2 = 400B -> 3 chunks copied
        eng.advance_to(200)   # 800B -> 6 chunks copied
        assert eng.job.applied_chunks == 6
        assert seen == []     # the pair is untouched: nothing lands yet
        assert eng.locate(5, 0) is None
        assert seen == []     # an unrelated page lands nothing
        assert eng.locate(7, 0) == 2
        assert seen == [(0, 6)]
        assert eng.locate(3, 4000) == 2
        assert seen == [(0, 6)]   # a second locate at the same time: nothing
        assert eng.job.exchanged_chunks == 6
        eng.advance_to(300)   # 1200B -> 9 chunks copied
        assert seen == [(0, 6)]
        assert eng.locate(3, 0) == 80
        assert seen == [(0, 6), (6, 9)]
        eng.advance_to(10_000)
        # Completion lands the remainder before on_complete runs.
        assert seen == [(0, 6), (6, 9), (9, 32)]
        assert done == [[(0, 6), (6, 9), (9, 32)]]

    def test_untouched_swap_lands_whole_at_completion(self):
        seen = []
        eng, done = make_engine(exchange=lambda first, stop: seen.append((first, stop)))
        eng.start_swap(7, 80, 3, 2, now_ns=0)
        for t in range(0, 1024, 32):
            eng.advance_to(t)
            assert eng.locate(4, 0) is None
        assert seen == [] and not done
        eng.advance_to(1024)
        assert seen == [(0, 32)] and len(done) == 1
        assert done[0].exchanged_chunks == done[0].applied_chunks == 32

    def test_progress_monotone_under_time_replays(self):
        eng, _ = make_engine()
        eng.start_swap(7, 80, 3, 2, now_ns=0)
        eng.advance_to(100)
        chunks = eng.job.applied_chunks
        eng.advance_to(50)  # stale time must not roll progress back
        assert eng.job.applied_chunks == chunks

    def test_route_and_stall(self):
        eng, _ = make_engine()
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
        eng, _ = make_engine()
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
        assert not sim.pagetable.in_fast(internal_before)
        seq = 1
        for _ in range(40):
            sim.dispatch(MemoryRequest("R", 0, 64, seq)); seq += 1
        assert not sim.engine.busy
        assert sim.engine.completed_swaps == 1
        assert sim.pagetable.in_fast(sim.pagetable.lookup(page))

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
    """Content of an in-flight swap lands only when the pair is located or
    the swap completes; it must read the same as an eager copy."""

    @pytest.mark.parametrize("exact", (True, False))
    @pytest.mark.parametrize("policy", (Policy.PAGEMOVE, Policy.ADPCOMB))
    def test_content_matches_oracle_mid_swap(self, policy, exact):
        cfg = small_config(policy, exact_recency=exact)
        records = random_records(1500, cfg.host_space_bytes, seed=23,
                                 write_fraction=0.6)
        sim = Simulator(cfg)
        checked = []
        for n, rec in enumerate(records):
            sim.dispatch(MemoryRequest(rec.kind, rec.host_addr,
                                       rec.size_bytes, n))
            job = sim.engine.job
            if (job is not None and 0 < job.applied_chunks < job.total_chunks
                    and n >= (checked[-1] + 60 if checked else 0)):
                assert sim.content_digest() == \
                    oracle_run(records[:n + 1], cfg)[1], f"request {n}"
                checked.append(n)
        assert len(checked) >= 10

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