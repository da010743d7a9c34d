"""The request loop `Simulator._serve`: request validation, the gated access
bitmap, batch splits, the per-page footprint walk and the digest, and a guard
on how many Python calls a request costs."""

import gc
import hashlib
import random
import sys
from collections import deque

import pytest

from tiersim import (MemoryRequest, Policy, Simulator, Trace, TraceError,
                     WorkloadSpec, generate, load_trace)
from tiersim.pagetable import PageTable
from tiersim.recency import ExactRecencyFilter, make_recency_filter

from conftest import (ReferenceBloom, peek_digest, random_records,
                      small_config)


def dispatch_all(sim, trace):
    for seq, (kind, addr, size) in enumerate(
            zip(trace.kinds, trace.addrs, trace.sizes)):
        sim.dispatch(MemoryRequest(kind, addr, size, seq))


def precedence_cases(space):
    """(address, size, message): each request also fails every check after
    the one its message names, so the order of the checks shows."""
    return [
        (space + 0x60, 0, "bad size 0"),
        (space + 0x60, 300, "bad size 300"),
        (space + 0x60, 64, "crosses a block boundary"),
        (space - 0x20, 64, "crosses a block boundary"),
        (space, 64, f"address {space:#x} beyond configured capacity"),
        (space - 0x40, 128, "crosses a block boundary"),
    ]


class TestValidation:
    def test_run_names_the_first_request_that_crosses_a_block(self, tmp_trace):
        # Loaded at 256-byte blocks, the line at 0x11f0 splits in two and
        # the line at 0x3340 stays whole, though it crosses a 128-byte
        # block: it is request 4, on the file's fourth line.
        path = tmp_trace(["R 0x0 64", "W 0x11f0 32", "R 0x2100 64",
                          "W 0x3340 128", "R 0x4080 8"])
        trace = load_trace(path, block_bytes=256)
        assert list(trace.sizes) == [64, 16, 16, 64, 128, 8]
        for exact in (False, True):
            cfg = small_config(Policy.PAGEMOVE, exact_recency=exact)
            sim = Simulator(cfg)
            with pytest.raises(TraceError,
                               match=r"^request 4: crosses a block boundary$"):
                sim.run(trace)
            # The four requests before it were served.
            assert sim.ledger.total_foreground_ns > 0
            assert sum(sim.touched) == 4
            # And recorded for the victim search, as if one at a time;
            # request 4, alone on page 3, was not.
            fed = make_recency_filter(cfg.bloom_window, exact, cfg.total_pages)
            for addr in trace.addrs[:4]:
                fed.record((addr >> 12,))
            pages = range(cfg.total_pages)
            answers = [page in sim.pagetable.recency for page in pages]
            assert answers == [page in fed for page in pages]
            assert answers[:3] == [True] * 3
            if exact:
                assert not answers[3]

    @pytest.mark.parametrize("policy", [Policy.STATIC, Policy.ADPCOMB])
    def test_size_then_crossing_then_capacity_in_dispatch(self, policy):
        sim = Simulator(small_config(policy))
        space = sim.host_space_bytes
        for addr, size, message in precedence_cases(space):
            with pytest.raises(TraceError, match=f"^request 7: {message}"):
                sim.dispatch(MemoryRequest("W", addr, size, 7))
        with pytest.raises(TraceError, match="^request 7: address -0x80 beyond"):
            sim.dispatch(MemoryRequest("R", -0x80, 64, 7))
        # Nothing was served, so nothing was counted.
        assert sim.finish()["requests"] == 0
        assert not any(sim.touched)

    @pytest.mark.parametrize("policy", [Policy.STATIC, Policy.ADPCOMB])
    def test_size_then_crossing_then_capacity_in_run(self, policy):
        space = small_config(policy).host_space_bytes
        for addr, size, message in precedence_cases(space):
            trace = Trace()
            trace.append("R", 0x100, 64)
            trace.append("W", 0x200, 64)
            trace.append("R", addr, size)
            with pytest.raises(TraceError, match=f"^request 2: {message}"):
                Simulator(small_config(policy)).run(trace)


class TestAccessBitmap:
    @pytest.mark.parametrize("policy, overrides", [
        (Policy.STATIC, {}), (Policy.PAGEMOVE, {}), (Policy.STATCOMB, {}),
        (Policy.ADPCOMB, {"adaptive_window_pages": 0})])
    def test_no_reader_no_bitmap(self, policy, overrides):
        cfg = small_config(policy, promotion_threshold=2, **overrides)
        trace = random_records(3000, cfg.host_space_bytes, seed=41)
        ran = Simulator(cfg)
        report = ran.run(trace)
        assert report["requests"] == 3000
        assert not any(ran.pagetable.bitmap)
        looped = Simulator(cfg)
        dispatch_all(looped, trace)
        assert not any(looped.pagetable.bitmap)

    def test_adaptive_bitmap_is_what_record_access_builds(self):
        cfg = small_config(Policy.ADPCOMB, promotion_threshold=2,
                           adaptive_window_pages=4)
        spec = WorkloadSpec(kind="zipfian", footprint_bytes=cfg.host_space_bytes,
                            request_count=4000, seed=42)
        trace = Trace(generate(spec, cfg.block_size_bytes))
        sim = Simulator(cfg)
        ref = PageTable(cfg.fast_pages, cfg.total_pages, cfg.blocks_per_page,
                        ExactRecencyFilter(cfg.bloom_window))
        promotions = 0
        for seq, (kind, addr, size) in enumerate(
                zip(trace.kinds, trace.addrs, trace.sizes)):
            sim.dispatch(MemoryRequest(kind, addr, size, seq))
            host_page, offset = divmod(addr, cfg.page_size_bytes)
            ref.record_access(host_page, offset // cfg.block_size_bytes)
            if sim.page_relocations > promotions:
                # A swap starts on the touching request's page, after the
                # touch is recorded, and clears that page's bitmap.
                promotions = sim.page_relocations
                ref.reset_bitmap(host_page)
            assert sim.pagetable.bitmap[host_page] == ref.bitmap[host_page], seq
        assert promotions > 20 and sim.controller.promotions == promotions
        assert sim.pagetable.bitmap == ref.bitmap
        ran = Simulator(cfg)
        ran.run(trace)
        assert ran.pagetable.bitmap == ref.bitmap


class TestBatchSplits:
    """Serving a trace in `_serve` batches gives the report and digest of
    one `run`, wherever the batches split it: the loop binds its state and
    feeds the recency filter once per batch. After each batch the filter
    answers as a reference model fed the batches' pages one at a time."""

    @staticmethod
    def recency_reference(sim, trace, exact):
        """A check of `sim`'s filter against a model fed requests [0, end)
        one page at a time, over a few fixed pages and the recent ones.
        Only a migrating policy searches, so only its filter is checked."""
        if not sim.migrating:
            return lambda end: None
        window = sim.config.bloom_window
        model = (deque(maxlen=window) if exact else
                 ReferenceBloom(window, sim.pagetable.recency.nbits,
                                sim.pagetable.recency.k))
        record = model.append if exact else model.record
        pages = [addr >> 12 for addr in trace.addrs]
        fixed = random.Random(47).sample(range(sim.config.total_pages), 24)
        fed = 0

        def check(end):
            nonlocal fed
            for page in pages[fed:end]:
                record(page)
            fed = end
            for page in fixed + pages[max(0, end - 3 * window):end + 1]:
                assert (page in sim.pagetable.recency) == (page in model), end

        return check

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("policy", list(Policy))
    def test_any_split_serves_like_one_run(self, policy, exact):
        cfg = small_config(policy, promotion_threshold=2, bloom_window=8,
                           dma_bandwidth_bytes_per_ns=2.0, exact_recency=exact)
        if policy is Policy.ALLDRAM:
            cfg = small_config(policy, fast_capacity_bytes=1280 * 1024,
                               slow_capacity_bytes=0, bloom_window=8,
                               exact_recency=exact)
        n = 1500
        trace = random_records(n, cfg.host_space_bytes, seed=45)
        whole = Simulator(cfg)
        expected = whole.run(trace), whole.content_digest()
        self.recency_reference(whole, trace, exact)(n)

        # Batches of one, through `dispatch`; note the swap starts.
        looped = Simulator(cfg)
        swap_starts = []
        for seq, rec in enumerate(trace):
            swaps = looped.page_relocations
            looped.dispatch(MemoryRequest(rec.kind, rec.host_addr,
                                          rec.size_bytes, seq))
            if looped.page_relocations > swaps:
                swap_starts.append(seq)
        assert (looped.finish(), looped.content_digest()) == expected
        assert bool(swap_starts) == looped.migrating
        self.recency_reference(looped, trace, exact)(n)

        # Batches that end right before a swap start, and batches that span
        # three or more generations of the filter.
        window = cfg.bloom_window
        rng = random.Random(46)
        cuts = set(swap_starts[::7]) | {rng.randrange(n) for _ in range(12)}
        bounds = sorted(cuts | {0, n})
        batches = list(zip(bounds, bounds[1:]))
        assert any(b - a > 2 * window for a, b in batches)
        split = Simulator(cfg)
        check = self.recency_reference(split, trace, exact)
        kinds, addrs, sizes = trace.kinds, trace.addrs, trace.sizes
        for a, b in batches:
            split._serve(kinds[a:b], addrs[a:b], sizes[a:b], a)
            check(b)
        assert (split.finish(), split.content_digest()) == expected


class TestFootprint:
    @pytest.mark.parametrize("blocks_per_page", [1, 2, 32])
    @pytest.mark.parametrize("policy", [Policy.STATIC, Policy.PAGEMOVE])
    def test_footprint_and_digest_walk_touched_pages(self, policy,
                                                     blocks_per_page):
        page = 128 * blocks_per_page
        # A one-block page caps every threshold at 1.
        cfg = small_config(policy, page_size_bytes=page, promotion_threshold=1,
                           adaptive_min_threshold=1, adaptive_max_threshold=1,
                           dma_bandwidth_bytes_per_ns=0.25)
        space = cfg.host_space_bytes
        trace = random_records(1500, space, seed=43, page_bytes=page)
        trace.append("W", space - 8, 8)      # the last byte of the last block
        sim = Simulator(cfg)
        dispatch_all(sim, trace)
        assert sim.touched[-1]
        if policy is Policy.PAGEMOVE:
            # The digest reads the in-flight pair through the engine.
            assert sim.engine.busy
        assert sim.content_digest() == peek_digest(sim)
        expected = len({addr // page for addr in trace.addrs})
        assert expected < cfg.total_pages
        assert sim.finish()["footprint_pages"] == expected
        assert sim.content_digest() == peek_digest(sim)

    def test_digest_of_a_partly_landed_pair(self):
        sim = Simulator(small_config(Policy.PAGEMOVE, bloom_window=8))
        base = (sim.config.fast_pages + 5) * 4096
        sim.dispatch(MemoryRequest("W", base + 128, 64, 0))   # starts a swap
        job = sim.engine.job
        victim = job.dst_host * 4096
        sim.dispatch(MemoryRequest("W", victim + 128, 32, 1))
        seq = 2
        while sim.engine.chunks_done(sim.ledger.total_foreground_ns) < 8:
            sim.dispatch(MemoryRequest("R", 7 * 4096, 64, seq))
            seq += 1
        sim.dispatch(MemoryRequest("R", base + 9 * 128, 64, seq))
        # Block 1 of each page now sits in the other page's index.
        assert 0 < job.applied_chunks < sim.engine.total_chunks
        assert sim.content_digest() == peek_digest(sim)

    def test_untouched_simulator(self):
        sim = Simulator(small_config(Policy.STATIC))
        assert sim.finish()["footprint_pages"] == 0
        assert sim.content_digest() == hashlib.sha256().hexdigest()


# Python-level calls per request over `CALL_REQUESTS` seeded requests,
# `Simulator.run` and its report included, as measured once a request with
# no policy action made no call, a block copy-in read its slot in one call
# and a write-back found its tier with no call. A new per-request call layer
# adds at least one.
CALL_REQUESTS = 4000
CALLS_PER_REQUEST = {
    Policy.STATIC: 0.066,
    Policy.PAGEMOVE: 2.51475,
    Policy.STATCOMB: 4.7915,
    Policy.ADPCOMB: 4.96175,
    Policy.ALLDRAM: 0.066,
}
HEADROOM = 1.10


def calls_per_request(cfg, trace):
    sim = Simulator(cfg)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection could run some other object's finalizer mid-run.
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        sim.run(trace)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls / len(trace)


@pytest.mark.parametrize("policy", list(Policy))
def test_python_calls_per_request(policy):
    cfg = small_config(policy, promotion_threshold=2)
    if policy is Policy.ALLDRAM:
        cfg = small_config(policy, fast_capacity_bytes=1280 * 1024,
                           slow_capacity_bytes=0)
    spec = WorkloadSpec(kind="zipfian", footprint_bytes=cfg.host_space_bytes,
                        request_count=CALL_REQUESTS, seed=44)
    trace = Trace(generate(spec, cfg.block_size_bytes))
    measured = calls_per_request(cfg, trace)
    # The same trace always makes the same calls.
    assert calls_per_request(cfg, trace) == measured
    assert measured <= CALLS_PER_REQUEST[policy] * HEADROOM, measured
