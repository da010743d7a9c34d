"""Top-level simulator: one request path over the page table, block cache,
migration engine, policy layer and meters.

Each request first lets the DMA engine catch up and records the access.
A resident cache copy of the block is then served from fast memory, unless
its page was promoted and is not in flight, in which case the line is
recycled into the page. Next the engine locates the copy of an in-flight
page that holds the byte (a write to the chunk being copied stalls until it
lands); otherwise the remap table gives the page. A touch served from a slow
page that is not in flight asks the policy for a swap or a block copy.
All-DRAM is the same path over an identity table whose pages are all fast.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .config import CACHING, MIGRATING, Policy, SimConfig
from .metering import REPORT_SCHEMA_VERSION, MeterLedger, gib
from .migration import DmaEngine
from .pagetable import PageTable
from .policies import COPY_BLOCK, TRY_SWAP, make_controller, slow_touch_action
from .recency import make_recency_filter
from .subcache import BlockCache
from .trace import TraceError


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class MemoryRequest:
    kind: str              # "R" or "W"
    host_addr: int
    size_bytes: int
    seq: int


@dataclass
class ServiceOutcome:
    seq: int
    device: str            # "fast" or "slow"
    latency_ns: int
    stall_ns: int = 0
    data: bytes | None = None


def write_payload(seq: int, size: int) -> bytes:
    """Deterministic bytes carried by write `seq`; tests recompute these."""
    return bytes((seq + i) & 0xFF for i in range(size))


class Simulator:
    def __init__(self, config: SimConfig):
        self.config = config.validate()
        cfg = self.config
        self.ledger = MeterLedger(cfg)
        self.blocks_per_page = cfg.blocks_per_page
        # All-DRAM maps a host space larger than its fast capacity, so only
        # there can a trace's footprint outgrow the pages that exist.
        self.capacity_pages = (cfg.fast_capacity_bytes // cfg.page_size_bytes
                               + cfg.slow_pages)
        self.mem = {}                  # internal page -> bytearray
        self.touched_blocks = set()    # host block ids
        self.requests = 0
        self.reads = 0
        self.writes = 0
        self.page_relocations = 0
        self.block_relocations = 0
        self.writebacks = 0
        self.recycles = 0

        recency = make_recency_filter(cfg.bloom_window, cfg.exact_recency)
        shuffle_seed = cfg.rng_seed if cfg.policy is Policy.STATIC else None
        self.pagetable = PageTable(cfg.fast_pages, cfg.total_pages,
                                   cfg.blocks_per_page, recency,
                                   static_shuffle_seed=shuffle_seed)
        self.engine = DmaEngine(cfg.page_size_bytes, cfg.block_size_bytes,
                                cfg.dma_bandwidth_bytes_per_ns,
                                on_complete=self._swap_completed,
                                exchange=self._exchange_chunk)
        self.controller = make_controller(cfg)
        self.cache = (BlockCache(cfg.cache_sets, cfg.cache_ways,
                                 cfg.block_size_bytes)
                      if cfg.policy in CACHING else None)
        if cfg.policy in MIGRATING:
            self.pagetable.search_candidate()

    # Content helpers ---------------------------------------------------

    def _page_mem(self, internal_page: int) -> bytearray:
        buf = self.mem.get(internal_page)
        if buf is None:
            if len(self.mem) >= self.capacity_pages:
                raise SimulationError(
                    "all-DRAM run needs fast capacity >= trace footprint "
                    f"(more than {self.capacity_pages} pages touched)")
            buf = bytearray(self.config.page_size_bytes)
            self.mem[internal_page] = buf
        return buf

    def _exchange_chunk(self, chunk_index: int):
        job = self.engine.job
        a = self._page_mem(job.src_internal)
        b = self._page_mem(job.dst_internal)
        lo = chunk_index * self.config.block_size_bytes
        hi = lo + self.config.block_size_bytes
        a[lo:hi], b[lo:hi] = b[lo:hi], a[lo:hi]

    def _swap_completed(self, job):
        self.pagetable.swap_mappings(job.src_host, job.dst_host)

    def _locate(self, host_page: int, offset_in_page: int) -> int:
        """Internal page holding this byte of `host_page` right now."""
        internal = self.engine.locate(host_page, offset_in_page)
        if internal is None:
            return self.pagetable.lookup(host_page)
        return internal

    # Dispatch ------------------------------------------------------------

    def dispatch(self, request: MemoryRequest) -> ServiceOutcome:
        cfg = self.config
        kind, addr, size, seq = (request.kind, request.host_addr,
                                 request.size_bytes, request.seq)
        if size <= 0 or size > cfg.block_size_bytes:
            raise TraceError(f"request {seq}: bad size {size}")
        if addr // cfg.block_size_bytes != (addr + size - 1) // cfg.block_size_bytes:
            raise TraceError(f"request {seq}: crosses a block boundary")
        if addr < 0 or addr + size > cfg.host_space_bytes:
            raise TraceError(
                f"request {seq}: address {addr:#x} beyond configured capacity "
                f"({cfg.host_space_bytes:#x})")

        self.requests += 1
        if kind == "R":
            self.reads += 1
        else:
            self.writes += 1

        host_page = addr // cfg.page_size_bytes
        offset_in_page = addr % cfg.page_size_bytes
        block_index = offset_in_page // cfg.block_size_bytes
        block_id = addr // cfg.block_size_bytes
        self.touched_blocks.add(block_id)

        engine = self.engine
        ledger = self.ledger
        engine.advance_to(ledger.total_foreground_ns)
        self.pagetable.record_access(host_page, block_index)
        loc = engine.locate(host_page, offset_in_page) if engine.job else None
        in_flight = loc is not None
        internal = loc if in_flight else self.pagetable.lookup(host_page)

        # The cache copy, when present, is always the authoritative one.
        # Once its page is promoted and no longer in flight, it is recycled.
        if self.cache is not None:
            way = self.cache.lookup(block_id)
            if way is not None:
                if in_flight or not self.pagetable.in_fast(internal):
                    line = self.cache.line(block_id, way, write=kind == "W")
                    return self._serve(kind, "fast", line,
                                       addr % cfg.block_size_bytes, size, seq)
                dirty, data = self.cache.invalidate(block_id, way)
                self.pagetable.drop_cached_block(host_page)
                self.recycles += 1
                if dirty:
                    self._write_back(internal, block_id, data)

        stall = 0
        if in_flight and kind == "W":
            stall = engine.write_stall_ns(offset_in_page,
                                          ledger.total_foreground_ns)
            if stall:
                ledger.charge_stall(stall)
                engine.advance_to(ledger.total_foreground_ns)
                internal = self._locate(host_page, offset_in_page)

        tier = "fast" if self.pagetable.in_fast(internal) else "slow"
        outcome = self._serve(kind, tier, self._page_mem(internal),
                              offset_in_page, size, seq, stall)
        if tier == "slow" and not in_flight:
            self._slow_policy_actions(host_page, internal, block_id,
                                      offset_in_page)
        return outcome

    def _serve(self, kind, tier, buf, offset, size, seq, stall=0):
        """Charge a foreground access and move its bytes in a page or line."""
        data = None
        if kind == "R":
            latency = self.ledger.charge(tier, "read", True, size)
            data = bytes(buf[offset:offset + size])
        else:
            latency = self.ledger.charge(tier, "write", True, size)
            buf[offset:offset + size] = write_payload(seq, size)
        return ServiceOutcome(seq, tier, latency, stall_ns=stall, data=data)

    def _write_back(self, internal, block_id, data) -> str:
        """Merge a dirty cache line into its page as background traffic;
        returns the tier written."""
        lo = (block_id % self.blocks_per_page) * self.config.block_size_bytes
        self._page_mem(internal)[lo:lo + len(data)] = data
        tier = "fast" if self.pagetable.in_fast(internal) else "slow"
        self.ledger.charge(tier, "write", False, len(data))
        self.ledger.charge_migrated(len(data))
        return tier

    # Policy side effects ---------------------------------------------------

    def _live_threshold(self) -> int:
        if self.controller is not None:
            return self.controller.threshold
        return self.config.promotion_threshold

    def _slow_policy_actions(self, host_page, internal, block_id,
                             offset_in_page):
        action = slow_touch_action(self.config.policy,
                                   self.pagetable.cached_blocks[host_page],
                                   self._live_threshold())
        if action == TRY_SWAP:
            if not self.engine.busy and self.pagetable.candidate is not None:
                self._start_swap(host_page, internal)
        elif action == COPY_BLOCK:
            self._copy_block_in(host_page, internal, block_id, offset_in_page)

    def _start_swap(self, host_page, internal):
        dst_host, dst_internal = self.pagetable.take_candidate()
        if self.controller is not None:
            self.controller.on_promotion(
                self.pagetable.bitmap_popcount(host_page))
        self.pagetable.reset_bitmap(host_page)
        self.engine.start_swap(host_page, internal, dst_host, dst_internal,
                               self.ledger.total_foreground_ns)
        page = self.config.page_size_bytes
        # Both pages move: each tier sees a full page of reads and writes.
        self.ledger.charge("slow", "read", False, page)
        self.ledger.charge("fast", "write", False, page)
        self.ledger.charge("fast", "read", False, page)
        self.ledger.charge("slow", "write", False, page)
        self.ledger.charge_migrated(2 * page)
        self.page_relocations += 1
        self.pagetable.search_candidate(
            excluded_internal=(internal, dst_internal))

    def _copy_block_in(self, host_page, internal, block_id, offset_in_page):
        block = self.config.block_size_bytes
        lo = (offset_in_page // block) * block
        data = bytes(self._page_mem(internal)[lo:lo + block])
        victim = self.cache.insert(block_id, data)
        self.pagetable.add_cached_block(host_page)
        self.ledger.charge("slow", "read", False, block)
        self.ledger.charge("fast", "write", False, block)
        self.ledger.charge_migrated(block)
        self.block_relocations += 1
        if victim is not None:
            self._evict_victim(victim)

    def _evict_victim(self, victim):
        vtag, vdirty, vdata = victim
        v_host = vtag // self.blocks_per_page
        self.pagetable.drop_cached_block(v_host)
        if not vdirty:
            return
        v_offset = (vtag % self.blocks_per_page) * self.config.block_size_bytes
        if self._write_back(self._locate(v_host, v_offset), vtag,
                            vdata) == "fast":
            self.recycles += 1
        else:
            self.writebacks += 1

    # Run loop --------------------------------------------------------------

    def run(self, records) -> dict:
        for seq, rec in enumerate(records):
            self.dispatch(MemoryRequest(rec.kind, rec.host_addr,
                                        rec.size_bytes, seq))
        return self.finish()

    def finish(self) -> dict:
        if self.engine.busy:
            # Drain the in-flight swap; DMA time is off the foreground clock.
            self.engine.advance_to(self.engine.completion_ns())
        return self._report()

    def _report(self) -> dict:
        cfg = self.config
        report = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "policy": cfg.policy.value,
            "rng_seed": cfg.rng_seed,
            "fast_capacity_bytes": cfg.fast_capacity_bytes,
            "slow_capacity_bytes": cfg.slow_capacity_bytes,
            "cache_zone_bytes": cfg.cache_zone_bytes,
            "page_size_bytes": cfg.page_size_bytes,
            "block_size_bytes": cfg.block_size_bytes,
            "bloom_window": cfg.bloom_window,
            "exact_recency": cfg.exact_recency,
            "threshold_initial": cfg.promotion_threshold,
            "threshold_final": self._live_threshold(),
            "requests": self.requests,
            "reads": self.reads,
            "writes": self.writes,
            "footprint_pages": len({b // self.blocks_per_page
                                    for b in self.touched_blocks}),
            "page_relocations": self.page_relocations,
            "block_relocations": self.block_relocations,
            "writebacks": self.writebacks,
            "recycles": self.recycles,
        }
        report.update(self.ledger.finalize(gib(cfg.fast_capacity_bytes)))
        return report

    # Test interfaces ---------------------------------------------------------

    def peek(self, host_addr: int, size: int) -> bytes:
        """Resolve the freshest bytes for a host address without metering."""
        cfg = self.config
        block_id, offset = divmod(host_addr, cfg.block_size_bytes)
        way = None if self.cache is None else self.cache.peek(block_id)
        if way is not None:
            buf = self.cache.line(block_id, way)
        else:
            host_page, offset = divmod(host_addr, cfg.page_size_bytes)
            buf = self.mem.get(self._locate(host_page, offset))
        return bytes(size) if buf is None else bytes(buf[offset:offset + size])

    def content_digest(self) -> str:
        block = self.config.block_size_bytes
        h = hashlib.sha256()
        for block_id in sorted(self.touched_blocks):
            h.update(block_id.to_bytes(8, "little"))
            h.update(self.peek(block_id * block, block))
        return h.hexdigest()


def run_trace(records, config: SimConfig) -> dict:
    """Convenience wrapper: one simulator, one trace, one report."""
    return Simulator(config).run(records)
