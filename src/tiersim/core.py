"""Top-level simulator: one request path over the page table, block cache,
migration engine, policy layer and meters.

Each request first lets the DMA engine catch up and records the access.
A resident cache copy of the block is then served from fast memory, unless
its page was promoted and is not in flight, in which case the line is
recycled into the page. Next the engine locates the copy of an in-flight
page that holds the byte (a write to the chunk being copied stalls until it
lands); otherwise the remap table gives the page. A touch served from a slow
page that is not in flight asks a migrating policy for a swap or a block
copy; static serves it and does nothing else.
All-DRAM is the same path over an identity table whose pages are all fast.
Both the cache line and the page block are served by one charge-and-copy
site at the end of the path.

Content is stored per block, since no request crosses one. Each internal
page a run touches gets an index of its blocks' slots; a block's first write
(a foreground write or a cache writeback) takes the next block-sized slot
of a fixed 64 KiB arena, and slots are never freed. Slot 0 is a shared zero
block that is never written, so a never-written block reads as zeros
without a slot of its own.

The engine moves a swap's content lazily: copied chunks (one block each)
land in `mem` only when a page of the in-flight pair is located or the swap
completes. A swap that lands whole trades the two page indexes; one that
lands in parts swaps their slot references. No content bytes move.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass

from .config import CACHING, MIGRATING, Policy, SimConfig
from .metering import REPORT_SCHEMA_VERSION, MeterLedger, gib
from .migration import DmaEngine
from .pagetable import PageTable
from .policies import COPY_BLOCK, TRY_SWAP, make_controller, slow_touch_action
from .recency import make_recency_filter
from .subcache import BlockCache
from .trace import Trace, TraceError


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


_CYCLE = bytes(range(256))
# Byte i of write `seq` is (seq + i) & 0xFF, so a write of up to 4 KiB is one
# slice of this pattern starting at seq & 0xFF.
_PATTERN = _CYCLE * 17


def write_payload(seq: int, size: int) -> bytes:
    """Deterministic bytes carried by write `seq`; tests recompute these."""
    start = seq & 0xFF
    if start + size <= len(_PATTERN):
        return _PATTERN[start:start + size]
    return ((_CYCLE[start:] + _CYCLE[:start]) * (size // 256 + 1))[:size]


# Content arenas hold this many bytes each (or one block, if larger): a whole
# number of blocks, since block and arena sizes are powers of two.
ARENA_BYTES = 64 * 1024


class Simulator:
    def __init__(self, config: SimConfig):
        self.config = config.validate()
        cfg = self.config
        self.ledger = MeterLedger(cfg)
        # Geometry as plain ints, so the request path reads no config property.
        self.page_bytes = cfg.page_size_bytes
        self.block_bytes = cfg.block_size_bytes
        self.blocks_per_page = cfg.blocks_per_page
        self.host_space_bytes = cfg.host_space_bytes
        # All-DRAM maps a host space larger than its fast capacity, so only
        # there can a trace's footprint outgrow the pages that exist.
        self.capacity_pages = (cfg.fast_capacity_bytes // cfg.page_size_bytes
                               + cfg.slow_pages)
        # Content: internal page -> array of its blocks' slot references.
        # A reference is the slot's byte offset across the arenas, so its
        # high bits pick the arena and its low bits the offset in it.
        self.mem = {}
        arena_bytes = max(ARENA_BYTES, self.block_bytes)
        self.arena_shift = arena_bytes.bit_length() - 1
        self.arena_mask = arena_bytes - 1
        self.arenas = [bytearray(arena_bytes)]   # slot 0: the zero block
        self.next_slot = self.block_bytes        # reference of the next slot
        # At most `capacity_pages` indexes exist, so this bounds every
        # reference; a large geometry gets 8-byte entries.
        last_ref = (self.capacity_pages * self.blocks_per_page
                    + 1) * self.block_bytes
        self._blank_index = array("I" if last_ref < 1 << 32 else "Q",
                                  [0]) * self.blocks_per_page
        self.touched_blocks = set()    # host block ids
        self.page_relocations = 0
        self.block_relocations = 0
        self.writebacks = 0
        self.recycles = 0
        # Only migrating policies act on a slow touch; static just forwards.
        self.migrating = cfg.policy in MIGRATING

        recency = make_recency_filter(cfg.bloom_window, cfg.exact_recency, cfg.total_pages)
        shuffle_seed = cfg.rng_seed if cfg.policy is Policy.STATIC else None
        self.pagetable = PageTable(cfg.fast_pages, cfg.total_pages,
                                   cfg.blocks_per_page, recency,
                                   static_shuffle_seed=shuffle_seed)
        self.engine = DmaEngine(cfg.page_size_bytes, cfg.block_size_bytes,
                                cfg.dma_bandwidth_bytes_per_ns,
                                on_complete=self._swap_completed,
                                exchange=self._exchange_chunks)
        self.controller = make_controller(cfg)
        self.cache = (BlockCache(cfg.cache_sets, cfg.cache_ways,
                                 cfg.block_size_bytes)
                      if cfg.policy in CACHING else None)
        if self.migrating:
            self.pagetable.search_candidate()

    # Content helpers ---------------------------------------------------

    def _page_mem(self, internal_page: int) -> array:
        """The page's slot index, created on its first touch."""
        index = self.mem.get(internal_page)
        if index is None:
            if len(self.mem) >= self.capacity_pages:
                raise SimulationError(
                    "all-DRAM run needs fast capacity >= trace footprint "
                    f"(more than {self.capacity_pages} pages touched)")
            index = self._blank_index[:]
            self.mem[internal_page] = index
        return index

    def _new_slot(self, index: array, i: int) -> int:
        """Give block `i` of a page its own slot, on the block's first write."""
        ref = self.next_slot
        self.next_slot = ref + self.block_bytes
        if not ref & self.arena_mask:
            self.arenas.append(bytearray(self.arena_mask + 1))
        index[i] = ref
        return ref

    def _slot_bytes(self, ref: int) -> bytearray:
        lo = ref & self.arena_mask
        return self.arenas[ref >> self.arena_shift][lo:lo + self.block_bytes]

    def _exchange_chunks(self, first: int, stop: int):
        """Swap chunks [first, stop) of the in-flight pair in one exchange.
        A chunk is one block, so this swaps slot references, not bytes. The
        whole page trades the two indexes, so a page without an index stays
        without one and keeps reading as zeros."""
        job = self.engine.job
        if first == 0 and stop == self.blocks_per_page:
            mem = self.mem
            a = mem.get(job.src_internal)
            b = mem.get(job.dst_internal)
            # Assign over live keys where it can: each deletion leaves a
            # hole in the dict's table, and the churn doubles its size.
            for key, index in ((job.src_internal, b), (job.dst_internal, a)):
                if index is not None:
                    mem[key] = index
                else:
                    mem.pop(key, None)
            return
        a = self._page_mem(job.src_internal)
        b = self._page_mem(job.dst_internal)
        a[first:stop], b[first:stop] = b[first:stop], a[first:stop]

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
        """Serve one request and describe how it was served."""
        return self._access(request.kind, request.host_addr,
                            request.size_bytes, request.seq, True)

    def _access(self, kind, addr, size, seq, outcome):
        """The request path of both `dispatch` and `run`. Returns the
        ServiceOutcome when `outcome` is set, else None, so `run` neither
        builds one nor copies the bytes of a read."""
        block = self.block_bytes
        in_block = addr % block
        if size <= 0 or size > block:
            raise TraceError(f"request {seq}: bad size {size}")
        if in_block + size > block:
            raise TraceError(f"request {seq}: crosses a block boundary")
        if addr < 0 or addr + size > self.host_space_bytes:
            raise TraceError(
                f"request {seq}: address {addr:#x} beyond configured capacity "
                f"({self.host_space_bytes:#x})")

        page = self.page_bytes
        host_page = addr // page
        offset_in_page = addr % page
        block_in_page = offset_in_page // block
        block_id = addr // block
        self.touched_blocks.add(block_id)

        ledger = self.ledger
        pagetable = self.pagetable
        pagetable.record_access(host_page, block_in_page)
        # The address check above bounds host_page, so index the table.
        engine = self.engine
        if engine.job is None:
            in_flight = False
            internal = pagetable.table[host_page]
        else:
            engine.advance_to(ledger.total_foreground_ns)
            loc = engine.locate(host_page, offset_in_page)
            in_flight = loc is not None
            internal = loc if in_flight else pagetable.table[host_page]

        # The cache copy, when present, is always the authoritative one.
        # Once its page is promoted and no longer in flight, it is recycled.
        way = None
        if self.cache is not None:
            way = self.cache.lookup(block_id)
            if (way is not None and not in_flight
                    and internal < pagetable.fast_pages):
                dirty, data = self.cache.invalidate(block_id, way)
                pagetable.drop_cached_block(host_page)
                self.recycles += 1
                if dirty:
                    self._write_back(internal, block_id, data)
                way = None

        # Each branch only picks the tier and the bytes that serve it.
        stall = 0
        if way is not None:
            tier = "fast"
            buf = self.cache.line(block_id, way, write=kind == "W")
            offset = in_block
        else:
            if in_flight and kind == "W":
                stall = engine.write_stall_ns(offset_in_page,
                                              ledger.total_foreground_ns)
                if stall:
                    ledger.charge_stall(stall)
                    engine.advance_to(ledger.total_foreground_ns)
                    internal = self._locate(host_page, offset_in_page)
            tier = "fast" if internal < pagetable.fast_pages else "slow"
            # `_page_mem` creates indexes, so it alone enforces the all-DRAM
            # footprint.
            index = self.mem.get(internal) or self._page_mem(internal)
            # A read in `run` copies no bytes, so it needs no slot reference.
            if kind == "W" or outcome:
                ref = index[block_in_page]
                if not ref and kind == "W":
                    ref = self._new_slot(index, block_in_page)
                buf = self.arenas[ref >> self.arena_shift]
                offset = (ref & self.arena_mask) + in_block

        if kind == "R":
            latency = ledger.charge(tier, "read", True, size)
        else:
            latency = ledger.charge(tier, "write", True, size)
            buf[offset:offset + size] = write_payload(seq, size)
        if self.migrating and tier == "slow" and not in_flight:
            self._slow_policy_actions(host_page, internal, block_id,
                                      block_in_page)
        if outcome:
            # Policy actions copy this block out or write back another one,
            # so a read's bytes are still the ones it was served from.
            data = bytes(buf[offset:offset + size]) if kind == "R" else None
            return ServiceOutcome(seq, tier, latency, stall_ns=stall, data=data)
        return None

    def _write_back(self, internal, block_id, data) -> str:
        """Merge a dirty cache line into its page as background traffic;
        returns the tier written."""
        index = self._page_mem(internal)
        i = block_id % self.blocks_per_page
        ref = index[i] or self._new_slot(index, i)
        lo = ref & self.arena_mask
        self.arenas[ref >> self.arena_shift][lo:lo + len(data)] = data
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
                             block_in_page):
        action = slow_touch_action(self.config.policy,
                                   self.pagetable.cached_blocks[host_page],
                                   self._live_threshold())
        if action == TRY_SWAP:
            if not self.engine.busy and self.pagetable.candidate is not None:
                self._start_swap(host_page, internal)
        elif action == COPY_BLOCK:
            self._copy_block_in(host_page, internal, block_id, block_in_page)

    def _start_swap(self, host_page, internal):
        dst_host, dst_internal = self.pagetable.take_candidate()
        if self.controller is not None:
            self.controller.on_promotion(
                self.pagetable.bitmap_popcount(host_page))
        self.pagetable.reset_bitmap(host_page)
        self.engine.start_swap(host_page, internal, dst_host, dst_internal,
                               self.ledger.total_foreground_ns)
        page = self.page_bytes
        # Both pages move: each tier sees a full page of reads and writes.
        self.ledger.charge("slow", "read", False, page)
        self.ledger.charge("fast", "write", False, page)
        self.ledger.charge("fast", "read", False, page)
        self.ledger.charge("slow", "write", False, page)
        self.ledger.charge_migrated(2 * page)
        self.page_relocations += 1
        self.pagetable.search_candidate(
            excluded_internal=(internal, dst_internal))

    def _copy_block_in(self, host_page, internal, block_id, block_in_page):
        block = self.block_bytes
        data = bytes(self._slot_bytes(self._page_mem(internal)[block_in_page]))
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
        v_offset = (vtag % self.blocks_per_page) * self.block_bytes
        if self._write_back(self._locate(v_host, v_offset), vtag,
                            vdata) == "fast":
            self.recycles += 1
        else:
            self.writebacks += 1

    # Run loop --------------------------------------------------------------

    def run(self, records) -> dict:
        """Serve a `Trace`, or any iterable of records packed into one."""
        trace = records if isinstance(records, Trace) else Trace(records)
        access = self._access
        for seq, (kind, addr, size) in enumerate(
                zip(trace.kinds, trace.addrs, trace.sizes)):
            access(kind, addr, size, seq, False)
        return self.finish()

    def finish(self) -> dict:
        if self.engine.busy:
            # Drain the in-flight swap; DMA time is off the foreground clock.
            self.engine.advance_to(self.engine.completion_ns())
        return self._report()

    def _report(self) -> dict:
        cfg = self.config
        ledger = self.ledger
        reads = ledger.fast_reads + ledger.slow_reads
        writes = ledger.fast_writes + ledger.slow_writes
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
            # Each request charges one foreground access of one block.
            "requests": reads + writes,
            "reads": reads,
            "writes": writes,
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
        """Resolve the freshest bytes for a host address range, block by
        block, without metering."""
        block = self.block_bytes
        out = bytearray()
        end = host_addr + size
        while host_addr < end:
            block_id, lo = divmod(host_addr, block)
            hi = min(block, lo + end - host_addr)
            way = None if self.cache is None else self.cache.peek(block_id)
            if way is not None:
                buf = self.cache.line(block_id, way)
            else:
                host_page, offset = divmod(host_addr, self.page_bytes)
                index = self.mem.get(self._locate(host_page, offset))
                buf = self._slot_bytes(0 if index is None
                                       else index[offset // block])
            out += buf[lo:hi]
            host_addr += hi - lo
        return bytes(out)

    def content_digest(self) -> str:
        block = self.block_bytes
        h = hashlib.sha256()
        for block_id in sorted(self.touched_blocks):
            h.update(block_id.to_bytes(8, "little"))
            h.update(self.peek(block_id * block, block))
        return h.hexdigest()


def run_trace(records, config: SimConfig) -> dict:
    """Convenience wrapper: one simulator, one trace, one report."""
    return Simulator(config).run(records)
