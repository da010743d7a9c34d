"""Top-level simulator: one request path over the page table, block cache,
migration engine, policy layer and meters.

That path is `Simulator._serve`, over a batch of requests given as trace
columns: `run` passes the whole trace, `dispatch` a batch of one. The state
it reads is bound to locals once per batch. Each request is then:

1. validated (a failure goes to `_reject`) and its block marked touched;
   the access bitmap is written only for an adaptive controller, its one
   reader. Pages are recorded for the victim search per batch, as
   a slice of the address column, before a swap start's search reads the
   filter, before `_reject` raises and at the end of the batch;
2. located: the DMA engine is caught up only when a swap is in flight and
   the request reaches a page of the pair or the swap's due time;
3. served from its cache line in the zone when one is resident, unless its
   page was since promoted and is not in flight, and then the line is
   recycled into the page; otherwise from its page's block slot, after a
   write to the chunk being copied stalls until it lands. Each branch tests
   the kind once and picks the ledger counter; a write's also stores its
   bytes. A read does no content work: a kept outcome's bytes come from
   `peek` once the request is done;
4. charged one foreground unit: one bump of that counter, plus its latency
   on the clock;
5. if it touched a slow page outside the pair, acted on as a migrating
   policy decides, in the loop: a swap or a block copy, unless the engine
   is busy and there is no cache, since a busy engine refuses every swap.

Content is one slot per written block in 64 KiB arenas, indexed per written
internal page; slot 0 is the shared zero block. Slot references come from
one counter, and a write's bytes are a slice of a repeating pattern, so a
request with no policy action makes no Python-level call. Arenas and the
zone are memoryviews, so a store is one copy. Every reader (`peek`, the
digest, kept read outcomes, a block copy into the cache) finds a block
through one resolver, `_block`, and a page's slot through `_slot`, which
builds no index; `peek` and outcomes hand out `bytes`. Swaps move slot
references as the engine advances. README has the full model.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, count

from .config import CACHING, MIGRATING, Policy, SimConfig
from .metering import (FAST_READ, FAST_WRITE, MIG_FAST_READ, MIG_FAST_WRITE,
                       MIG_SLOW_READ, MIG_SLOW_WRITE, REPORT_SCHEMA_VERSION,
                       SLOW_READ, SLOW_WRITE, MeterLedger, gib)
from .migration import DmaEngine
from .pagetable import PageTable
from .policies import COPY_BLOCK, TRY_SWAP, make_controller, slow_touch_action
from .recency import BloomRecencyFilter, make_recency_filter
from .subcache import BlockCache
from .trace import Trace, TraceError


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


# Byte i of write `seq` is (seq + i) & 0xFF: a slice of this cycle repeated,
# starting at seq & 0xFF.
_CYCLE = bytes(range(256))


def write_payload(seq: int, size: int) -> bytes:
    """Deterministic bytes carried by write `seq`, which the request loop
    slices from its own copy of the cycle; tests recompute these."""
    start = seq & 0xFF
    return (_CYCLE * (size // 256 + 2))[start:start + size]


# Content arenas hold this many bytes each (or one block, if larger): a whole
# number of blocks, since block and arena sizes are powers of two.
ARENA_BYTES = 64 * 1024


class Simulator:
    def __init__(self, config: SimConfig):
        self.config = config.validate()
        cfg = self.config
        self.ledger = MeterLedger(cfg)
        # Geometry as plain ints, so the request path reads no config property.
        self.block_bytes = cfg.block_size_bytes
        self.blocks_per_page = cfg.blocks_per_page
        self.host_space_bytes = cfg.host_space_bytes
        # Content: internal page -> array of its blocks' slot references.
        # A reference is the slot's byte offset across the arenas, so its
        # high bits pick the arena and its low bits the offset in it.
        self.mem = {}
        arena_bytes = max(ARENA_BYTES, self.block_bytes)
        self.arena_shift = arena_bytes.bit_length() - 1
        self.arena_mask = arena_bytes - 1
        # Arenas by number, each made on its first reference; slot 0, in
        # arena 0, is the zero block. New slots are one block apart.
        self.arenas = defaultdict(self._new_arena, {0: self._new_arena()})
        self._next_ref = count(self.block_bytes, self.block_bytes).__next__
        # Write `seq`'s bytes: this from `seq & 0xFF`, as in `write_payload`.
        self._pattern = _CYCLE * (self.block_bytes // 256 + 2)
        # At most one index per internal page exists, so this bounds every
        # reference; a large geometry gets 8-byte entries.
        last_ref = (cfg.total_pages * self.blocks_per_page
                    + 1) * self.block_bytes
        self._blank_index = array("I" if last_ref < 1 << 32 else "Q",
                                  [0]) * self.blocks_per_page
        # One byte per host block: 1 once a request has touched it.
        self.touched = bytearray(self.host_space_bytes // self.block_bytes)
        self.page_relocations = 0
        self.block_relocations = 0
        self.writebacks = 0
        self.recycles = 0
        # Only migrating policies act on a slow touch; static just forwards.
        self.migrating = cfg.policy in MIGRATING

        # Only a migrating policy's victim search queries the filter; static
        # and all-DRAM runs record into one that no config field sizes.
        recency = (make_recency_filter(cfg.bloom_window, cfg.exact_recency,
                                       cfg.total_pages)
                   if self.migrating else BloomRecencyFilter(1))
        shuffle_seed = cfg.rng_seed if cfg.policy is Policy.STATIC else None
        self.pagetable = PageTable(cfg.fast_pages, cfg.total_pages,
                                   cfg.blocks_per_page, recency,
                                   static_shuffle_seed=shuffle_seed)
        self.engine = DmaEngine(cfg.page_size_bytes, cfg.block_size_bytes,
                                cfg.dma_bandwidth_bytes_per_ns,
                                exchange=self._exchange_chunks)
        self.controller = make_controller(cfg)
        self.cache = (BlockCache(cfg.cache_sets, cfg.block_size_bytes)
                      if cfg.policy in CACHING else None)
        # The request path's constants: geometry as shifts and masks (pages
        # and blocks are powers of two), and the access bitmap, which only
        # an adaptive controller reads, so only then is it written.
        block, page = self.block_bytes, cfg.page_size_bytes
        self._path_geometry = (
            block, block.bit_length() - 1, block - 1, page.bit_length() - 1,
            page - 1, self.host_space_bytes,
            self.pagetable.region_blocks.bit_length() - 1)
        self._path_bitmap = (None if self.controller is None
                             else self.pagetable.bitmap)
        if self.migrating:
            self.pagetable.search_candidate()

    # Content helpers ---------------------------------------------------

    def _page_mem(self, internal_page: int) -> array:
        """The page's slot index, created when first needed."""
        index = self.mem.get(internal_page)
        if index is None:
            index = self.mem[internal_page] = self._blank_index[:]
        return index

    def _new_arena(self) -> memoryview:
        """A zero-filled arena. It is a view of its bytearray, so a store
        into it copies the bytes once, with no resize check."""
        return memoryview(bytearray(self.arena_mask + 1))

    def _slot(self, internal: int, i: int) -> memoryview:
        """Block `i` of an internal page as stored: its slot, or the zero
        block when the page has no index. Builds no index."""
        index = self.mem.get(internal)
        ref = 0 if index is None else index[i]
        lo = ref & self.arena_mask
        return self.arenas[ref >> self.arena_shift][lo:lo + self.block_bytes]

    def _block(self, block_id: int) -> memoryview:
        """The freshest copy of one host block: its cache line when one is
        resident, else the slot of whichever copy of its page holds it."""
        cache = self.cache
        way = None if cache is None else cache.peek(block_id)
        if way is not None:
            start = cache.line_offset(block_id, way)
            return cache.zone[start:start + self.block_bytes]
        host_page, i = divmod(block_id, self.blocks_per_page)
        return self._slot(self._locate(host_page, i * self.block_bytes), i)

    def _exchange_chunks(self, first: int, stop: int):
        """Land chunks [first, stop) of the in-flight pair, just copied by
        an engine advance; the last chunk completes the swap, so it also
        flips the pair's remap entries. A chunk is one block: this swaps
        slot references, not bytes. A swap landed by one advance trades the
        two indexes, so a page without an index stays without one and keeps
        reading as zeros."""
        job = self.engine.job
        if stop == self.blocks_per_page:
            self.pagetable.swap_mappings(job.src_host, job.dst_host)
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

    def _locate(self, host_page: int, offset_in_page: int) -> int:
        """Internal page holding this byte of `host_page` right now."""
        internal = self.engine.locate(host_page, offset_in_page)
        if internal is None:
            return self.pagetable.lookup(host_page)
        return internal

    # Request path --------------------------------------------------------

    def dispatch(self, request: MemoryRequest) -> ServiceOutcome:
        """Serve one request and describe how it was served."""
        outcomes = []
        self._serve((request.kind,), (request.host_addr,),
                    (request.size_bytes,), request.seq, outcomes)
        return outcomes[0]

    def _reject(self, seq, addr, size):
        """Raise the TraceError of a request that failed validation."""
        block = self.block_bytes
        if size <= 0 or size > block:
            raise TraceError(f"request {seq}: bad size {size}")
        if addr % block + size > block:
            raise TraceError(f"request {seq}: crosses a block boundary")
        raise TraceError(
            f"request {seq}: address {addr:#x} beyond configured capacity "
            f"({self.host_space_bytes:#x})")

    def _serve(self, kinds, addrs, sizes, first_seq, outcomes=None):
        """The request path of both `run` and `dispatch`: serve the records
        in the three columns as requests `first_seq`, `first_seq + 1`, ...
        When `outcomes` is a list, append each request's ServiceOutcome to
        it, a read's with its bytes from `peek`; otherwise build none."""
        # Everything the loop reads is bound once. The callables are bound
        # here, not at construction, so wrappers installed on the classes
        # or on `slow_touch_action` before a run are the ones called.
        (block, block_shift, block_mask, page_shift, page_mask, space,
         region_shift) = self._path_geometry
        bitmap = self._path_bitmap
        touched = self.touched
        ledger = self.ledger
        counts, unit_ns = ledger.counts, ledger.unit_ns
        pagetable = self.pagetable
        table, fast_pages = pagetable.table, pagetable.fast_pages
        cached_blocks = pagetable.cached_blocks
        # The pages of requests [0, recorded) of the batch are recorded.
        record = pagetable.recency.record
        recorded = 0
        engine = self.engine
        cache = self.cache
        if cache is not None:
            lookup, zone, line_offset = cache.lookup, cache.zone, cache.line_offset
        mem = self.mem
        page_mem, next_ref = self._page_mem, self._next_ref
        arenas, arena_shift, arena_mask = self.arenas, self.arena_shift, self.arena_mask
        pattern = self._pattern
        migrating = self.migrating
        policy, threshold = self.config.policy, self.config.promotion_threshold
        controller = self.controller
        touch_action = slow_touch_action
        keep = outcomes is not None

        for seq, kind, addr, size in zip(count(first_seq), kinds, addrs, sizes):
            in_block = addr & block_mask
            if not (0 < size <= block - in_block and 0 <= addr <= space - size):
                record(addrs, page_shift, recorded, seq - first_seq)
                self._reject(seq, addr, size)
            host_page = addr >> page_shift
            offset_in_page = addr & page_mask
            block_in_page = offset_in_page >> block_shift
            block_id = addr >> block_shift
            touched[block_id] = 1
            if bitmap is not None:
                bitmap[host_page] |= 1 << (block_in_page >> region_shift)

            # The engine's progress matters only to a page of the in-flight
            # pair and to completion, so only those catch the engine up.
            job = engine.job
            if job is not None and (host_page == job.src_host
                                    or host_page == job.dst_host
                                    or ledger.total_foreground_ns >= job.due_ns):
                engine.advance_to(ledger.total_foreground_ns)
                loc = engine.locate(host_page, offset_in_page)
                in_flight = loc is not None
                internal = loc if in_flight else table[host_page]
            else:
                in_flight = False
                internal = table[host_page]

            # The cache copy, when present, is always the authoritative one.
            # Once its page is promoted and no longer in flight, it is
            # recycled.
            way = None
            if cache is not None:
                way = lookup(block_id)
                if (way is not None and not in_flight
                        and internal < fast_pages):
                    dirty, line = cache.invalidate(block_id, way)
                    pagetable.drop_cached_block(host_page)
                    self.recycles += 1
                    if dirty:
                        self._write_back(internal, block_id, line)
                    way = None

            # Each branch picks the ledger counter (its tier and kind); a
            # write's also stores its bytes. A read touches no content.
            stall = 0
            if kind == "R":
                fast = way is not None or internal < fast_pages
                counter = FAST_READ if fast else SLOW_READ
            elif way is not None:
                fast = True
                counter = FAST_WRITE
                lo = line_offset(block_id, way, True) + in_block
                start = seq & 0xFF
                zone[lo:lo + size] = pattern[start:start + size]
            else:
                if in_flight:
                    stall = engine.write_stall_ns(offset_in_page,
                                                  ledger.total_foreground_ns)
                    if stall:
                        ledger.charge_stall(stall)
                        engine.advance_to(ledger.total_foreground_ns)
                        internal = self._locate(host_page, offset_in_page)
                fast = internal < fast_pages
                counter = FAST_WRITE if fast else SLOW_WRITE
                index = mem.get(internal) or page_mem(internal)
                ref = index[block_in_page]
                if not ref:
                    ref = index[block_in_page] = next_ref()
                lo = (ref & arena_mask) + in_block
                start = seq & 0xFF
                arenas[ref >> arena_shift][lo:lo + size] = pattern[start:start + size]

            # A request is one block-sized foreground unit: one counter bump.
            counts[counter] += 1
            latency = unit_ns[counter]
            ledger.total_foreground_ns += latency
            # A busy engine refuses every swap, so without a block cache
            # there is nothing else to do.
            if (migrating and not fast and not in_flight
                    and (engine.job is None or cache is not None)):
                action = touch_action(policy, cached_blocks[host_page], threshold
                                      if controller is None else controller.threshold)
                # A victim candidate is always waiting: one is found at
                # construction and at the end of every `_start_swap` (with
                # this request recorded), or `search_candidate` raises.
                if action == TRY_SWAP and engine.job is None:
                    record(addrs, page_shift, recorded, seq - first_seq + 1)
                    recorded = seq - first_seq + 1
                    self._start_swap(host_page, internal)
                elif action == COPY_BLOCK:
                    # No stall precedes a slow touch outside the pair, so
                    # the request arrived one latency ago.
                    self._copy_block_in(host_page, internal, block_id,
                                        block_in_page,
                                        ledger.total_foreground_ns - latency)
            if keep:
                # No policy action changes a block's freshest bytes, so a
                # read's are those it was served.
                outcomes.append(ServiceOutcome(
                    seq, "fast" if fast else "slow", latency, stall_ns=stall,
                    data=self.peek(addr, size) if kind == "R" else None))
        record(addrs, page_shift, recorded)

    def _write_back(self, internal, block_id, data) -> bool:
        """Merge a dirty cache line into its page as background traffic;
        returns whether the page is fast."""
        index = self._page_mem(internal)
        i = block_id % self.blocks_per_page
        ref = index[i]
        if not ref:     # the block's first write
            ref = index[i] = self._next_ref()
        lo = ref & self.arena_mask
        self.arenas[ref >> self.arena_shift][lo:lo + len(data)] = data
        fast = internal < self.pagetable.fast_pages
        self.ledger.charge(MIG_FAST_WRITE if fast else MIG_SLOW_WRITE, 1)
        return fast

    # Policy side effects ---------------------------------------------------

    def _start_swap(self, host_page, internal):
        dst_host, dst_internal = self.pagetable.candidate
        if self.controller is not None:
            self.controller.on_promotion(
                self.pagetable.bitmap_popcount(host_page))
        self.pagetable.reset_bitmap(host_page)
        self.engine.start_swap(host_page, internal, dst_host, dst_internal,
                               self.ledger.total_foreground_ns)
        # Both pages move: each tier sees a full page of reads and writes.
        blocks = self.blocks_per_page
        self.ledger.charge(MIG_SLOW_READ, blocks)
        self.ledger.charge(MIG_FAST_WRITE, blocks)
        self.ledger.charge(MIG_FAST_READ, blocks)
        self.ledger.charge(MIG_SLOW_WRITE, blocks)
        self.page_relocations += 1
        self.pagetable.search_candidate(
            excluded_internal=(internal, dst_internal))

    def _copy_block_in(self, host_page, internal, block_id, block_in_page,
                       arrival_ns):
        victim = self.cache.insert(block_id, self._slot(internal, block_in_page))
        self.pagetable.add_cached_block(host_page)
        self.ledger.charge(MIG_SLOW_READ, 1)
        self.ledger.charge(MIG_FAST_WRITE, 1)
        self.block_relocations += 1
        if victim is not None:
            self._evict_victim(victim, arrival_ns)

    def _evict_victim(self, victim, arrival_ns):
        """Write a dirty victim back to where its page's byte lives as of
        the evicting request's arrival."""
        vtag, vdirty, vdata = victim
        v_host = vtag // self.blocks_per_page
        self.pagetable.drop_cached_block(v_host)
        if not vdirty:
            return
        v_offset = (vtag % self.blocks_per_page) * self.block_bytes
        self.engine.advance_to(arrival_ns)
        if self._write_back(self._locate(v_host, v_offset), vtag, vdata):
            self.recycles += 1
        else:
            self.writebacks += 1

    # Run loop --------------------------------------------------------------

    def run(self, records) -> dict:
        """Serve a `Trace`, or any iterable of records packed into one."""
        trace = records if isinstance(records, Trace) else Trace(records)
        self._serve(trace.kinds, trace.addrs, trace.sizes, 0)
        return self.finish()

    def finish(self) -> dict:
        if self.engine.busy:
            # Drain the in-flight swap; DMA time is off the foreground clock.
            self.engine.advance_to(self.engine.job.due_ns)
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
            "threshold_final": (cfg.promotion_threshold if self.controller
                                is None else self.controller.threshold),
            # Each request charges one foreground access of one block.
            "requests": reads + writes,
            "reads": reads,
            "writes": writes,
            "footprint_pages": self._page_flags().count(1),
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
        end = host_addr + size
        return b"".join(
            self._block(block_id)[max(0, host_addr - block_id * block):
                                  end - block_id * block]
            for block_id in range(host_addr // block, (end - 1) // block + 1))

    def _page_flags(self) -> bytes:
        """One byte per host page: 1 if a request has touched one of its
        blocks, else 0."""
        touched, bpp = self.touched, self.blocks_per_page
        # Byte p of the k-th strided slice is block k of page p. Every byte
        # is 0 or 1, so the slices OR-ed as integers flag the pages.
        flags = 0
        for k in range(bpp):
            flags |= int.from_bytes(touched[k::bpp], "little")
        return flags.to_bytes(len(touched) // bpp, "little")

    def content_digest(self) -> str:
        """SHA-256 over the touched blocks in block-id order: each block's
        id as 8 little-endian bytes, then its freshest bytes, as `peek`
        resolves them."""
        import hashlib   # here, so that runs that take no digest load no OpenSSL
        h = hashlib.sha256()
        for block_id in compress(count(), self.touched):
            h.update(block_id.to_bytes(8, "little") + self._block(block_id))
        return h.hexdigest()
