"""Reference oracle: a flat, no-tricks re-implementation of the whole
pipeline used for differential testing.

Everything is plain dicts, lists and full copies: an explicit sliding-window
queue instead of the bloom filter, list-walked pseudo-LRU bits instead of a
packed tree, and memory contents keyed directly by host block (so placement
never has to be unwound to know what a read should return).  Reports use the
same schema as the optimized simulator and are bit-comparable to it whenever
the simulator runs in exact-recency mode.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque

from .config import CACHING, MIGRATING, Policy
from .metering import REPORT_SCHEMA_VERSION
from .pagetable import BITMAP_BITS, COUNTER_MAX
from .recency import mix64
from .trace import Trace, TraceError


class OracleError(RuntimeError):
    pass


def oracle_run(records, config):
    """Run a `Trace`, or any iterable of records packed into one, through
    the reference model.

    Returns (report, content_digest).
    """
    cfg = config.validate()
    trace = records if isinstance(records, Trace) else Trace(records)
    columns = zip(trace.kinds, trace.addrs, trace.sizes)
    policy = cfg.policy
    page = cfg.page_size_bytes
    block = cfg.block_size_bytes
    bpp = page // block
    region_blocks = max(1, bpp // BITMAP_BITS)

    # Meters.
    counts = {"fast_read": 0, "fast_write": 0, "slow_read": 0, "slow_write": 0,
              "mig_fast_read": 0, "mig_fast_write": 0,
              "mig_slow_read": 0, "mig_slow_write": 0}
    clock = 0
    stall_ns = 0
    write_stalls = 0
    migrated_bytes = 0
    n_reads = n_writes = 0
    page_relocations = block_relocations = writebacks = recycles = 0

    # Content: freshest bytes per host block, independent of placement.
    content = {}
    touched = set()

    def block_bytes_of(block_id):
        buf = content.get(block_id)
        if buf is None:
            buf = bytearray(block)
            content[block_id] = buf
        return buf

    # Byte i of write `seq` is (seq + i) & 0xFF: byte (seq & 0xFF) + i of
    # this cycle, which is long enough for a block-sized write at any start.
    cycle = bytes(i & 0xFF for i in range(256 + block))

    def apply_write(addr, size, seq):
        buf = block_bytes_of(addr // block)
        off = addr % block
        start = seq & 0xFF
        buf[off:off + size] = cycle[start:start + size]

    def charge(tier, kind, foreground, nbytes):
        nonlocal clock
        units = max(1, math.ceil(nbytes / block))
        key = f"{tier}_{kind}" if foreground else f"mig_{tier}_{kind}"
        counts[key] += units
        if foreground:
            latency = getattr(cfg, f"{tier}_{kind}_ns") * units
            clock += latency
            return latency
        return 0

    if policy is Policy.ALLDRAM:
        footprint_pages = set()
        for seq, (kind, addr, size) in enumerate(columns):
            _validate(addr, size, seq, cfg)
            touched.add(addr // block)
            if kind == "R":
                n_reads += 1
            else:
                n_writes += 1
            hp = addr // page
            if hp not in footprint_pages:
                footprint_pages.add(hp)
                if len(footprint_pages) * page > cfg.fast_capacity_bytes:
                    raise OracleError("all-DRAM run exceeds fast capacity")
            if kind == "R":
                charge("fast", "read", True, size)
            else:
                charge("fast", "write", True, size)
                apply_write(addr, size, seq)
        return _report(cfg, counts, clock, stall_ns, write_stalls,
                       migrated_bytes, n_reads, n_writes, len(trace),
                       len(footprint_pages), 0, 0, 0, 0,
                       cfg.promotion_threshold), _digest(content, touched, block)

    # Page table: host page -> internal page (and back).
    total_pages = cfg.total_pages
    fast_pages = cfg.fast_pages
    table = {h: h for h in range(total_pages)}
    if policy is Policy.STATIC:
        import random
        perm = list(range(total_pages))
        random.Random(cfg.rng_seed).shuffle(perm)
        table = {h: perm[h] for h in range(total_pages)}
    inverse = {v: k for k, v in table.items()}

    cached_count = {h: 0 for h in range(total_pages)}
    bitmap_bits = {h: set() for h in range(total_pages)}

    # Exact recency queue (the one intentionally simple stand-in).
    window = cfg.bloom_window
    recent_queue = deque()
    recent_counts = {}

    def record_recent(hp):
        recent_queue.append(hp)
        recent_counts[hp] = recent_counts.get(hp, 0) + 1
        if len(recent_queue) > window:
            old = recent_queue.popleft()
            recent_counts[old] -= 1
            if recent_counts[old] == 0:
                del recent_counts[old]

    # Victim search.
    counter = 0
    candidate = None

    def search_candidate(excluded=()):
        nonlocal counter, candidate
        for _ in range(16 * max(1, fast_pages)):
            slot = mix64(counter) % total_pages
            pointed = table[slot]
            counter += 1
            if pointed >= fast_pages:
                continue
            if pointed in excluded:
                continue
            if slot in recent_counts:
                continue
            candidate = (slot, pointed)
            return
        raise OracleError("victim search exhausted its probe budget")

    if policy in MIGRATING:
        search_candidate()

    # Sub-page cache: per set, per way dicts plus three pLRU booleans.
    use_cache = policy in CACHING
    nsets = cfg.cache_sets if use_cache else 0
    ways = cfg.cache_ways
    sets = [{"ways": [{"tag": 0, "valid": False, "dirty": False,
                       "data": bytearray(block)} for _ in range(ways)],
             "plru": [False, False, False]} for _ in range(nsets)]

    def plru_touch(s, way):
        root, left, right = s["plru"]
        if way < 2:
            root = True
            left = way == 0
        else:
            root = False
            right = way == 2
        s["plru"] = [root, left, right]

    def plru_victim(s):
        root, left, right = s["plru"]
        if root:
            return 3 if right else 2
        return 1 if left else 0

    def cache_find(block_id):
        s = sets[block_id % nsets]
        for w in range(ways):
            if s["ways"][w]["valid"] and s["ways"][w]["tag"] == block_id:
                return s, w
        return s, None

    # One in-flight swap at most.
    swap = None  # dict(src_host, src_internal, dst_host, dst_internal, start)

    def swap_duration():
        return 2 * page / cfg.dma_bandwidth_bytes_per_ns

    def chunks_done(now):
        elapsed = now - swap["start"]
        if elapsed <= 0:
            return 0
        if elapsed * cfg.dma_bandwidth_bytes_per_ns / 2 >= page:
            return bpp
        return int(elapsed * cfg.dma_bandwidth_bytes_per_ns / 2 // block)

    def maybe_complete(now):
        nonlocal swap
        if swap is not None and chunks_done(now) >= bpp:
            a, b = swap["src_host"], swap["dst_host"]
            table[a], table[b] = table[b], table[a]
            inverse[table[a]] = a
            inverse[table[b]] = b
            swap = None

    def routed_location(host_page, offset, now):
        new_side = offset // block < chunks_done(now)
        if host_page == swap["src_host"]:
            return swap["dst_internal"] if new_side else swap["src_internal"]
        return swap["src_internal"] if new_side else swap["dst_internal"]

    def start_swap(host_page, internal, now):
        nonlocal swap, page_relocations, migrated_bytes, threshold
        dst_host, dst_internal = candidate
        if controller_enabled:
            threshold = adapt_on_promotion(len(bitmap_bits[host_page]))
        bitmap_bits[host_page] = set()
        swap = {"src_host": host_page, "src_internal": internal,
                "dst_host": dst_host, "dst_internal": dst_internal,
                "start": now}
        charge("slow", "read", False, page)
        charge("fast", "write", False, page)
        charge("fast", "read", False, page)
        charge("slow", "write", False, page)
        migrated_bytes += 2 * page
        page_relocations += 1
        search_candidate(excluded=(swap["src_internal"], swap["dst_internal"]))

    # Adaptive threshold controller.
    threshold = cfg.promotion_threshold
    controller_enabled = policy is Policy.ADPCOMB
    adapt_window = cfg.adaptive_window_pages
    if controller_enabled and adapt_window > 0:
        threshold = min(max(threshold, cfg.adaptive_min_threshold),
                        cfg.adaptive_max_threshold)
    ewma = None
    promotions = 0

    def adapt_on_promotion(popcount):
        nonlocal ewma, promotions
        thr = threshold
        if adapt_window <= 0:
            return thr
        sample = popcount / BITMAP_BITS
        ewma = sample if ewma is None else (
            cfg.adaptive_alpha * sample + (1 - cfg.adaptive_alpha) * ewma)
        promotions += 1
        if promotions % adapt_window == 0:
            if ewma > cfg.adaptive_hi_water:
                thr = max(cfg.adaptive_min_threshold, thr - 1)
            elif ewma < cfg.adaptive_lo_water:
                thr = min(cfg.adaptive_max_threshold, thr + 1)
        return thr

    # Main loop.
    for seq, (kind, addr, size) in enumerate(columns):
        _validate(addr, size, seq, cfg)
        arrival_ns = clock   # DMA progress snapshots use the arrival time
        if kind == "R":
            n_reads += 1
        else:
            n_writes += 1
        host_page = addr // page
        offset_in_page = addr % page
        block_id = addr // block
        block_index = offset_in_page // block
        touched.add(block_id)

        maybe_complete(clock)
        record_recent(host_page)
        bitmap_bits[host_page].add(
            min(BITMAP_BITS - 1, block_index // region_blocks))

        # Cache first: a resident copy is authoritative.
        served = False
        if use_cache:
            s, w = cache_find(block_id)
            if w is not None:
                entry = s["ways"][w]
                plru_touch(s, w)
                internal = table[host_page]
                in_flight = swap is not None and host_page in (
                    swap["src_host"], swap["dst_host"])
                if internal < fast_pages and not in_flight:
                    entry["valid"] = False
                    recycles += 1
                    if cached_count[host_page] > 0:
                        cached_count[host_page] -= 1
                    if entry["dirty"]:
                        charge("fast", "write", False, block)
                        migrated_bytes += block
                    # Re-route below as a plain fast access.
                else:
                    if kind == "R":
                        charge("fast", "read", True, size)
                    else:
                        charge("fast", "write", True, size)
                        entry["dirty"] = True
                        apply_write(addr, size, seq)
                    served = True
        if served:
            continue

        if swap is not None and host_page in (swap["src_host"], swap["dst_host"]):
            if kind == "R":
                loc = routed_location(host_page, offset_in_page, clock)
                tier = "fast" if loc < fast_pages else "slow"
                charge(tier, "read", True, size)
            else:
                done = chunks_done(clock)
                if offset_in_page // block == done:
                    ready = swap["start"] + math.ceil(
                        2 * block * (done + 1) / cfg.dma_bandwidth_bytes_per_ns)
                    wait = max(0, ready - clock)
                    if wait:
                        stall_ns += wait
                        write_stalls += 1
                        clock += wait
                        maybe_complete(clock)
                if swap is not None:
                    loc = routed_location(host_page, offset_in_page, clock)
                else:
                    loc = table[host_page]
                tier = "fast" if loc < fast_pages else "slow"
                charge(tier, "write", True, size)
                apply_write(addr, size, seq)
            continue

        internal = table[host_page]
        if internal < fast_pages:
            if kind == "R":
                charge("fast", "read", True, size)
            else:
                charge("fast", "write", True, size)
                apply_write(addr, size, seq)
            continue

        # Slow touch.
        if kind == "R":
            charge("slow", "read", True, size)
        else:
            charge("slow", "write", True, size)
            apply_write(addr, size, seq)

        if policy is Policy.STATIC:
            continue
        wants_swap = (policy is Policy.PAGEMOVE
                      or cached_count[host_page] >= threshold)
        if wants_swap:
            if swap is None and candidate is not None:
                start_swap(host_page, internal, clock)
            continue

        # Copy the touched block into the cache zone.
        s = sets[block_id % nsets]
        way = None
        for w in range(ways):
            if not s["ways"][w]["valid"]:
                way = w
                break
        if way is None:
            way = plru_victim(s)
            old = s["ways"][way]
            v_host = old["tag"] // bpp
            if cached_count[v_host] > 0:
                cached_count[v_host] -= 1
            if old["dirty"]:
                v_loc = table[v_host]
                if swap is not None and v_host in (swap["src_host"], swap["dst_host"]):
                    v_off = (old["tag"] % bpp) * block
                    v_loc = routed_location(v_host, v_off, arrival_ns)
                if v_loc < fast_pages:
                    charge("fast", "write", False, block)
                    recycles += 1
                else:
                    charge("slow", "write", False, block)
                    writebacks += 1
                migrated_bytes += block
        entry = s["ways"][way]
        entry["tag"] = block_id
        entry["valid"] = True
        entry["dirty"] = False
        entry["data"] = bytearray(block_bytes_of(block_id))
        plru_touch(s, way)
        cached_count[host_page] = min(COUNTER_MAX, cached_count[host_page] + 1)
        charge("slow", "read", False, block)
        charge("fast", "write", False, block)
        migrated_bytes += block
        block_relocations += 1

    # Drain: finish the in-flight swap without advancing the clock.
    if swap is not None:
        maybe_complete(swap["start"] + math.ceil(swap_duration()))

    footprint = len({b // bpp for b in touched})
    report = _report(cfg, counts, clock, stall_ns, write_stalls,
                     migrated_bytes, n_reads, n_writes, len(trace),
                     footprint, page_relocations, block_relocations,
                     writebacks, recycles, threshold)
    return report, _digest(content, touched, block)


def _validate(addr, size, seq, cfg):
    # Packing into a `Trace` has already checked the kind.
    if size <= 0 or size > cfg.block_size_bytes:
        raise TraceError(f"request {seq}: bad size {size}")
    first = addr // cfg.block_size_bytes
    last = (addr + size - 1) // cfg.block_size_bytes
    if first != last:
        raise TraceError(f"request {seq}: crosses a block boundary")
    if addr < 0 or addr + size > cfg.host_space_bytes:
        raise TraceError(f"request {seq}: address {addr:#x} "
                         f"beyond configured capacity ({cfg.host_space_bytes:#x})")


def _digest(content, touched, block):
    h = hashlib.sha256()
    zero = bytes(block)
    for block_id in sorted(touched):
        h.update(block_id.to_bytes(8, "little"))
        buf = content.get(block_id)
        h.update(bytes(buf) if buf is not None else zero)
    return h.hexdigest()


def _report(cfg, counts, clock, stall_ns, write_stalls, migrated_bytes,
            n_reads, n_writes, n_requests, footprint_pages,
            page_relocations, block_relocations, writebacks, recycles,
            threshold_final):
    total_fg = clock
    gib = cfg.fast_capacity_bytes / (1024 ** 3)
    bg_mw = cfg.fast_background_mw_per_gb * gib
    energy = {
        "energy_fast_background_nj": bg_mw * total_fg * 1e-3,
        "energy_fast_read_nj": (counts["fast_read"] + counts["mig_fast_read"]) * cfg.fast_read_nj,
        "energy_fast_write_nj": (counts["fast_write"] + counts["mig_fast_write"]) * cfg.fast_write_nj,
        "energy_slow_read_nj": (counts["slow_read"] + counts["mig_slow_read"]) * cfg.slow_read_nj,
        "energy_slow_write_nj": (counts["slow_write"] + counts["mig_slow_write"]) * cfg.slow_write_nj,
    }
    total_energy = (energy["energy_fast_background_nj"]
                    + energy["energy_fast_read_nj"]
                    + energy["energy_fast_write_nj"]
                    + energy["energy_slow_read_nj"]
                    + energy["energy_slow_write_nj"])
    fg = (counts["fast_read"] + counts["fast_write"]
          + counts["slow_read"] + counts["slow_write"])
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
        "threshold_final": threshold_final,
        "requests": n_requests,
        "reads": n_reads,
        "writes": n_writes,
        "footprint_pages": footprint_pages,
        "page_relocations": page_relocations,
        "block_relocations": block_relocations,
        "writebacks": writebacks,
        "recycles": recycles,
        "fast_reads": counts["fast_read"],
        "fast_writes": counts["fast_write"],
        "slow_reads": counts["slow_read"],
        "slow_writes": counts["slow_write"],
        "mig_fast_reads": counts["mig_fast_read"],
        "mig_fast_writes": counts["mig_fast_write"],
        "mig_slow_reads": counts["mig_slow_read"],
        "mig_slow_writes": counts["mig_slow_write"],
        "foreground_accesses": fg,
        "fast_hit_fraction": (counts["fast_read"] + counts["fast_write"]) / fg if fg else 1.0,
        "slow_writes_total": counts["slow_write"] + counts["mig_slow_write"],
        "migrated_bytes": migrated_bytes,
        "write_stalls": write_stalls,
        "stall_ns": stall_ns,
        "total_foreground_ns": total_fg,
        "elapsed_ns": total_fg,
    }
    report.update(energy)
    report["energy_total_nj"] = total_energy
    return report
