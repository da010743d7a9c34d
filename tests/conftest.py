import hashlib
import random

import pytest

from tiersim import Policy, SimConfig, Simulator, Trace
from tiersim.recency import mix64


def small_config(policy=Policy.PAGEMOVE, **overrides):
    """A tiny geometry that still has room for swaps and cache churn."""
    base = dict(
        fast_capacity_bytes=256 * 1024,      # 64 pages
        slow_capacity_bytes=1024 * 1024,     # 256 pages
        page_size_bytes=4096,
        block_size_bytes=128,
        cache_zone_bytes=64 * 1024 if policy in (Policy.STATCOMB, Policy.ADPCOMB) else 0,
        bloom_window=16,
        policy=policy,
        rng_seed=1,
    )
    base.update(overrides)
    return SimConfig(**base)


def run_trace(records, config):
    """One simulator, one trace, one report."""
    return Simulator(config).run(records)


def dump_pagetable(pt) -> str:
    """A header, then one line per host page: its internal page,
    cached-block count and access bitmap."""
    lines = ["host_page internal_page cached_blocks bitmap"]
    for host, internal in enumerate(pt.table):
        lines.append(f"{host} {internal} {pt.cached_blocks[host]} "
                     f"{pt.bitmap[host]:08b}")
    return "\n".join(lines)


def random_records(n, host_space_bytes, seed, write_fraction=0.5,
                   page_bytes=4096, sizes=(8, 16, 64, 128)):
    """Aligned, block-contained random requests over the whole host space,
    packed into a `Trace`."""
    rng = random.Random(seed)
    randrange, choice, rand = rng.randrange, rng.choice, rng.random
    pages = host_space_bytes // page_bytes
    trace = Trace()
    append = trace.append
    for _ in range(n):
        page = randrange(pages)
        off = randrange(0, page_bytes, 8)
        size = min(choice(sizes), 128 - off % 128)
        append("W" if rand() < write_fraction else "R",
               page * page_bytes + off, size)
    return trace


def shadow_run(config, trace):
    """Serve a trace in one batch with per-request outcomes, then check
    every read against a flat shadow model of memory contents, replayed
    over the outcomes in order. Each read's bytes were captured when it was
    served, so the replay sees what the simulator returned at that point.
    Returns (simulator, report, mismatches).

    Also checks that the per-request outcomes add up to the report: their
    latencies and stalls to the elapsed time, and their devices to the
    foreground fast-tier accesses."""
    sim = Simulator(config)
    outcomes = []
    sim._serve(trace.kinds, trace.addrs, trace.sizes, 0, outcomes)
    assert len(outcomes) == len(trace)
    # One byte per host byte; never-written bytes read as zeros. Byte i of
    # write `seq` is (seq + i) & 0xFF, which is byte (seq & 0xFF) + i of
    # `cycle`, so a write of up to a block is one slice of it.
    shadow = bytearray(config.host_space_bytes)
    cycle = bytes(i & 0xFF for i in range(256 + config.block_size_bytes))
    mismatches = 0
    service_ns = 0
    fast_outcomes = 0
    for seq, (kind, addr, size, out) in enumerate(
            zip(trace.kinds, trace.addrs, trace.sizes, outcomes)):
        assert out.seq == seq
        service_ns += out.latency_ns + out.stall_ns
        fast_outcomes += out.device == "fast"
        if kind == "W":
            start = seq & 0xFF
            shadow[addr:addr + size] = cycle[start:start + size]
        elif out.data != shadow[addr:addr + size]:
            mismatches += 1
    report = sim.finish()
    assert service_ns == report["elapsed_ns"]
    assert fast_outcomes == report["fast_reads"] + report["fast_writes"]
    return sim, report, mismatches


def peek_digest(sim):
    """The content digest from its definition, built on public `peek` alone:
    every touched block, in id order, as its id and `peek`'s bytes."""
    block = sim.block_bytes
    h = hashlib.sha256()
    for block_id, flag in enumerate(sim.touched):
        if flag:
            h.update(block_id.to_bytes(8, "little"))
            h.update(sim.peek(block_id * block, block))
    return h.hexdigest()


class ReferenceBloom:
    """Two rotating banks held as sets of bit positions, each key hashed on
    every call straight from the double-hash definition."""

    def __init__(self, window, nbits, k):
        self.window, self.nbits, self.k = window, nbits, k
        self.active, self.aging, self.count = set(), set(), 0

    def positions(self, key):
        h1 = mix64(key)
        h2 = mix64(key ^ 0xA5A5A5A5A5A5A5A5) | 1
        return {(h1 + i * h2) % 2 ** 64 % self.nbits for i in range(self.k)}

    def record(self, key):
        self.active |= self.positions(key)
        self.count += 1
        if self.count == self.window:
            self.aging, self.active, self.count = self.active, set(), 0

    def __contains__(self, key):
        positions = self.positions(key)
        return positions <= self.active or positions <= self.aging


def random_oracle_config(rng, policy, exact=True):
    """Small but varied geometry; always valid for the given policy."""
    page = rng.choice([2048, 4096])
    fast_pages = rng.choice([32, 48, 64, 96])
    slow_pages = rng.choice([128, 192, 256])
    caching = policy in (Policy.STATCOMB, Policy.ADPCOMB)
    sets = rng.choice([16, 32, 64]) if caching else 0
    cache_zone = sets * 128 * 4
    kwargs = dict(
        fast_capacity_bytes=fast_pages * page + cache_zone,
        slow_capacity_bytes=slow_pages * page,
        page_size_bytes=page,
        cache_zone_bytes=cache_zone,
        bloom_window=rng.choice([4, 8, 16]),
        policy=policy,
        promotion_threshold=rng.choice([1, 2, 3, 4, 6]),
        dma_bandwidth_bytes_per_ns=rng.choice([2.0, 4.0, 8.0, 16.0]),
        rng_seed=rng.randrange(1 << 16),
        exact_recency=exact,
        adaptive_window_pages=rng.choice([0, 4, 16]),
    )
    if policy is Policy.ALLDRAM:
        kwargs.update(fast_capacity_bytes=(fast_pages + slow_pages) * page,
                      slow_capacity_bytes=0, cache_zone_bytes=0)
    return SimConfig(**kwargs)


@pytest.fixture
def tmp_trace(tmp_path):
    def write(lines, name="t.trc"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)
    return write
