import random

import pytest

from tiersim import MemoryRequest, Policy, SimConfig, Simulator, Trace


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
    """Dispatch a trace's records while checking every read against a flat
    shadow model of memory contents. Returns (simulator, report,
    mismatches).

    Also checks that the per-request outcomes add up to the report: their
    latencies and stalls to the elapsed time, and their devices to the
    foreground fast-tier accesses."""
    sim = Simulator(config)
    # One byte per host byte; never-written bytes read as zeros. Byte i of
    # write `seq` is (seq + i) & 0xFF, which is byte (seq & 0xFF) + i of
    # `cycle`, so a write of up to a block is one slice of it.
    shadow = bytearray(config.host_space_bytes)
    cycle = bytes(i & 0xFF for i in range(256 + config.block_size_bytes))
    mismatches = 0
    service_ns = 0
    fast_outcomes = 0
    for seq, (kind, addr, size) in enumerate(
            zip(trace.kinds, trace.addrs, trace.sizes)):
        out = sim.dispatch(MemoryRequest(kind, addr, size, seq))
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
