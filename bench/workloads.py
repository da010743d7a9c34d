"""The benchmark's workloads and their pinned simulated results.

Every workload shares the baseline geometry: 16 MiB fast, 64 MiB slow,
4 KiB pages, 128 B blocks, a 512-page recency window, DMA at 8 B/ns and
default device numbers. Traces are 64 B requests over a 32 MiB footprint.
Each workload pairs a generator with the policy that loads a different
layer; BENCHMARK.json records why each one was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

from tiersim import Policy, SimConfig, WorkloadSpec

DEFAULT_SEED = 1
REQUESTS = 100_000
SMOKE_REQUESTS = 3_000
FOOTPRINT_BYTES = 32 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str
    policy: Policy
    cache_zone_bytes: int
    gzip: bool

    def config(self, exact_recency: bool = False) -> SimConfig:
        return SimConfig(fast_capacity_bytes=16 << 20,
                         slow_capacity_bytes=64 << 20,
                         page_size_bytes=4096, block_size_bytes=128,
                         cache_zone_bytes=self.cache_zone_bytes,
                         policy=self.policy, bloom_window=512,
                         dma_bandwidth_bytes_per_ns=8.0,
                         exact_recency=exact_recency)

    def spec(self, seed: int, requests: int) -> WorkloadSpec:
        return WorkloadSpec(kind=self.generator,
                            footprint_bytes=FOOTPRINT_BYTES,
                            request_count=requests, write_fraction=0.3,
                            zipf_s=1.0, seed=seed)


WORKLOADS = {w.name: w for w in (
    # The adaptive policy on skewed traffic: the only workload that uses
    # the block cache.
    Workload("zipf-adpcomb", "zipfian", Policy.ADPCOMB, 2 << 20, gzip=False),
    # Every slow touch tries a swap: victim search, recency queries and
    # DMA chunk exchange; the block cache is off.
    Workload("sparse-pagemove", "sparse-wide", Policy.PAGEMOVE, 0, gzip=False),
    # Write-heavy and migration-free: gzip parsing, dispatch, metering and
    # the write-payload content model.
    Workload("stream-static", "streaming-store", Policy.STATIC, 0, gzip=True),
)}

PINNED_FIELDS = ("elapsed_ns", "energy_total_nj", "slow_writes_total",
                 "fast_hit_fraction", "page_relocations", "block_relocations",
                 "writebacks", "recycles", "migrated_bytes", "stall_ns")

# Simulated results at DEFAULT_SEED and REQUESTS. A run whose report or
# content digest differs from these has changed the model, not its speed.
PINNED = {
    "zipf-adpcomb": {
        "elapsed_ns": 6748850,
        "energy_total_nj": 1289789.0034375,
        "slow_writes_total": 51658,
        "fast_hit_fraction": 0.84255,
        "page_relocations": 1464,
        "block_relocations": 13841,
        "writebacks": 2,
        "recycles": 1305,
        "migrated_bytes": 13769344,
        "stall_ns": 0,
        "content_digest": "ad1d4826f54b97a6c59cd6dbcf99ace2a9d018e219d84c837f7475bd5dd4a1d6",
    },
    "sparse-pagemove": {
        "elapsed_ns": 10984800,
        "energy_total_nj": 5094120.705,
        "slow_writes_total": 283088,
        "fast_hit_fraction": 0.45776,
        "page_relocations": 8335,
        "block_relocations": 0,
        "writebacks": 0,
        "recycles": 0,
        "migrated_bytes": 68280320,
        "stall_ns": 0,
        "content_digest": "3cbb2b79d519e3169864cf5964a258a9906787661164de8054a85597074e615e",
    },
    "stream-static": {
        "elapsed_ns": 23588800,
        "energy_total_nj": 722273.9299999999,
        "slow_writes_total": 72712,
        "fast_hit_fraction": 0.19072,
        "page_relocations": 0,
        "block_relocations": 0,
        "writebacks": 0,
        "recycles": 0,
        "migrated_bytes": 0,
        "stall_ns": 0,
        "content_digest": "6c0bd59feb2ebfad93c02bd0d548cb99001859113ed910b466ff98606b3faa81",
    },
}
