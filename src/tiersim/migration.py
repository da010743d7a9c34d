"""Background DMA model: full-page swaps between tiers with chunk-granular
progress, plus the locator for requests that hit a page while it is in
flight."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class SwapJob:
    src_host: int          # host page being promoted (data currently slow)
    src_internal: int      # its slow-tier internal page
    dst_host: int          # host page being demoted
    dst_internal: int      # its fast-tier internal page
    start_ns: int
    page_bytes: int
    chunk_bytes: int
    applied_chunks: int = 0

    @property
    def total_chunks(self) -> int:
        return self.page_bytes // self.chunk_bytes


class DmaEngine:
    """Single-job page-swap engine.

    Both directions of a swap advance in lockstep through a bounce buffer,
    so one scalar tracks progress and completion takes
    2 * page_bytes / bandwidth.  Chunk exchanges are applied to the content
    model whenever the engine is advanced, which happens at request
    boundaries and on write stalls.
    """

    def __init__(self, page_bytes: int, chunk_bytes: int, bandwidth: float,
                 on_complete, exchange=None):
        self.page_bytes = page_bytes
        self.chunk_bytes = chunk_bytes
        self.bandwidth = bandwidth
        self.on_complete = on_complete   # called with the finished SwapJob
        # Called with each chunk index as it lands, to swap that chunk of
        # content between the two pages.
        self.exchange = exchange
        self.job = None
        self.completed_swaps = 0

    @property
    def busy(self) -> bool:
        return self.job is not None

    def duration_ns(self) -> float:
        return 2 * self.page_bytes / self.bandwidth

    def start_swap(self, src_host, src_internal, dst_host, dst_internal,
                   now_ns: int) -> SwapJob:
        assert self.job is None, "single DMA engine: swap already active"
        self.job = SwapJob(src_host, src_internal, dst_host, dst_internal,
                           now_ns, self.page_bytes, self.chunk_bytes)
        return self.job

    def _chunks_done_at(self, now_ns: int) -> int:
        job = self.job
        elapsed = now_ns - job.start_ns
        if elapsed <= 0:
            return 0
        if elapsed * self.bandwidth / 2 >= self.page_bytes:
            return job.total_chunks
        return int(elapsed * self.bandwidth / 2 // self.chunk_bytes)

    def advance_to(self, now_ns: int):
        """Apply chunk copies up to `now_ns`; fire completion when done."""
        job = self.job
        if job is None:
            return
        done = self._chunks_done_at(now_ns)
        if self.exchange is not None:
            for k in range(job.applied_chunks, done):
                self.exchange(k)
        job.applied_chunks = max(job.applied_chunks, done)
        if job.applied_chunks >= job.total_chunks:
            self.job = None
            self.completed_swaps += 1
            self.on_complete(job)

    def completion_ns(self) -> int:
        assert self.job is not None
        return self.job.start_ns + math.ceil(self.duration_ns())

    def chunk_done_ns(self, chunk_index: int) -> int:
        """Time at which `chunk_index` finishes copying."""
        job = self.job
        return job.start_ns + math.ceil(
            2 * self.chunk_bytes * (chunk_index + 1) / self.bandwidth)

    # Routing -----------------------------------------------------------

    def locate(self, host_page: int, offset_in_page: int):
        """Internal page holding this byte of `host_page`, or None when the
        page is not in flight."""
        job = self.job
        if job is None:
            return None
        copied = offset_in_page // self.chunk_bytes < job.applied_chunks
        if host_page == job.src_host:
            return job.dst_internal if copied else job.src_internal
        if host_page == job.dst_host:
            return job.src_internal if copied else job.dst_internal
        return None

    def write_stall_ns(self, offset_in_page: int, now_ns: int) -> int:
        """Extra wait for a write landing in the chunk currently copying."""
        job = self.job
        chunk = offset_in_page // self.chunk_bytes
        if chunk != job.applied_chunks:
            return 0
        return max(0, self.chunk_done_ns(chunk) - now_ns)
