"""Background DMA model: full-page swaps between tiers with chunk-granular
progress, plus the locator for requests that hit a page while it is in
flight. Progress is a pure function of time, so it is counted only where
it is read; chunk content lands only when a pair page is located or the swap
completes."""

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
    due_ns: int                 # never after the first ns it completes
    applied_chunks: int = 0     # chunks copied by the timing model
    exchanged_chunks: int = 0   # of those, chunks moved in the content model

    @property
    def total_chunks(self) -> int:
        return self.page_bytes // self.chunk_bytes


class DmaEngine:
    """Single-job page-swap engine.

    Both directions of a swap advance in lockstep through a bounce buffer,
    so one scalar tracks progress and completion takes
    2 * page_bytes / bandwidth. Progress is a pure function of time
    (`chunks_done`), so the engine's clock is lazy: the caller advances it
    only before reading progress (a request to a page of the pair, a write
    stall, a victim write-back) and once the clock reaches the job's
    `due_ns`, so completion fires on the same request as it would if every
    request advanced the engine. Advancing the engine only moves the timing
    model's progress. The copied chunks land in the content model later, in
    one exchange: when `locate` is about to return a page of the in-flight
    pair, or when the swap completes. `locate` is the only way to reach the
    pair's buffers while the swap is in flight, so no stale byte is ever
    read, and a swap whose pair nobody touches lands as one whole-page
    exchange.
    """

    def __init__(self, page_bytes: int, chunk_bytes: int, bandwidth: float,
                 on_complete, exchange=None):
        self.page_bytes = page_bytes
        self.chunk_bytes = chunk_bytes
        self.bandwidth = bandwidth
        self.on_complete = on_complete   # called with the finished SwapJob
        # Called with (first, stop) to swap chunks [first, stop) of content
        # between the two pages of the in-flight job; see `_land` for when.
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
        # `chunks_done` completes at the first elapsed ns whose rounded
        # product reaches the page. Rounding moves that far less than a ns
        # from the exact duration, so it is never below floor(duration); one
        # ns less is a margin, and checking early costs one extra call.
        due_ns = now_ns + math.floor(self.duration_ns()) - 1
        self.job = SwapJob(src_host, src_internal, dst_host, dst_internal,
                           now_ns, self.page_bytes, self.chunk_bytes, due_ns)
        return self.job

    def chunks_done(self, now_ns: int) -> int:
        """Chunks the in-flight swap has copied by `now_ns`, `total_chunks`
        once it is complete. Moves no progress."""
        job = self.job
        # Each direction has moved half of the bytes the engine carried.
        moved = (now_ns - job.start_ns) * self.bandwidth / 2
        if moved < self.page_bytes:
            return int(moved // self.chunk_bytes)
        return job.total_chunks

    def advance_to(self, now_ns: int):
        """Count chunk copies up to `now_ns`; on completion, land the rest
        and fire completion."""
        job = self.job
        if job is None:
            return
        done = self.chunks_done(now_ns)
        if done < job.total_chunks:
            if done > job.applied_chunks:
                job.applied_chunks = done
        else:
            job.applied_chunks = done
            self._land(job)
            self.job = None
            self.completed_swaps += 1
            self.on_complete(job)

    def _land(self, job: SwapJob):
        """Move the content of the chunks copied since the last landing."""
        if job.exchanged_chunks != job.applied_chunks:
            if self.exchange is not None:
                self.exchange(job.exchanged_chunks, job.applied_chunks)
            job.exchanged_chunks = job.applied_chunks

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
        if host_page == job.src_host:
            old, new = job.src_internal, job.dst_internal
        elif host_page == job.dst_host:
            old, new = job.dst_internal, job.src_internal
        else:
            return None
        self._land(job)
        copied = offset_in_page // self.chunk_bytes < job.applied_chunks
        return new if copied else old

    def write_stall_ns(self, offset_in_page: int, now_ns: int) -> int:
        """Extra wait for a write landing in the chunk currently copying."""
        job = self.job
        chunk = offset_in_page // self.chunk_bytes
        if chunk != job.applied_chunks:
            return 0
        return max(0, self.chunk_done_ns(chunk) - now_ns)
