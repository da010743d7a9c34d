"""Background DMA model: full-page swaps between tiers with chunk-granular
progress, plus the locator for requests that hit a page while it is in
flight. Progress is a pure function of time, so it is counted only where
it is read, and the chunks it counts land in the content model there too."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SwapJob:
    src_host: int          # host page being promoted (data currently slow)
    src_internal: int      # its slow-tier internal page
    dst_host: int          # host page being demoted
    dst_internal: int      # its fast-tier internal page
    start_ns: int
    due_ns: int                 # the first ns at which it is complete
    applied_chunks: int = 0     # chunks copied, in timing and content alike


class DmaEngine:
    """Single-job page-swap engine.

    Both directions of a swap advance in lockstep through a bounce buffer,
    so one scalar tracks progress and completion takes
    2 * page_bytes / bandwidth. Progress is a pure function of time
    (`chunks_done`), so the engine's clock is lazy: the caller advances it
    only before reading progress (a request to a page of the pair, a write
    stall, a victim write-back) and once the clock reaches the job's
    `due_ns`, so completion fires on the same request as it would if every
    request advanced the engine. Each advance moves the content of the
    chunks it counts in the same step, through one `exchange` call, so the
    content model always matches `applied_chunks` and `locate` only reads.
    A swap whose first advance completes it lands as one whole-page
    exchange.
    """

    def __init__(self, page_bytes: int, chunk_bytes: int, bandwidth: float,
                 exchange):
        self.page_bytes = page_bytes
        self.chunk_bytes = chunk_bytes
        self.total_chunks = page_bytes // chunk_bytes
        self.bandwidth = bandwidth
        # The bandwidth as an exact ratio: `rate` bytes every `per_ns` ns,
        # so every time below is exact integer arithmetic and they agree.
        self.rate, self.per_ns = bandwidth.as_integer_ratio()
        # Called with (first, stop) to swap chunks [first, stop) of content
        # between the two pages of the in-flight job, as they are copied;
        # the call with stop == total_chunks completes the swap.
        self.exchange = exchange
        self.job = None
        self.completed_swaps = 0

    @property
    def busy(self) -> bool:
        return self.job is not None

    def start_swap(self, src_host, src_internal, dst_host, dst_internal,
                   now_ns: int) -> SwapJob:
        assert self.job is None, "single DMA engine: swap already active"
        self.job = SwapJob(src_host, src_internal, dst_host, dst_internal,
                           now_ns, now_ns + self._elapsed_ns(self.page_bytes))
        return self.job

    def _elapsed_ns(self, nbytes: int) -> int:
        """Whole ns from a swap's start until each direction has moved
        `nbytes`: the ceiling of 2 * nbytes / bandwidth."""
        return -(-2 * nbytes * self.per_ns // self.rate)

    def chunks_done(self, now_ns: int) -> int:
        """Chunks the in-flight swap has copied by `now_ns`, `total_chunks`
        once it is complete. Moves no progress."""
        # Each direction has moved half of the bytes the engine carried.
        moved = (now_ns - self.job.start_ns) * self.rate // (2 * self.per_ns)
        return min(moved // self.chunk_bytes, self.total_chunks)

    def advance_to(self, now_ns: int):
        """Copy the chunks done by `now_ns`: exchange their content, and
        retire the job with its last chunk."""
        job = self.job
        if job is None:
            return
        done = self.chunks_done(now_ns)
        if done > job.applied_chunks:
            self.exchange(job.applied_chunks, done)
            job.applied_chunks = done
            if done == self.total_chunks:
                self.job = None
                self.completed_swaps += 1

    def chunk_done_ns(self, chunk_index: int) -> int:
        """Time at which `chunk_index` finishes copying."""
        return self.job.start_ns + self._elapsed_ns(
            self.chunk_bytes * (chunk_index + 1))

    # Routing -----------------------------------------------------------

    def locate(self, host_page: int, offset_in_page: int):
        """Internal page holding this byte of `host_page`, or None when the
        page is not in flight. Only reads."""
        job = self.job
        if job is None:
            return None
        if host_page == job.src_host:
            old, new = job.src_internal, job.dst_internal
        elif host_page == job.dst_host:
            old, new = job.dst_internal, job.src_internal
        else:
            return None
        copied = offset_in_page // self.chunk_bytes < job.applied_chunks
        return new if copied else old

    def write_stall_ns(self, offset_in_page: int, now_ns: int) -> int:
        """Extra wait for a write landing in the chunk currently copying."""
        job = self.job
        chunk = offset_in_page // self.chunk_bytes
        if chunk != job.applied_chunks:
            return 0
        return max(0, self.chunk_done_ns(chunk) - now_ns)
