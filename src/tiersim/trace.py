"""Packed traces, trace parsing, block-boundary splitting, and synthetic
workload generation with controllable spatial locality."""

from __future__ import annotations

import bisect
import gzip
import random
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import eq

from .recency import mix64

DEFAULT_REQUEST_BYTES = 64
DEFAULT_BLOCK_BYTES = 128

WORKLOAD_KINDS = ("sequential", "strided", "zipfian", "sparse-wide",
                  "streaming-store")


class TraceError(ValueError):
    """Malformed trace input."""


@dataclass(frozen=True)
class TraceRecord:
    kind: str          # "R" or "W"
    host_addr: int
    size_bytes: int

    def line(self) -> str:
        return f"{self.kind} {self.host_addr:#x} {self.size_bytes}"


# The columns hold addresses below 2**64 and sizes below 2**32; a block of
# 2**64 bytes leaves every request whole.
_ADDR_END = 1 << 64
_SIZE_BITS = 8 * array("I").itemsize
_SIZE_END = 1 << _SIZE_BITS
_KIND_CODES = {"R": ord("R"), "W": ord("W")}


class Trace:
    """Trace records packed in three columns, about 13 bytes a record: one
    byte per kind, addresses in array('Q'), sizes in array('I'). Packs any
    iterable of records; indexing and iteration give `TraceRecord` views,
    and a trace equals a list of the same records."""

    __slots__ = ("_kinds", "addrs", "sizes")

    def __init__(self, records=()):
        self._kinds = bytearray()
        self.addrs = array("Q")
        self.sizes = array("I")
        for seq, rec in enumerate(records):
            try:
                self.append(rec.kind, rec.host_addr, rec.size_bytes)
            except TraceError as exc:
                raise TraceError(f"request {seq}: {exc}") from None

    def append(self, kind, addr, size, block_bytes=_ADDR_END):
        """Append one request, split at block boundaries in order."""
        if (kind not in _KIND_CODES or addr < 0 or not 0 <= size < _SIZE_END
                or addr + size > _ADDR_END):
            raise TraceError(
                f"{kind} {addr:#x} {size} does not fit the trace "
                f"(R or W, addresses below 2**64, sizes below 2**{_SIZE_BITS})")
        if block_bytes < 1:
            raise TraceError(f"block size {block_bytes} must be positive")
        code = _KIND_CODES[kind]
        while True:
            take = min(size, block_bytes - addr % block_bytes)
            self._kinds.append(code)
            self.addrs.append(addr)
            self.sizes.append(take)
            addr += take
            size -= take
            if size <= 0:
                return

    @property
    def kinds(self) -> str:
        return self._kinds.decode("ascii")

    def __len__(self):
        return len(self.addrs)

    def __getitem__(self, index):
        return TraceRecord(chr(self._kinds[index]), self.addrs[index],
                           self.sizes[index])

    def __iter__(self):
        return map(TraceRecord, self.kinds, self.addrs, self.sizes)

    def __eq__(self, other):
        if not isinstance(other, (Trace, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


def split_record(kind: str, addr: int, size: int,
                 block_bytes: int = DEFAULT_BLOCK_BYTES):
    """Split one request at block boundaries, preserving order and bytes."""
    pieces = Trace()
    pieces.append(kind, addr, size, block_bytes)
    return list(pieces)


def parse_trace(stream, block_bytes: int = DEFAULT_BLOCK_BYTES) -> Trace:
    """Parse `R|W <hex-addr> [<size>]` lines into a trace of split records."""
    trace = Trace()
    for lineno, raw in enumerate(stream, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].upper()
        if kind not in ("R", "W") or not 2 <= len(parts) <= 3:
            raise TraceError(f"line {lineno}: expected 'R|W <addr> [<size>]', got {raw!r}")
        try:
            addr = int(parts[1], 16)
        except ValueError:
            raise TraceError(f"line {lineno}: bad address {parts[1]!r}") from None
        size = DEFAULT_REQUEST_BYTES
        if len(parts) == 3:
            try:
                size = int(parts[2])
            except ValueError:
                raise TraceError(f"line {lineno}: bad size {parts[2]!r}") from None
        if size <= 0:
            raise TraceError(f"line {lineno}: size must be positive")
        try:
            trace.append(kind, addr, size, block_bytes)
        except TraceError as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
    return trace


def open_trace(path, mode="rt"):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def load_trace(path, block_bytes: int = DEFAULT_BLOCK_BYTES) -> Trace:
    with open_trace(path) as fh:
        return parse_trace(fh, block_bytes)


def write_trace(path, records):
    """Write records one per line; a `.gz` path is gzip-compressed."""
    with open_trace(path, "wt") as fh:
        for rec in records:
            fh.write(rec.line() + "\n")


# Synthetic workloads -------------------------------------------------------


@dataclass
class WorkloadSpec:
    kind: str
    footprint_bytes: int
    request_count: int
    write_fraction: float = 0.3
    request_bytes: int = DEFAULT_REQUEST_BYTES
    page_bytes: int = 4096
    stride_bytes: int = 4096
    zipf_s: float = 1.0
    seed: int = 0

    def validate(self):
        if self.kind not in WORKLOAD_KINDS:
            raise TraceError(f"unknown workload kind {self.kind!r}")
        if self.footprint_bytes < self.page_bytes:
            raise TraceError("footprint smaller than one page")
        if self.request_count <= 0:
            raise TraceError("request count must be positive")
        if self.request_bytes <= 0 or self.page_bytes % self.request_bytes:
            raise TraceError("page size must be a multiple of the request size")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise TraceError("write fraction must be in [0, 1]")
        return self


def _kind_for(rng, write_fraction):
    return "W" if rng.random() < write_fraction else "R"


def generate(spec: WorkloadSpec, block_bytes: int = _ADDR_END) -> Trace:
    """Produce a deterministic trace for the given workload shape, with
    requests split at `block_bytes` boundaries."""
    spec.validate()
    rng = random.Random(spec.seed)
    pages = spec.footprint_bytes // spec.page_bytes
    lines_per_page = spec.page_bytes // spec.request_bytes
    total_lines = pages * lines_per_page
    trace = Trace()
    add = partial(trace.append, block_bytes=block_bytes)

    if spec.kind in ("sequential", "streaming-store"):
        wf = spec.write_fraction if spec.kind == "sequential" else max(spec.write_fraction, 0.9)
        for i in range(spec.request_count):
            addr = (i % total_lines) * spec.request_bytes
            add(_kind_for(rng, wf), addr, spec.request_bytes)

    elif spec.kind == "strided":
        stride = max(spec.request_bytes, spec.stride_bytes)
        stride -= stride % spec.request_bytes
        pos = 0
        for i in range(spec.request_count):
            addr = pos % spec.footprint_bytes
            addr -= addr % spec.request_bytes
            add(_kind_for(rng, spec.write_fraction), addr, spec.request_bytes)
            pos += stride

    elif spec.kind == "zipfian":
        # Rank pages by a power law, then scatter the ranks across the
        # footprint so hot pages are not clustered at low addresses. The
        # touched line inside a page is uniform; s == 0 degenerates to a
        # uniform page distribution.
        cumulative = list(accumulate(1.0 / (r ** spec.zipf_s)
                                     for r in range(1, pages + 1)))
        total = cumulative[-1]
        page_of_rank = list(range(pages))
        rng.shuffle(page_of_rank)
        for i in range(spec.request_count):
            rank = bisect.bisect_left(cumulative, rng.random() * total)
            page = page_of_rank[min(rank, pages - 1)]
            line = rng.randrange(lines_per_page)
            addr = page * spec.page_bytes + line * spec.request_bytes
            add(_kind_for(rng, spec.write_fraction), addr, spec.request_bytes)

    elif spec.kind == "sparse-wide":
        # One fixed line per page; pages visited in a fresh random order
        # each full pass, so N requests over N pages touch N distinct pages.
        order = list(range(pages))
        line_of_page = [mix64(spec.seed * 0x10001 + p) % lines_per_page
                        for p in range(pages)]
        for i in range(spec.request_count):
            if i % pages == 0:
                rng.shuffle(order)
            page = order[i % pages]
            addr = page * spec.page_bytes + line_of_page[page] * spec.request_bytes
            add(_kind_for(rng, spec.write_fraction), addr, spec.request_bytes)

    return trace
