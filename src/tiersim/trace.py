"""Packed traces, trace parsing, block-boundary splitting, and synthetic
workload generation with controllable spatial locality."""

from __future__ import annotations

import bisect
import gzip
import io
import random
import re
import zlib
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, repeat
from operator import add, eq, mod

from .recency import mix64

DEFAULT_REQUEST_BYTES = 64
DEFAULT_BLOCK_BYTES = 128

WORKLOAD_KINDS = ("sequential", "strided", "zipfian", "sparse-wide",
                  "streaming-store")


# The canonical line `write_trace` writes, and the pattern of a run of such
# lines (sizes positive, the last line's newline optional) that
# `load_trace` parses in bulk.
_format_line = "{} {:#x} {}".format
_CANONICAL = re.compile(rb"(?:[RW] 0x[0-9a-f]+ [1-9][0-9]*\n)*"
                        rb"(?:[RW] 0x[0-9a-f]+ [1-9][0-9]*)?")
# Bytes per chunk `load_trace` reads, and records per chunk `write_trace`
# writes. A chunk's tokens are resident while it is parsed, so a larger
# chunk raises the peak RSS of a process holding a small trace.
_CHUNK_BYTES = 64 * 1024
_WRITE_RECORDS = 4096


class TraceError(ValueError):
    """Malformed trace input."""


class TraceBoundError(TraceError):
    """A request that ends beyond the end bound the trace was read with."""


@dataclass(frozen=True)
class TraceRecord:
    kind: str          # "R" or "W"
    host_addr: int
    size_bytes: int

    def line(self) -> str:
        return _format_line(self.kind, self.host_addr, self.size_bytes)


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

    def append(self, kind, addr, size, block_bytes=_ADDR_END, end=_ADDR_END):
        """Append one request, split at block boundaries in order. A request
        that ends beyond `end` is refused before it is split, so no request
        yields more records than `end` holds blocks."""
        if (kind not in _KIND_CODES or addr < 0 or not 0 <= size < _SIZE_END
                or addr + size > _ADDR_END):
            raise TraceError(
                f"{kind} {addr:#x} {size} does not fit the trace "
                f"(R or W, addresses below 2**64, sizes below 2**{_SIZE_BITS})")
        if addr + size > end:
            raise TraceBoundError(f"{kind} {addr:#x} {size} ends beyond {end:#x}")
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


def parse_trace(stream, block_bytes: int = DEFAULT_BLOCK_BYTES,
                end: int = _ADDR_END) -> Trace:
    """Parse `R|W <hex-addr> [<size>]` lines into a trace of split records;
    a request that ends beyond `end` is an error."""
    trace = Trace()
    _parse_lines(trace, stream, block_bytes, end)
    return trace


def _parse_lines(trace, lines, block_bytes, end, lineno=0):
    """Append the records of `lines`, numbered from `lineno + 1`, to
    `trace`, and return the number of the last line."""
    for lineno, raw in enumerate(lines, lineno + 1):
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
            trace.append(kind, addr, size, block_bytes, end)
        except TraceError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return lineno


def _canonical_head(chunk) -> int:
    """The length of the run of canonical lines `chunk` starts with: all of
    it, or up to the newline before its first other line."""
    end = _CANONICAL.match(chunk).end()
    return end if end == len(chunk) else chunk.rfind(b"\n", 0, end) + 1


def _extend_canonical(trace, lines, block_bytes, end) -> bool:
    """Append canonical `lines` to `trace`, building its columns with
    C-level calls; a request that crosses a block is split as
    `Trace.append` splits it. Return False, leaving `trace` as it was, when
    a value does not fit its column or a request ends beyond `end`; the
    line parser then takes the lines, and its error names the line."""
    tokens = lines.split()
    try:
        addrs = array("Q", map(int, tokens[1::3], repeat(16)))
        sizes = array("I", map(int, tokens[2::3]))
    except OverflowError:
        return False
    # The largest address plus the largest size bounds every request's end,
    # so each request's own end is summed only when that bound is crossed.
    end = min(end, _ADDR_END)
    if max(addrs) + max(sizes) > end and max(map(add, addrs, sizes)) > end:
        return False
    kinds = b"".join(tokens[0::3])
    if max(map(add, map(mod, addrs, repeat(block_bytes)), sizes)) > block_bytes:
        for kind, addr, size in zip(kinds.decode("ascii"), addrs, sizes):
            trace.append(kind, addr, size, block_bytes)
        return True
    trace._kinds += kinds
    trace.addrs += addrs
    trace.sizes += sizes
    return True


def _chunks(fh):
    """The bytes of `fh` in chunks that end at a line end, except the last;
    a chunk is at most `_CHUNK_BYTES` long unless one line is. A line ends
    at b"\n" or at a b"\r" not followed by b"\n", as in a file opened as
    text."""
    held, held_bytes = [], 0
    while True:
        room = _CHUNK_BYTES - held_bytes
        block = fh.read(room if room > 0 else _CHUNK_BYTES)
        if not block:
            break
        # Only the bytes just read are searched, so a long line costs
        # linear time; a final b"\r" may begin a b"\r\n" and is held.
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        if cut:
            held.append(block[:cut])
            yield b"".join(held)
            block = block[cut:]
            held, held_bytes = [], 0
        held.append(block)
        held_bytes += len(block)
    tail = b"".join(held)
    if tail:
        yield tail


def open_trace(path, mode="rt"):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def load_trace(path, block_bytes: int = DEFAULT_BLOCK_BYTES,
               end: int = _ADDR_END) -> Trace:
    """Load a trace file (`.gz` is decompressed) into a trace of split
    records, exactly as `parse_trace` on the file opened as text would.
    The lines of a chunk in `write_trace`'s form, up to the first line that
    is not, are parsed in bulk; the rest of the chunk goes through the
    line parser. A request that ends beyond `end` raises a
    `TraceBoundError` naming its line before it is split."""
    trace = Trace()
    lineno = 0
    try:
        with open_trace(path, "rb") as fh:
            for chunk in _chunks(fh):
                head = _canonical_head(chunk) if block_bytes >= 1 else 0
                if head and _extend_canonical(trace, chunk[:head],
                                              block_bytes, end):
                    lineno += chunk.count(b"\n", 0, head)
                    chunk = chunk[head:]
                if chunk:
                    lineno = _parse_lines(trace, io.TextIOWrapper(io.BytesIO(chunk)),
                                          block_bytes, end, lineno)
    except (EOFError, zlib.error, gzip.BadGzipFile, UnicodeDecodeError) as exc:
        raise TraceError(f"{path}: unreadable trace: {exc}") from None
    return trace


def write_trace(path, records):
    """Write records one per line; a `.gz` path is gzip-compressed."""
    if not isinstance(records, Trace):
        records = Trace(records)
    with open_trace(path, "wt") as fh:
        for start in range(0, len(records), _WRITE_RECORDS):
            stop = start + _WRITE_RECORDS
            lines = map(_format_line, records._kinds[start:stop].decode("ascii"),
                        records.addrs[start:stop], records.sizes[start:stop])
            fh.write("\n".join(lines) + "\n")


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
