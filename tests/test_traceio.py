import gzip
import io
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiersim import trace as trace_module
from tiersim.trace import (Trace, TraceBoundError, TraceError, TraceRecord,
                           WorkloadSpec, generate, load_trace, open_trace,
                           parse_trace, write_trace)


def parse_lines(*lines, block=128):
    return parse_trace(io.StringIO("\n".join(lines)), block)


def split_record(kind, addr, size, block_bytes=128):
    """Split one request at block boundaries, preserving order and bytes."""
    pieces = Trace()
    pieces.append(kind, addr, size, block_bytes)
    return list(pieces)


class TestParse:
    def test_default_size_read(self):
        recs = parse_lines("R 0x1000")
        assert recs == [TraceRecord("R", 0x1000, 64)]

    def test_boundary_split(self):
        # 16 bytes starting 8 short of a block boundary -> 8 + 8
        recs = parse_lines("W 0x10f8 16")
        assert recs == [TraceRecord("W", 0x10F8, 8), TraceRecord("W", 0x1100, 8)]

    def test_split_preserves_bytes_and_order(self):
        recs = split_record("R", 0x0FF0, 300, 128)
        assert sum(r.size_bytes for r in recs) == 300
        addrs = [r.host_addr for r in recs]
        assert addrs == sorted(addrs)
        for r in recs:
            assert r.host_addr // 128 == (r.host_addr + r.size_bytes - 1) // 128

    def test_comments_and_blanks(self):
        recs = parse_lines("# header", "", "R 0x40  # trailing", "  ")
        assert len(recs) == 1 and recs[0].host_addr == 0x40

    def test_bad_kind(self):
        with pytest.raises(TraceError, match="line 1"):
            parse_lines("X 0x0")

    def test_bad_size(self):
        with pytest.raises(TraceError, match="size"):
            parse_lines("R 0x0 0")

    def test_bad_address_reports_line(self):
        with pytest.raises(TraceError, match="line 2"):
            parse_lines("R 0x0", "R zzz")

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "t.trc.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("R 0x1000 64\nW 0x2000 32\n")
        recs = load_trace(str(path))
        assert [r.kind for r in recs] == ["R", "W"]

    def test_file_roundtrip(self, tmp_path):
        spec = WorkloadSpec(kind="zipfian", footprint_bytes=64 * 4096,
                            request_count=500, seed=3)
        recs = generate(spec)
        path = tmp_path / "t.trc"
        write_trace(str(path), recs)
        assert load_trace(str(path)) == recs

    def test_write_packs_a_list_of_records(self, tmp_path):
        recs = [TraceRecord("R", 0x40, 64), TraceRecord("W", 0x1000, 8)]
        path = tmp_path / "t.trc"
        write_trace(path, recs)
        assert path.read_text() == "R 0x40 64\nW 0x1000 8\n"
        # A record the loader would reject is refused before the file opens.
        bad = tmp_path / "bad.trc"
        with pytest.raises(TraceError, match="request 1"):
            write_trace(bad, [recs[0], TraceRecord("X", 0, 64)])
        assert not bad.exists()

    def test_address_past_the_column_names_its_line(self):
        with pytest.raises(TraceError, match="line 2: R 0x10000000000000000 64 "
                           "does not fit"):
            parse_lines("R 0x0", "R 0x10000000000000000")
        with pytest.raises(TraceError, match="line 1: W 0xffffffffffffffc0 65"):
            parse_lines("W 0xffffffffffffffc0 65")
        recs = parse_lines("W 0xffffffffffffffc0 64")
        assert recs == [TraceRecord("W", 0xFFFFFFFFFFFFFFC0, 64)]

    def test_size_past_the_column_names_its_line(self):
        with pytest.raises(TraceError, match=f"line 1: R 0x0 {1 << 32} does"):
            parse_lines(f"R 0x0 {1 << 32}")

    def test_missing_address_names_its_line(self):
        with pytest.raises(TraceError, match="line 2: expected"):
            parse_lines("R 0x0", "W")


def old_parse(lines, block=128):
    """Reference parser: a plain list of TraceRecords split at blocks."""
    out = []
    for raw in lines:
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        addr = int(parts[1], 16)
        size = int(parts[2]) if len(parts) == 3 else 64
        while size > 0:
            take = min(size, block - addr % block)
            out.append(TraceRecord(parts[0].upper(), addr, take))
            addr += take
            size -= take
    return out


def canonical_lines(n, seed):
    rng = random.Random(seed)
    return [f"{rng.choice('RW')} {rng.randrange(1 << 30):#x} "
            f"{rng.choice([8, 64, 128, 300])}" for _ in range(n)]


def write_lines(path, lines):
    with open_trace(path, "wt") as fh:
        fh.write("".join(line + "\n" for line in lines))


class TestPackedTrace:
    INPUTS = [
        ["R 0x1000"],
        ["W 0x10f8 16"],
        ["R 0x0FF0 300"],
        ["# header", "", "R 0x40  # trailing", "  "],
        ["R 0x1000 64", "W 0x2000 32"],
        canonical_lines(500, seed=3),
    ]

    @pytest.mark.parametrize("lines", INPUTS)
    def test_views_agree_with_the_old_parser(self, lines):
        ref = old_parse(lines)
        trace = parse_trace(io.StringIO("\n".join(lines)))
        assert isinstance(trace, Trace)
        assert len(trace) == len(ref)
        assert [trace[i] for i in range(len(ref))] == ref
        assert trace[-1] == ref[-1]
        assert list(trace) == ref
        assert trace == ref and ref == trace

    def test_resident_bytes_per_record(self, tmp_path):
        path = tmp_path / "t.trc"
        write_lines(path, [f"{'RW'[i % 2]} {i * 64:#x} 64"
                           for i in range(20_000)])
        tracemalloc.start()
        try:
            trace = load_trace(str(path))
            resident = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(trace) == 20_000
        assert resident / len(trace) <= 16

    @pytest.mark.parametrize("name", ["t.trc", "t.trc.gz"])
    def test_write_reproduces_the_loaded_file(self, tmp_path, name):
        # Split records, so each line of the file loads as one record.
        lines = [rec.line() for rec in old_parse(canonical_lines(2000, 4))]
        src, dst = tmp_path / name, tmp_path / f"copy-{name}"
        write_lines(src, lines)
        write_trace(str(dst), load_trace(str(src)))
        with open_trace(src) as a, open_trace(dst) as b:
            assert a.read() == b.read()

    def test_records_outside_the_columns_are_trace_errors(self):
        ok = TraceRecord("R", 0, 64)
        for bad in (TraceRecord("R", 1 << 64, 64), TraceRecord("R", -64, 64),
                    TraceRecord("W", 0, 1 << 32), TraceRecord("W", 0, -1),
                    TraceRecord("r", 0, 64)):
            with pytest.raises(TraceError, match="request 1"):
                Trace([ok, bad])

    def test_generate_splits_like_split_record(self):
        spec = WorkloadSpec(kind="sequential", footprint_bytes=4 * 4096,
                            request_count=20, request_bytes=512, seed=2)
        pieces = [p for r in generate(spec)
                  for p in split_record(r.kind, r.host_addr, r.size_bytes)]
        assert generate(spec, 128) == pieces
        assert len(pieces) == 80

    def test_generate_returns_a_trace(self):
        spec = WorkloadSpec(kind="zipfian", footprint_bytes=64 * 4096,
                            request_count=300, seed=3)
        trace = generate(spec)
        assert isinstance(trace, Trace)
        assert Trace(list(trace)) == trace


_FORMAT = "{} {:#x} {}".format
# Lines in write_trace's form. Valid ones load whole at blocks of 64 bytes
# and up; the edge ones cross blocks, end past 2**64 or hold a size that
# the line parser rejects.
_VALID_LINE = st.builds(_FORMAT, st.sampled_from("RW"),
                        st.integers(0, 1 << 14).map(lambda k: 64 * k),
                        st.sampled_from([1, 8, 64]))
_EDGE_LINE = st.builds(
    _FORMAT, st.sampled_from("RW"),
    st.one_of(st.integers(0, 1 << 20),
              st.integers((1 << 64) - 64, (1 << 64) + 4)),
    st.one_of(st.integers(1, 300), st.sampled_from([0, 1 << 32])))
_OTHER_LINE = st.one_of(
    st.sampled_from(["", "   ", "# header", "# café ☃ comment",
                     "R 0x40 64  # trailing", "X 0x0 64", "R zzz 64",
                     "R 0x0 abc", "W", "R 0x0 64 5", "R 0xABC 64",
                     "W 0x80 064"]),
    st.builds(_FORMAT, st.sampled_from("rw"), st.integers(0, 1 << 20),
              st.integers(1, 300)),
    st.builds("{} {:#x}".format, st.sampled_from("RWrw"), st.integers(0, 1 << 20)),
)


@st.composite
def _trace_text(draw):
    """Valid canonical lines, canonical lines with edge cases among them, or
    a mix of every kind of line with LF, CRLF or bare CR endings; the last
    line end is perhaps left off."""
    style = draw(st.sampled_from(["valid", "edge", "mixed"]))
    if style == "mixed":
        line = st.one_of(_VALID_LINE, _EDGE_LINE, _OTHER_LINE)
        lines = draw(st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n", "\r"])),
                              max_size=24))
    else:
        line = _VALID_LINE if style == "valid" else st.one_of(
            _VALID_LINE, _VALID_LINE, _EDGE_LINE)
        lines = [(text, "\n") for text in draw(st.lists(line, max_size=24))]
    text = "".join(line + end for line, end in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def _columns_or_error(load):
    try:
        trace = load()
    except TraceError as exc:
        return str(exc)
    return trace.kinds, trace.addrs, trace.sizes


class TestBulkLoad:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @example(text="R 0x40 64\nW 0x80 0", block=128, chunk_bytes=256)
    @example(text="W 0x40 8\nR 0x40 65\n", block=128, chunk_bytes=256)
    @example(text="W 0xffffffffffffffff 2\n", block=3, chunk_bytes=256)
    @example(text="R 0x40 64\rW 0x80 8\r\nR 0x0 1\r\rW 0x0 0\r", block=128,
             chunk_bytes=16)
    @example(text="W 0x0 8\nR 0x40 64 5\n", block=128, chunk_bytes=256)
    @given(text=_trace_text(),
           block=st.sampled_from([0, 1, 3, 100, 128, 128, 4096, 4096]),
           chunk_bytes=st.sampled_from([1, 16, 40, 96, 256]))
    def test_load_matches_the_line_parser(self, text, block, chunk_bytes):
        # The reference reads the text with universal newlines, as a file
        # opened in text mode does.
        want = _columns_or_error(
            lambda: parse_trace(io.StringIO(text, newline=None), block))
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(trace_module, "_CHUNK_BYTES", chunk_bytes):
            plain, packed = Path(tmp, "t.trc"), Path(tmp, "t.trc.gz")
            plain.write_bytes(text.encode("utf-8"))
            with gzip.open(packed, "wb") as fh:
                fh.write(text.encode("utf-8"))
            for path in (plain, packed):
                assert _columns_or_error(lambda: load_trace(path, block)) == want

    @pytest.mark.parametrize("block", [128, 64])
    @pytest.mark.parametrize("name", ["t.trc", "t.trc.gz"])
    def test_canonical_files_skip_the_line_parser(self, tmp_path, name, block):
        # At 64-byte blocks every 128-byte request crosses a block and is
        # split in the bulk path.
        spec = WorkloadSpec(kind="zipfian", footprint_bytes=64 * 4096,
                            request_count=3000, request_bytes=128, seed=5)
        recs = generate(spec, 128)
        text = "".join(rec.line() + "\n" for rec in recs)
        path = tmp_path / name
        with mock.patch.object(trace_module, "_WRITE_RECORDS", 7):
            write_trace(path, recs)
        with open_trace(path, "rb") as fh:
            assert fh.read() == text.encode("ascii")
        want = parse_trace(io.StringIO(text), block)
        assert len(want) == (2 * len(recs) if block == 64 else len(recs))
        with mock.patch.object(trace_module, "_CHUNK_BYTES", 1000), \
                mock.patch.object(trace_module, "_parse_lines",
                                  side_effect=AssertionError("line parser")):
            assert load_trace(path, block) == want

    @pytest.mark.parametrize("data", [
        b"R 0x40 64\r" * 500,
        b"R 0x40 64\r\n" * 500,
        b"# " + b"x" * 5000 + b"\nR 0x40 64\n",
        b"\r" * 300 + b"\n" * 300,
    ], ids=["bare-cr", "crlf", "long-line", "bare-line-ends"])
    def test_chunks_end_at_line_ends(self, data):
        with mock.patch.object(trace_module, "_CHUNK_BYTES", 100):
            chunks = list(trace_module._chunks(io.BytesIO(data)))
        assert b"".join(chunks) == data
        # A chunk is at most 100 bytes longer than its longest line, and
        # every chunk but the last ends at a line end no b"\n" continues.
        for chunk in chunks:
            assert len(chunk) <= 100 + max(map(len, chunk.splitlines(True)))
        for chunk in chunks[:-1]:
            assert chunk.endswith((b"\n", b"\r"))
        for chunk, after in zip(chunks, chunks[1:]):
            assert not (chunk.endswith(b"\r") and after.startswith(b"\n"))


class TestEndBound:
    def test_a_request_past_the_bound_fails_before_it_is_split(self):
        # A request whose split ends quickly comes first, so a lost check
        # fails here instead of running on into the 4.3e9-record split.
        trace = Trace()
        with pytest.raises(TraceBoundError, match="ends beyond 0x100000"):
            trace.append("R", 0, 1 << 21, 1, end=1 << 20)
        with pytest.raises(TraceBoundError, match="ends beyond 0x100000"):
            trace.append("R", 0, 4294967295, 1, end=1 << 20)
        assert len(trace) == 0
        trace.append("R", (1 << 20) - 8, 8, 1, end=1 << 20)
        assert len(trace) == 8

    @pytest.mark.parametrize("name", ["t.trc", "t.trc.gz"])
    def test_load_names_the_line_past_the_bound(self, tmp_path, name):
        path = tmp_path / name
        write_lines(path, ["R 0x0 64", "W 0xff000 4096", "R 0x0 2097152"])
        with pytest.raises(TraceBoundError, match="^line 3: "):
            load_trace(path, 1, end=1 << 20)
        write_lines(path, ["R 0x0 64", "W 0xff000 4096", "R 0x0 4294967295",
                           "R 0x40 64"])
        with pytest.raises(TraceBoundError) as info:
            load_trace(path, 1, end=1 << 20)
        assert str(info.value) == "line 3: R 0x0 4294967295 ends beyond 0x100000"

    def test_requests_ending_at_the_bound_load_in_bulk(self, tmp_path):
        # The largest address plus the largest size passes the bound, but
        # every request ends at or before it.
        lines = ["R 0xfffc0 64", "W 0x0 4096", "R 0x80000 8"]
        path = tmp_path / "t.trc"
        write_lines(path, lines)
        want = parse_lines(*lines, block=128)
        with mock.patch.object(trace_module, "_parse_lines",
                               side_effect=AssertionError("line parser")):
            assert load_trace(path, 128, end=1 << 20) == want

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(text=_trace_text(), block=st.sampled_from([1, 128, 4096]),
           end=st.sampled_from([0x1000, 0x40000000, 1 << 64]),
           chunk_bytes=st.sampled_from([16, 256]))
    def test_load_matches_the_line_parser_under_a_bound(self, text, block,
                                                        end, chunk_bytes):
        want = _columns_or_error(
            lambda: parse_trace(io.StringIO(text, newline=None), block, end))
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(trace_module, "_CHUNK_BYTES", chunk_bytes):
            path = Path(tmp, "t.trc")
            path.write_bytes(text.encode("utf-8"))
            assert _columns_or_error(lambda: load_trace(path, block, end)) == want


class TestGenerate:
    def test_sequential_covers_every_line(self):
        spec = WorkloadSpec(kind="sequential", footprint_bytes=2 * 4096,
                            request_count=128, write_fraction=0.0, seed=0)
        recs = generate(spec)
        assert len(recs) == 128
        assert [r.host_addr for r in recs] == [i * 64 for i in range(128)]

    def test_determinism(self):
        spec = dict(kind="sparse-wide", footprint_bytes=64 * 4096,
                    request_count=1000, seed=11)
        assert generate(WorkloadSpec(**spec)) == generate(WorkloadSpec(**spec))
        other = generate(WorkloadSpec(**dict(spec, seed=12)))
        assert other != generate(WorkloadSpec(**spec))

    def test_sparse_wide_touches_each_page_once_per_pass(self):
        pages = 50
        spec = WorkloadSpec(kind="sparse-wide", footprint_bytes=pages * 4096,
                            request_count=pages, seed=5)
        recs = generate(spec)
        touched = {r.host_addr // 4096 for r in recs}
        assert len(touched) == pages
        # one fixed line per page
        lines = {}
        for r in generate(WorkloadSpec(kind="sparse-wide",
                                       footprint_bytes=pages * 4096,
                                       request_count=3 * pages, seed=5)):
            page = r.host_addr // 4096
            lines.setdefault(page, set()).add(r.host_addr % 4096)
        assert all(len(v) == 1 for v in lines.values())

    def test_strided(self):
        spec = WorkloadSpec(kind="strided", footprint_bytes=16 * 4096,
                            request_count=32, stride_bytes=4096, seed=0)
        recs = generate(spec)
        assert recs[1].host_addr - recs[0].host_addr == 4096

    def test_zipf_zero_is_uniform(self):
        # chi-square against uniform over 32 pages; df=31, crit(0.999)~61.1
        pages = 32
        n = 32_000
        spec = WorkloadSpec(kind="zipfian", footprint_bytes=pages * 4096,
                            request_count=n, zipf_s=0.0, seed=8)
        counts = [0] * pages
        for r in generate(spec):
            counts[r.host_addr // 4096] += 1
        expected = n / pages
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 61.1

    def test_zipf_skew_concentrates_traffic(self):
        spec = WorkloadSpec(kind="zipfian", footprint_bytes=32 * 4096,
                            request_count=20_000, zipf_s=1.2, seed=8)
        counts = [0] * 32
        for r in generate(spec):
            counts[r.host_addr // 4096] += 1
        ranked = sorted(counts, reverse=True)
        assert ranked[0] > 0.2 * 20_000     # heavy head
        assert ranked[0] > 3 * ranked[8]
        assert ranked[8] > ranked[31]

    def test_streaming_store_is_write_heavy(self):
        spec = WorkloadSpec(kind="streaming-store", footprint_bytes=8 * 4096,
                            request_count=2000, write_fraction=0.3, seed=2)
        recs = generate(spec)
        writes = sum(1 for r in recs if r.kind == "W")
        assert writes / len(recs) >= 0.85

    def test_requests_never_cross_blocks(self):
        for kind in ("sequential", "strided", "zipfian", "sparse-wide",
                     "streaming-store"):
            spec = WorkloadSpec(kind=kind, footprint_bytes=16 * 4096,
                                request_count=500, seed=1)
            for r in generate(spec):
                assert r.host_addr // 128 == (r.host_addr + r.size_bytes - 1) // 128

    def test_bad_spec(self):
        with pytest.raises(TraceError):
            generate(WorkloadSpec(kind="bogus", footprint_bytes=4096,
                                  request_count=1))
        with pytest.raises(TraceError):
            generate(WorkloadSpec(kind="sequential", footprint_bytes=100,
                                  request_count=1))
