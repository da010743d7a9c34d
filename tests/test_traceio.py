import gzip
import io
import random
import tracemalloc

import pytest

from tiersim.trace import (Trace, TraceError, TraceRecord, WorkloadSpec,
                           generate, load_trace, open_trace, parse_trace,
                           split_record, write_trace)


def parse_lines(*lines, block=128):
    return parse_trace(io.StringIO("\n".join(lines)), block)


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
