import csv
import json
import subprocess
import sys

import pytest

from tiersim import Simulator
from tiersim.cli import main

BASE = ["--fast-size", "256KiB", "--slow-size", "1MiB", "--bloom-window", "16"]
CACHE = ["--cache-size", "64KiB"]


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_run_with_trace_and_comparison(self, tmp_path, tmp_trace):
        trace = tmp_trace([f"R {hex(i * 4096)}" for i in range(40)]
                          + [f"W {hex(i * 4096 + 64)}" for i in range(40)])
        out = tmp_path / "r.json"
        rc = run_cli("run", *BASE, "--trace", trace,
                     "--policy", "alldram,pagemove", "--out", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert {r["policy"] for r in payload["reports"]} == {"alldram", "pagemove"}
        comp = payload["comparison"]
        assert comp["pagemove"]["runtime_rel_alldram"] >= 1.0
        assert comp["alldram"]["runtime_rel_alldram"] == 1.0

    def test_generated_workload_and_policies(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli("run", *BASE, *CACHE, "--gen", "sparse-wide",
                     "--pages", "128", "--requests", "2000",
                     "--policy", "statcomb,pagemove", "--out", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        by = {r["policy"]: r for r in payload["reports"]}
        assert by["statcomb"]["slow_writes_total"] <= by["pagemove"]["slow_writes_total"]

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = run_cli("run", *BASE, "--gen", "sequential", "--pages", "32",
                     "--requests", "500", "--policy", "pagemove",
                     "--format", "csv", "--out", str(out))
        assert rc == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["policy"] == "pagemove"
        assert int(rows[0]["requests"]) == 500

    def test_infeasible_alldram_is_explicit_error(self, tmp_path, tmp_trace):
        # footprint beyond the total capacity fails loudly for alldram
        trace = tmp_trace([f"R {hex(i * 4096)}" for i in range(80)])
        out = tmp_path / "r.json"
        rc = run_cli("run", "--fast-size", "64KiB", "--slow-size", "192KiB",
                     "--trace", trace, "--policy", "alldram",
                     "--out", str(out))
        assert rc == 1
        payload = json.loads(out.read_text())
        assert "error" in payload["reports"][0]
        assert "capacity" in payload["reports"][0]["error"]

    def test_partial_failure_is_labeled(self, tmp_path, tmp_trace):
        trace = tmp_trace(["R 0x0"])
        out = tmp_path / "r.json"
        # statcomb without a cache zone is a config error; pagemove still runs
        rc = run_cli("run", *BASE, "--trace", trace,
                     "--policy", "pagemove,statcomb", "--out", str(out))
        assert rc == 1
        payload = json.loads(out.read_text())
        by = {r["policy"]: r for r in payload["reports"]}
        assert "error" in by["statcomb"]
        assert by["pagemove"]["requests"] == 1

    def test_defect_exits_70_with_traceback(self, tmp_trace, capsys,
                                            monkeypatch):
        def broken_run(self, records):
            raise AssertionError("broken invariant")

        monkeypatch.setattr(Simulator, "run", broken_run)
        trace = tmp_trace(["R 0x0"])
        rc = run_cli("run", *BASE, "--trace", trace, "--policy", "pagemove")
        assert rc == 70
        err = capsys.readouterr().err
        assert "Traceback" in err and "broken invariant" in err

    def test_address_past_the_trace_columns_is_a_trace_error(
            self, tmp_trace, capsys):
        trace = tmp_trace(["R 0x0", "R 0x10000000000000000"])
        rc = run_cli("run", *BASE, "--trace", trace, "--policy", "pagemove")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2:")
        assert "Traceback" not in err

    def test_a_request_past_every_host_space_fails_at_once(self, tmp_path,
                                                            tmp_trace):
        # Split at one-byte blocks, this line would be about 4.3e9 records.
        trace = tmp_trace(["R 0x0 64", "R 0x0 4294967295"])
        out = tmp_path / "r.json"
        rc = run_cli("run", *BASE, "--block-size", "1", "--trace", trace,
                     "--policy", "pagemove,alldram,statcomb", "--out", str(out))
        assert rc == 1
        by = {r["policy"]: r["error"]
              for r in json.loads(out.read_text())["reports"]}
        host = (256 + 1024) * 1024   # pagemove's and all-DRAM's host space
        refused = (f"line 2: R 0x0 4294967295 ends beyond {host:#x}, the "
                   "largest host capacity of these runs")
        assert by["pagemove"] == by["alldram"] == refused
        # statcomb has no cache zone: its own config error labels it.
        assert by["statcomb"].startswith("cache_zone_bytes:")

    def test_non_positive_block_size_is_a_trace_error(self, tmp_trace,
                                                       capsys):
        trace = tmp_trace(["R 0x0"])
        for block in ("0", "-128"):
            rc = run_cli("run", *BASE, "--block-size", block, "--trace",
                         trace, "--policy", "pagemove")
            assert rc == 1
            assert "block size" in capsys.readouterr().err

    @pytest.mark.parametrize("name, damage", [
        ("t.trc.gz", lambda data: data[:1000]),
        ("t.trc.gz", lambda data: data[:20] + bytes(range(100)) + data[120:]),
        ("t.trc.gz", lambda data: b"not gzip"),
        ("t.trc", lambda data: b"# \xff\n" + data),
    ], ids=["truncated-gz", "corrupt-gz", "not-gz", "not-utf8"])
    def test_unreadable_trace_is_a_trace_error(self, tmp_path, capsys, name,
                                               damage):
        path = tmp_path / name
        rc = run_cli("gen", "--gen", "sequential", "--pages", "16",
                     "--requests", "20000", "--out", str(path))
        assert rc == 0
        path.write_bytes(damage(path.read_bytes()))
        rc = run_cli("run", *BASE, "--trace", str(path), "--policy", "static")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: unreadable trace:")
        assert "Traceback" not in err

    def test_missing_workload_errors(self, capsys):
        rc = run_cli("run", *BASE, "--policy", "pagemove")
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "sim.cfg"
        cfgfile.write_text(
            "fast_capacity_bytes = 256KiB  # fast tier\n"
            "slow_capacity_bytes = 1MiB\n"
            "bloom_window = 16\n"
            "promotion_threshold = 6\n")
        out = tmp_path / "r.json"
        rc = run_cli("run", "--config", str(cfgfile), "--threshold", "3",
                     "--gen", "sequential", "--pages", "32",
                     "--requests", "200", "--policy", "pagemove",
                     "--out", str(out))
        assert rc == 0
        rep = json.loads(out.read_text())["reports"][0]
        assert rep["fast_capacity_bytes"] == 256 * 1024
        assert rep["threshold_initial"] == 3  # flag wins over file

    def test_config_file_booleans_and_fractions(self, tmp_path, capsys):
        cfgfile = tmp_path / "sim.cfg"
        out = tmp_path / "r.json"
        argv = ("run", "--config", str(cfgfile), "--gen", "sequential",
                "--pages", "32", "--requests", "200", "--out", str(out))
        geometry = "fast_capacity_bytes = 256KiB\nslow_capacity_bytes = 1MiB\n"
        cfgfile.write_text(geometry + "bloom_window = 16\nexact_recency = True\n")
        assert run_cli(*argv) == 0
        assert json.loads(out.read_text())["reports"][0]["exact_recency"] is True
        for bad, field in (("exact_recency = ture", "exact_recency"),
                           ("bloom_window = 16.9", "bloom_window")):
            cfgfile.write_text(geometry + bad + "\n")
            assert run_cli(*argv) == 1
            assert f"error: {field}:" in capsys.readouterr().err


class TestSweep:
    def test_threshold_sweep_shape(self, tmp_path):
        out = tmp_path / "s.json"
        rc = run_cli("sweep", *BASE, *CACHE, "--gen", "zipfian",
                     "--pages", "192", "--requests", "4000",
                     "--policy", "statcomb", "--param", "promotion_threshold",
                     "--values", "2,3,4,5,6", "--out", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["param"] == "promotion_threshold"
        assert [r["sweep_value"] for r in payload["reports"]] == [2, 3, 4, 5, 6]
        for rep in payload["reports"]:
            assert {"elapsed_ns", "slow_writes_total", "page_relocations",
                    "block_relocations"} <= rep.keys()

    def test_threshold_past_the_counter_is_a_config_error(self, tmp_path):
        out = tmp_path / "s.json"
        rc = run_cli("sweep", *BASE, *CACHE, "--gen", "zipfian",
                     "--pages", "128", "--requests", "500",
                     "--policy", "statcomb", "--param", "promotion_threshold",
                     "--values", "15,16", "--out", str(out))
        assert rc == 1
        by = {r["sweep_value"]: r
              for r in json.loads(out.read_text())["reports"]}
        assert "error" not in by[15]
        assert "promotion_threshold" in by[16]["error"]

    def test_sweep_accepts_size_values(self, tmp_path):
        out = tmp_path / "s.json"
        rc = run_cli("sweep", *BASE, *CACHE, "--gen", "zipfian",
                     "--pages", "128", "--requests", "1000",
                     "--policy", "statcomb", "--param", "cache_zone_bytes",
                     "--values", "32KiB,64KiB", "--out", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [r["cache_zone_bytes"] for r in payload["reports"]] == \
            [32 * 1024, 64 * 1024]

    def test_fast_capacity_sweep_keeps_the_alldram_slow_tier(self, tmp_path):
        out = tmp_path / "s.json"
        rc = run_cli("sweep", *BASE, "--gen", "sparse-wide", "--pages", "200",
                     "--policy", "alldram,pagemove",
                     "--param", "fast_capacity_bytes",
                     "--values", "256KiB,512KiB", "--out", str(out))
        reports = json.loads(out.read_text())["reports"]
        alldram = [r for r in reports if r["policy"] == "alldram"]
        assert [r["sweep_value"] for r in alldram] == [256 * 1024, 512 * 1024]
        for rep in alldram:
            assert "error" not in rep
            assert rep["fast_capacity_bytes"] == rep["sweep_value"] + 1024 * 1024
            assert rep["slow_capacity_bytes"] == 0
        assert rc == 0

    def test_sweep_value_is_parsed_as_its_field(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = run_cli("sweep", *BASE, "--gen", "zipfian",
                     "--pages", "128", "--requests", "100",
                     "--policy", "pagemove", "--param", "bloom_window",
                     "--values", "16.9", "--out", str(out))
        assert rc == 1
        assert "bloom_window" in capsys.readouterr().err
        assert not out.exists()


class TestGen:
    def test_gen_writes_parseable_trace(self, tmp_path):
        out = tmp_path / "t.trc"
        rc = run_cli("gen", "--gen", "strided", "--pages", "16",
                     "--requests", "100", "--out", str(out))
        assert rc == 0
        from tiersim import load_trace
        assert len(load_trace(str(out))) == 100

    def test_gz_output_is_compressed(self, tmp_path):
        import gzip
        out = tmp_path / "t.trc.gz"
        rc = run_cli("gen", "--gen", "zipfian", "--pages", "16",
                     "--requests", "50", "--out", str(out))
        assert rc == 0
        with gzip.open(out, "rt") as fh:
            assert len(fh.read().splitlines()) == 50

    def test_large_request_size_is_split(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli("run", *BASE, "--gen", "sequential", "--pages", "8",
                     "--requests", "64", "--req-size", "512",
                     "--policy", "pagemove", "--out", str(out))
        assert rc == 0
        rep = json.loads(out.read_text())["reports"][0]
        assert rep["requests"] == 64 * (512 // 128)

    def test_gzip_trace_accepted_by_run(self, tmp_path):
        import gzip
        path = tmp_path / "t.trc.gz"
        with gzip.open(path, "wt") as fh:
            for i in range(32):
                fh.write(f"R {i * 4096:#x}\n")
        out = tmp_path / "r.json"
        rc = run_cli("run", *BASE, "--trace", str(path),
                     "--policy", "pagemove", "--out", str(out))
        assert rc == 0
        assert json.loads(out.read_text())["reports"][0]["requests"] == 32


class TestMetacost:
    def test_reference_geometry(self, capsys):
        rc = run_cli("metacost", "--space", "2GiB", "--page", "4KiB",
                     "--sets", "65536")
        assert rc == 0
        text = capsys.readouterr().out
        assert "24 bits/entry (3 bytes)" in text
        assert "1.5MiB total" in text
        assert "39 bits/set" in text
        assert "312KiB" in text

    def test_degenerate_single_page(self, capsys):
        rc = run_cli("metacost", "--space", "4KiB", "--page", "4KiB")
        assert rc == 0
        assert "5 bits/entry" in capsys.readouterr().out

    def test_bad_page_size(self, capsys):
        rc = run_cli("metacost", "--space", "2GiB", "--page", "5000")
        assert rc == 1
        assert "error" in capsys.readouterr().err


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "tiersim.cli", "metacost",
                           "--sets", "65536"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "39 bits/set" in proc.stdout


def test_schema_golden_keys(tmp_path):
    out = tmp_path / "r.json"
    run_cli("run", *BASE, "--gen", "sequential", "--pages", "16",
            "--requests", "200", "--policy", "pagemove", "--out", str(out))
    rep = json.loads(out.read_text())["reports"][0]
    golden = {
        "schema_version", "policy", "rng_seed", "fast_capacity_bytes",
        "slow_capacity_bytes", "cache_zone_bytes", "page_size_bytes",
        "block_size_bytes", "bloom_window", "exact_recency",
        "threshold_initial", "threshold_final", "requests", "reads", "writes",
        "footprint_pages", "page_relocations", "block_relocations",
        "writebacks", "recycles", "fast_reads", "fast_writes", "slow_reads",
        "slow_writes", "mig_fast_reads", "mig_fast_writes", "mig_slow_reads",
        "mig_slow_writes", "foreground_accesses", "fast_hit_fraction",
        "slow_writes_total", "migrated_bytes", "write_stalls", "stall_ns",
        "total_foreground_ns", "elapsed_ns", "energy_fast_background_nj",
        "energy_fast_read_nj", "energy_fast_write_nj", "energy_slow_read_nj",
        "energy_slow_write_nj", "energy_total_nj",
    }
    assert golden == set(rep.keys())
