import argparse
import csv
import dataclasses
import json
import resource
import subprocess
import sys

import pytest

from tiersim import ConfigError, SimConfig, Simulator
from tiersim.cli import FLAGGED, build_parser, main
from tiersim.config import FIELDS, config_from_mapping

BASE = ["--fast-size", "256KiB", "--slow-size", "1MiB", "--bloom-window", "16"]
CACHE = ["--cache-size", "64KiB"]
TINY = ["--gen", "sequential", "--pages", "4", "--requests", "10"]
FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SimConfig)}
FLOAT_FIELDS = [name for name, kind in FIELD_TYPES.items() if kind == "float"]


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

    def test_alldram_background_power_covers_both_capacities(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli("run", *BASE, "--gen", "sequential", "--pages", "32",
                     "--requests", "500", "--policy", "alldram,pagemove",
                     "--out", str(out))
        assert rc == 0
        rep = json.loads(out.read_text())["reports"][0]
        assert rep["policy"] == "alldram"
        assert rep["slow_capacity_bytes"] == 0
        gib = (256 + 1024) * 1024 / 1024 ** 3
        assert rep["energy_fast_background_nj"] == (
            30.0 * gib * rep["elapsed_ns"] * 1e-3)

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
        assert "functional: 31 bits/entry, 2MiB total" in text
        assert "functional: 43 bits/set, 344KiB total" in text

    def test_the_way_count_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("metacost", "--sets", "16", "--ways", "4")
        assert info.value.code == 2
        assert "unrecognized arguments: --ways 4" in capsys.readouterr().err

    def test_degenerate_single_page(self, capsys):
        rc = run_cli("metacost", "--space", "4KiB", "--page", "4KiB")
        assert rc == 0
        assert "5 bits/entry" in capsys.readouterr().out

    def test_bad_page_size(self, capsys):
        rc = run_cli("metacost", "--space", "2GiB", "--page", "5000")
        assert rc == 1
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["metacost", "--space", "2GiB", "--block", "0"], "block"),
    (["metacost", "--space", "2GiB", "--block", "3"], "block"),
    (["metacost", "--page", "4KiB", "--block", "8KiB"], "block"),
    (["metacost", "--space", "2GiB", "--sets", "-4"], "sets"),
    (["metacost", "--space", "2GiB", "--sets", "3"], "sets"),
    (["metacost", "--space", "0", "--page", "4KiB"], "space"),
    (["gen", "--gen", "zipfian", "--pages", "0", "--requests", "3"],
     "footprint"),
    (["metacost", "--space", "2GiB", "--block", "x"],
     "block: not a byte size: 'x'"),
    (["metacost", "--space", "2GiB", "--page", "x"],
     "page: not a byte size: 'x'"),
    (["metacost", "--space", "x"], "space: not a byte size: 'x'"),
    (["run", *BASE, "--gen", "zipfian", "--pages", "-2", "--requests", "3"],
     "footprint"),
    (["gen", "--gen", "strided", "--pages", "4", "--stride", "0",
      "--requests", "3"], "stride 0 "),
    (["gen", "--gen", "strided", "--pages", "4", "--stride", "100",
      "--requests", "3"], "stride 100 "),
    (["gen", "--gen", "strided", "--pages", "4", "--stride", "x",
      "--requests", "3"], "stride: not a byte size: 'x'"),
    (["gen", "--gen", "zipfian", "--footprint", "x", "--requests", "3"],
     "footprint: not a byte size: 'x'"),
    (["gen", "--gen", "zipfian", "--zipf-s", "nan", "--pages", "4",
      "--requests", "3"], "zipf-s: nan is not finite"),
    (["gen", "--gen", "zipfian", "--zipf-s", "inf", "--pages", "4",
      "--requests", "3"], "zipf-s: inf is not finite"),
    (["run", *BASE, "--gen", "zipfian", "--zipf-s=-inf", "--pages", "4",
      "--requests", "3"], "zipf-s: -inf is not finite"),
    (["gen", "--gen", "zipfian", "--zipf-s", "700", "--pages", "4",
      "--requests", "3"], "zipf-s: 700.0 gives page rank 4 a weight that "
                          "is not a positive finite float"),
    (["gen", "--gen", "zipfian", "--zipf-s=-700", "--pages", "4",
      "--requests", "3"], "zipf-s: -700.0 gives page rank 4 a weight"),
    (["gen", "--gen", "zipfian", "--req-size", "0", "--pages", "4",
      "--requests", "3"], "req-size: 0 is not a positive divisor"),
    (["gen", "--gen", "zipfian", "--req-size", "-64", "--pages", "4",
      "--requests", "3"], "req-size: -64 is not a positive divisor"),
    (["gen", "--gen", "zipfian", "--req-size", "96", "--pages", "4",
      "--requests", "3"], "req-size: 96 is not a positive divisor"),
    (["gen", "--gen", "zipfian", "--pages", "4", "--requests", "0"],
     "requests: 0 is not positive"),
    (["run", *BASE, "--gen", "zipfian", "--pages", "4", "--requests", "-5"],
     "requests: -5 is not positive"),
    (["gen", "--gen", "zipfian", "--pages", "4", "--requests", "3",
      "--write-fraction", "1.5"], "write-fraction: "),
    (["run", *BASE, "--gen", "zipfian", "--pages", "1000000",
      "--requests", "3"], "footprint: "),
    (["run", *BASE, "--gen", "zipfian", "--pages", "40", "--requests", "300",
      "--dma-bw", "1e-306"], "dma_bandwidth_bytes_per_ns: "),
    (["run", *BASE, "--gen", "zipfian", "--pages", "40", "--requests", "300",
      "--dma-bw", "5e-324"], "dma_bandwidth_bytes_per_ns: "),
], ids=["block-0", "block-3", "block-past-page", "sets-negative",
        "sets-3", "space-0", "gen-pages-0", "block-not-a-size",
        "page-not-a-size", "space-not-a-size", "run-pages-negative",
        "stride-0", "stride-not-a-multiple", "stride-not-a-size",
        "footprint-not-a-size", "zipf-s-nan", "zipf-s-inf",
        "run-zipf-s-minus-inf", "zipf-s-weight-overflows",
        "zipf-s-weight-underflows", "req-size-0", "req-size-negative",
        "req-size-not-a-divisor", "requests-0", "run-requests-negative",
        "write-fraction-above-1", "run-footprint-beyond-host-space",
        "run-dma-bw-swap-past-2-32-ns", "run-dma-bw-subnormal"])
def test_bad_geometry_argument_exits_1(argv, named, tmp_path, capsys):
    """A bad metacost geometry or workload argument is a user error: one
    `error:` line that names the flag, and no output and no traceback."""
    out = tmp_path / "out.trc"
    if argv[0] == "gen":
        argv = [*argv, "--out", str(out)]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {named}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


CONFIG_FLAGS = [(field.metadata["flag"][0], field.name) for field in FLAGGED]
each_flag = pytest.mark.parametrize(
    "flag,field", CONFIG_FLAGS, ids=[flag for flag, _ in CONFIG_FLAGS])


class TestConfigFlags:
    @each_flag
    def test_flag_keeps_its_string_under_its_field(self, flag, field):
        assert field in FIELD_TYPES
        sweep = ["--param", "bloom_window", "--values", "16"]
        for argv in (["run", flag, "7"], ["sweep", flag, "7", *sweep]):
            assert getattr(build_parser().parse_args(argv), field) == "7"

    @each_flag
    def test_bad_value_exits_1_naming_its_field(self, flag, field, capsys):
        # "2.5" is a number, so only a float field takes it.
        bad = ["x", "1.5b"] + ([] if FIELD_TYPES[field] == "float" else ["2.5"])
        for value in bad:
            assert run_cli("run", *TINY, flag, value) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {field}: ")
            assert err.endswith(f"{value!r}\n") and "usage" not in err

    def test_every_config_option_comes_from_a_declaration(self):
        # `--policy` takes a list of policies, so it is the one run/sweep
        # option whose dest names a field but no declaration gives it.
        declared = {flag for flag, _ in CONFIG_FLAGS}
        assert len(declared) == len(CONFIG_FLAGS) == 10
        commands = next(action.choices for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        for command in ("run", "sweep"):
            options = {action.option_strings[0]: action.dest
                       for action in commands[command]._actions
                       if action.dest in FIELDS and action.dest != "policy"}
            assert options == dict(CONFIG_FLAGS)
        param = next(action for action in commands["sweep"]._actions
                     if action.dest == "param")
        assert param.choices == sorted(
            name for name, field in FIELDS.items() if field.metadata["sweep"])
        assert param.choices == [
            "adaptive_window_pages", "bloom_window", "cache_zone_bytes",
            "dma_bandwidth_bytes_per_ns", "fast_capacity_bytes",
            "promotion_threshold"]

    def test_fractional_threshold_message(self, capsys):
        assert run_cli("run", *TINY, "--threshold", "2.5") == 1
        assert capsys.readouterr().err == (
            "error: promotion_threshold: expected an integer, got '2.5'\n")


@pytest.mark.parametrize("field", FLOAT_FIELDS + ["policy"])
def test_unparsable_value_names_its_field(field, tmp_path, capsys):
    """Each path to a config value parses it the same way: a mapping, a
    `--config` line, `sweep --values` for a sweepable field and `--policy`
    for the policy."""
    with pytest.raises(ConfigError,
                       match=f"^{field}: expected .*, got 'fast'$"):
        config_from_mapping({field: "fast"})
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(f"{field} = fast\n")
    runs = [("run", "--config", str(cfgfile), *TINY)]
    if FIELDS[field].metadata["sweep"]:
        runs.append(("sweep", *BASE, *TINY, "--param", field,
                     "--values", "fast"))
    if field == "policy":
        runs.append(("run", *BASE, *TINY, "--policy", "pagemove,fast"))
    for argv in runs:
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("argv,field", [
    (["--slow-size=-4KiB"], "slow_capacity_bytes"),
    (["--slow-size=-8MiB"], "slow_capacity_bytes"),
    (["--fast-size", "0"], "fast_capacity_bytes"),
    (["--policy", "adpcomb", "--cache-size", "256KiB", "--adaptive=-3"],
     "adaptive_window_pages"),
    (["fast_read_nj = inf"], "fast_read_nj"),
    (["slow_write_nj = -inf"], "slow_write_nj"),
    (["fast_background_mw_per_gb = inf"], "fast_background_mw_per_gb"),
    (["fast_read_ns = 1" + "0" * 400], "fast_read_ns"),
    (["fast_read_ns = 1" + "0" * 308], "fast_read_ns"),
    (["fast_read_nj = 1e308"], "fast_read_nj"),
], ids=["slow-negative", "slow-negative-past-fast", "fast-0",
        "adaptive-negative", "energy-inf", "energy-minus-inf",
        "background-inf", "latency-1e400", "latency-1e308", "energy-1e308"])
def test_config_that_cannot_run_exits_1_naming_its_field(argv, field,
                                                        tmp_path, capsys):
    """A config `validate()` refuses, for the only run, exits 1 with one
    `error:` line naming the field: no workload is read and no report (so
    no `Infinity`) is written. A huge latency used to overflow mid-run
    (exit 70), and a huge energy to report `Infinity`."""
    if "=" in argv[0] and not argv[0].startswith("-"):
        cfgfile = tmp_path / "sim.cfg"
        cfgfile.write_text(argv[0] + "\n")
        argv = ["--config", str(cfgfile)]
    out = tmp_path / "r.json"
    rc = run_cli("run", "--gen", "sequential", "--requests", "50",
                 "--fast-size", "1MiB", "--slow-size", "4MiB",
                 "--bloom-window", "16", *argv, "--out", str(out))
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


SMALL_PAGES = ["run", "--gen", "sequential", "--requests", "100", "--pages",
               "8", "--page-size", "512", "--fast-size", "16KiB",
               "--slow-size", "64KiB", "--bloom-window", "4"]


@pytest.mark.parametrize("argv", [
    ["--policy", "static,alldram", "--threshold", "1"],
    ["--policy", "pagemove", "--block-size", "256"],
    ["--policy", "pagemove", "--block-size", "256", "--threshold", "1"],
], ids=["static-alldram", "pagemove-2-blocks", "pagemove-2-blocks-threshold-1"])
def test_a_geometry_bound_binds_only_the_policies_that_read_the_field(
        argv, tmp_path):
    """512 B pages hold 4 blocks of 128 B, or 2 of 256 B, which bounds the
    thresholds of the combined policies. Static, all-DRAM and pagemove read
    neither threshold, so the defaults past that bound do not stop them."""
    out = tmp_path / "r.json"
    assert run_cli(*SMALL_PAGES, *argv, "--out", str(out)) == 0
    for report in json.loads(out.read_text())["reports"]:
        assert "error" not in report and report["requests"] == 100


@pytest.mark.parametrize("argv,error", [
    (["--policy", "statcomb"], "promotion_threshold 4 must be in [1, 2]"),
    (["--policy", "adpcomb", "--threshold", "1"],
     "adaptive_max_threshold 8 must be at most 2"),
], ids=["statcomb-threshold", "adpcomb-max-threshold"])
def test_a_geometry_bound_still_binds_a_policy_that_reads_it(argv, error,
                                                            capsys):
    assert run_cli(*SMALL_PAGES, "--block-size", "256", "--cache-size", "1KiB",
                   *argv) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("argv", [
    ["--pages", "136", "--fast-size", "32KiB", "--slow-size", "512KiB",
     "--bloom-window", "7"],
    ["--pages", "128", "--fast-size", "256KiB", "--slow-size", "256KiB",
     "--bloom-window", "63"],
], ids=["probe-budget", "bloom-memory"])
def test_a_spent_victim_search_falls_back_to_a_table_sweep(argv, tmp_path):
    """The hashed probes miss 8 fast pages among 136, and a bloom filter
    two generations of 63 pages deep can hold all 64 fast pages; either way
    the search sweeps the table instead of giving up."""
    out = tmp_path / "r.json"
    assert run_cli("run", "--gen", "sparse-wide", "--requests", "20000",
                   *argv, "--policy", "pagemove", "--out", str(out)) == 0
    report, = json.loads(out.read_text())["reports"]
    assert report["requests"] == 20000 and report["page_relocations"] > 1000


def _two_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_a_window_no_policy_searches_allocates_nothing():
    """Static and all-DRAM never search for a victim, so a 10**12-page
    recency window sizes nothing. The address space is capped so that a
    filter sized by the window fails fast instead of zeroing a terabyte."""
    proc = subprocess.run(
        [sys.executable, "-m", "tiersim.cli", "run", "--gen", "sequential",
         "--requests", "100", "--pages", "8", "--fast-size", "256KiB",
         "--slow-size", "1MiB", "--policy", "static,alldram",
         "--bloom-window", "1000000000000"],
        capture_output=True, text=True, preexec_fn=_two_gib_address_space)
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)["reports"]
    assert [r["requests"] for r in reports] == [100, 100]


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "tiersim.cli", "metacost",
                           "--sets", "65536"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "39 bits/set" in proc.stdout


def test_the_package_and_its_cli_load_no_hashlib():
    """Only a content digest hashes, and `run` and `sweep` take none, so
    importing them loads no `hashlib` and with it no OpenSSL."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tiersim, tiersim.cli; "
         "print([name for name in sys.modules if 'hashlib' in name])"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


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
