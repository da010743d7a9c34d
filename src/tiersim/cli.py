"""Command-line runner: single runs, policy comparisons, parameter sweeps,
trace generation and the metadata-cost calculator."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import traceback

from .config import (CACHING, ConfigError, Policy, SimConfig,
                     config_from_mapping, load_config_file, parse_size)
from .core import SimulationError, Simulator
from .metering import REPORT_SCHEMA_VERSION, metadata_cost
from .trace import (WORKLOAD_KINDS, TraceError, WorkloadSpec, generate,
                    load_trace, write_trace)

# Config fields `sweep --param` accepts; each value is parsed as that field.
SWEEPABLE = ("promotion_threshold", "cache_zone_bytes", "bloom_window",
             "dma_bandwidth_bytes_per_ns", "fast_capacity_bytes",
             "adaptive_window_pages")

# Exit status for a simulator defect, as opposed to a user error (1);
# sysexits.h calls it EX_SOFTWARE.
EXIT_DEFECT = 70


def _add_config_flags(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--fast-size", help="fast tier capacity (e.g. 128MiB)")
    p.add_argument("--slow-size", help="slow tier capacity")
    p.add_argument("--page-size", help="page size (default 4KiB)")
    p.add_argument("--block-size", help="block size (default 128)")
    p.add_argument("--cache-size", help="cache zone size (combined policies)")
    p.add_argument("--threshold", type=int, help="promotion threshold")
    p.add_argument("--adaptive", type=int, metavar="WINDOW",
                   help="adaptive evaluation window in promotions (0 disables)")
    p.add_argument("--bloom-window", type=int, help="recency window in pages")
    p.add_argument("--dma-bw", type=float, help="DMA bandwidth, bytes/ns")
    p.add_argument("--seed", type=int, help="simulator RNG seed")


def _add_workload_flags(p):
    p.add_argument("--trace", help="trace file (.gz accepted)")
    p.add_argument("--gen", choices=WORKLOAD_KINDS,
                   help="generate a synthetic workload instead of reading a trace")
    p.add_argument("--requests", type=int, default=100_000)
    p.add_argument("--footprint", help="workload footprint (e.g. 64MiB)")
    p.add_argument("--pages", type=int, help="workload footprint in pages")
    p.add_argument("--write-fraction", type=float, default=0.3)
    p.add_argument("--req-size", type=int, default=64)
    p.add_argument("--stride", help="stride for the strided generator")
    p.add_argument("--zipf-s", type=float, default=1.0)
    p.add_argument("--gen-seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tiersim",
        description="Trace-driven hybrid fast/slow memory simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one trace under one or more policies")
    _add_config_flags(p_run)
    _add_workload_flags(p_run)
    p_run.add_argument("--policy", default="pagemove",
                       help="comma-separated list: static,pagemove,statcomb,adpcomb,alldram")
    p_run.add_argument("--out", help="output file (default: stdout)")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    _add_config_flags(p_sweep)
    _add_workload_flags(p_sweep)
    p_sweep.add_argument("--policy", default="statcomb")
    p_sweep.add_argument("--param", required=True, choices=sorted(SWEEPABLE))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated parameter values")
    p_sweep.add_argument("--out", help="output file (default: stdout)")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")

    p_gen = sub.add_parser("gen", help="write a synthetic trace to a file")
    _add_workload_flags(p_gen)
    p_gen.add_argument("--out", required=True)

    p_meta = sub.add_parser("metacost", help="hardware metadata cost for a geometry")
    p_meta.add_argument("--space", help="total memory space (e.g. 2GiB)")
    p_meta.add_argument("--page", default="4KiB", help="page size")
    p_meta.add_argument("--sets", type=int, default=0, help="cache set count")
    p_meta.add_argument("--block", default="128", help="cache block size")
    p_meta.add_argument("--ways", type=int, default=4)

    return parser


def base_config(args) -> SimConfig:
    mapping = {}
    if args.config:
        mapping.update(load_config_file(args.config))
    flag_map = {
        "fast_size": "fast_capacity_bytes",
        "slow_size": "slow_capacity_bytes",
        "page_size": "page_size_bytes",
        "block_size": "block_size_bytes",
        "cache_size": "cache_zone_bytes",
        "threshold": "promotion_threshold",
        "adaptive": "adaptive_window_pages",
        "bloom_window": "bloom_window",
        "dma_bw": "dma_bandwidth_bytes_per_ns",
        "seed": "rng_seed",
    }
    for flag, key in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            mapping[key] = value
    return config_from_mapping(mapping)


def config_for_policy(base: SimConfig, policy: Policy) -> SimConfig:
    """Per-policy view of a shared base configuration.

    Non-caching policies drop the cache zone. The all-DRAM baseline models a
    machine of the same total capacity built entirely from fast memory.
    """
    changes = {"policy": policy}
    if policy not in CACHING:
        changes["cache_zone_bytes"] = 0
    if policy is Policy.ALLDRAM:
        changes["fast_capacity_bytes"] = (base.fast_capacity_bytes
                                          + base.slow_capacity_bytes)
        changes["slow_capacity_bytes"] = 0
    return dataclasses.replace(base, **changes)


def workload_records(args, base: SimConfig):
    if args.trace and args.gen:
        raise TraceError("--trace and --gen are mutually exclusive")
    if args.trace:
        return load_trace(args.trace, base.block_size_bytes)
    if not args.gen:
        raise TraceError("need --trace or --gen")
    if args.footprint:
        footprint = parse_size(args.footprint)
    elif args.pages:
        footprint = args.pages * base.page_size_bytes
    else:
        footprint = min(base.host_space_bytes, 64 * 1024 * 1024)
    if footprint > base.host_space_bytes:
        raise TraceError(
            f"workload footprint {footprint} exceeds host space "
            f"{base.host_space_bytes}")
    spec = WorkloadSpec(
        kind=args.gen,
        footprint_bytes=footprint,
        request_count=args.requests,
        write_fraction=args.write_fraction,
        request_bytes=args.req_size,
        page_bytes=base.page_size_bytes,
        stride_bytes=parse_size(args.stride) if args.stride else base.page_size_bytes,
        zipf_s=args.zipf_s,
        seed=args.gen_seed,
    )
    return generate(spec, base.block_size_bytes)


def _comparison(reports):
    by_policy = {r["policy"]: r for r in reports if "error" not in r}
    baseline = by_policy.get("alldram")
    if baseline is None:
        return None
    table = {}
    for name, rep in by_policy.items():
        table[name] = {
            "runtime_rel_alldram": (rep["elapsed_ns"] / baseline["elapsed_ns"]
                                    if baseline["elapsed_ns"] else 1.0),
            "energy_rel_alldram": (rep["energy_total_nj"] / baseline["energy_total_nj"]
                                   if baseline["energy_total_nj"] else 1.0),
            "slow_writes_total": rep["slow_writes_total"],
        }
    return table


def _emit(payload, reports, out, fmt):
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    else:
        buf = io.StringIO()
        rows = [r for r in reports if "error" not in r]
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    if out:
        tmp = out + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    else:
        sys.stdout.write(text)


def _policies(args):
    return [Policy(p.strip().lower()) for p in args.policy.split(",") if p.strip()]


def _run_labeled(base, policy, records, **changes) -> dict:
    """Report of one run; a run that fails on its config or trace becomes a
    labeled entry holding the policy and the error, so the remaining runs
    still happen. Any other exception is a defect and propagates.

    `changes` edit the shared base before the per-policy view is taken, so
    a swept capacity reaches all-DRAM as that capacity plus the slow tier."""
    try:
        cfg = config_for_policy(dataclasses.replace(base, **changes), policy)
        return Simulator(cfg.validate()).run(records)
    except (ConfigError, TraceError, SimulationError) as exc:
        return {"policy": policy.value, "error": str(exc)}


def cmd_run(args) -> int:
    base = base_config(args)
    records = workload_records(args, base)
    reports = [_run_labeled(base, policy, records) for policy in _policies(args)]
    payload = {"schema_version": REPORT_SCHEMA_VERSION, "kind": "run",
               "reports": reports}
    comparison = _comparison(reports)
    if comparison is not None:
        payload["comparison"] = comparison
    _emit(payload, reports, args.out, args.format)
    return 1 if any("error" in rep for rep in reports) else 0


def cmd_sweep(args) -> int:
    base = base_config(args)
    records = workload_records(args, base)
    policies = _policies(args)
    values = [getattr(config_from_mapping({args.param: v.strip()}), args.param)
              for v in args.values.split(",") if v.strip()]
    reports = [{**_run_labeled(base, policy, records, **{args.param: value}),
                "sweep_param": args.param, "sweep_value": value}
               for policy in policies for value in values]
    payload = {"schema_version": REPORT_SCHEMA_VERSION, "kind": "sweep",
               "param": args.param, "values": values, "reports": reports}
    _emit(payload, reports, args.out, args.format)
    return 1 if any("error" in rep for rep in reports) else 0


def cmd_gen(args) -> int:
    base = SimConfig()
    records = workload_records(args, base)
    write_trace(args.out, records)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _human(nbytes: float) -> str:
    for suffix, mult in (("MiB", 1024 ** 2), ("KiB", 1024)):
        if nbytes >= mult:
            value = nbytes / mult
            return f"{value:g}{suffix}"
    return f"{nbytes:g}B"


def cmd_metacost(args) -> int:
    page = parse_size(args.page)
    space = parse_size(args.space) if args.space else 0
    block = parse_size(args.block)
    report = metadata_cost(space or page, page, args.sets, block, args.ways)
    if space:
        print(f"page table: {report.bits_per_page_entry} bits/entry "
              f"({report.page_entry_bytes} bytes), {report.page_entries} entries, "
              f"{_human(report.total_page_table_bytes)} total")
        print(f"  functional: {report.functional_bits_per_page_entry} bits/entry, "
              f"{_human(report.functional_page_table_bytes)} total")
    if args.sets:
        print(f"cache meta: {report.bits_per_cache_set} bits/set, "
              f"{args.sets} sets, {_human(report.total_cache_meta_bytes)} total")
        print(f"  functional: {report.functional_bits_per_cache_set} bits/set, "
              f"{_human(report.functional_cache_meta_bytes)} total")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "metacost":
            return cmd_metacost(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return EXIT_DEFECT
    parser.error("no command")


if __name__ == "__main__":
    sys.exit(main())
