"""Measure one workload's trace file in a process that does nothing else.

Started by run.py, which generates the trace first so that generation
stays out of this process's peak RSS. Prints one JSON object as its last
line of standard output: the first run's report and content digest, the
count of simulator runs attempted and failed, why any failed, and the raw
samples or per-layer figures.

  end-to-end mode: rounds of set-up (load_trace + Simulator construction)
      and an untraced `Simulator.run` until `--seconds` have passed. Every
      run must reproduce the first report and digest. With --differential,
      the exact-recency simulator and the oracle are compared after peak
      RSS is read.
  traced mode: parse speed and resident bytes per record, then rounds of
      an untraced run, a traced run and an oracle run until `--seconds`
      have passed. The traced run must reproduce the untraced report and
      digest and leave every wrapped attribute as it found it; the oracle
      must match the exact-recency simulator bit for bit.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import time
import tracemalloc
from collections import defaultdict
from statistics import median

from tiersim import Simulator, load_trace, oracle_run

from spans import ROOT_SPAN, SpanRecorder, originals, traced, unrestored
from workloads import WORKLOADS

LOAD_REPEATS = 7
MIN_RUNS = 3


class Tally:
    """Simulator runs attempted, and the reasons the failed ones failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, *problems):
        """Count one run; `problems` holds a message per failed check."""
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}


def mismatch(what, report, digest, ref_report, ref_digest):
    if report != ref_report:
        diff = sorted(k for k in ref_report if report.get(k) != ref_report[k])
        return f"{what}: report differs in {diff}"
    if digest != ref_digest:
        return f"{what}: content digest differs"
    return None


def exact_reference(workload, records, tally):
    """Report and digest of the exact-recency simulator, which the oracle
    must match bit for bit."""
    sim = Simulator(workload.config(exact_recency=True))
    reference = sim.run(records), sim.content_digest()
    tally.run()
    return reference


def oracle_check(workload, records, exact, tally):
    """Run the oracle, count it, and return its host seconds."""
    start = time.perf_counter()
    report, digest = oracle_run(records, workload.config(exact_recency=True))
    seconds = time.perf_counter() - start
    tally.run(mismatch("oracle vs exact-recency simulator", report, digest, *exact))
    return seconds


def end_to_end(workload, path, seconds, check_oracle):
    """Rounds of set-up (load_trace + Simulator construction) and one run
    of the whole trace, until `seconds` have passed. Set-up and run
    samples interleave, so both see the same spells of host load."""
    cfg = workload.config()
    tally = Tally()
    setup_s, run_s = [], []
    ref_report = ref_digest = records = sim = None
    deadline = time.perf_counter() + seconds
    while len(run_s) < MIN_RUNS or time.perf_counter() < deadline:
        records = sim = None
        gc.collect()   # every timed call starts from the same heap
        start = time.perf_counter()
        records = load_trace(path)
        sim = Simulator(cfg)
        setup_s.append(time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        report = sim.run(records)
        run_s.append(time.perf_counter() - start)
        digest = sim.content_digest()
        if ref_report is None:
            ref_report, ref_digest = report, digest
        tally.run(mismatch("repeat run", report, digest, ref_report, ref_digest))
    sim = None
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if check_oracle:
        oracle_check(workload, records, exact_reference(workload, records, tally), tally)
    return {"report": ref_report, "digest": ref_digest, "requests": len(records),
            "setup_s": setup_s, "run_s": run_s,
            "peak_rss_mib": peak_rss_kib / 1024, **tally.as_dict()}


def layer_figures(spans, sim, report, probes) -> dict:
    """Per-layer figures from one traced run (superset of BENCHMARK.json)."""
    root_ns = spans[ROOT_SPAN].total_ns
    figures = {}
    layer_ns = defaultdict(int)
    for name, span in spans.items():
        figures[f"{name}.calls"] = span.calls
        figures[f"{name}.self_us"] = span.self_ns / span.calls / 1e3 if span.calls else 0.0
        figures[f"{name}.self_share"] = span.self_ns / root_ns
        layer_ns[name.split(".")[0]] += span.self_ns
    for layer, ns in layer_ns.items():
        figures[f"{layer}.self_share"] = ns / root_ns

    def ratio(num, den):
        return num / den if den else 0.0

    search = spans["pagetable.search_candidate"]
    lookup, insert = spans["subcache.lookup"], spans["subcache.insert"]
    figures["pagetable.probes_per_search"] = ratio(probes, search.calls)
    figures["migration.swaps"] = sim.engine.completed_swaps
    figures["subcache.hit_ratio"] = ratio(lookup.accepted, lookup.calls)
    figures["subcache.evict_ratio"] = ratio(insert.accepted, insert.calls)
    figures["metering.charges_per_request"] = ratio(
        spans["metering.charge"].calls, report["requests"])
    figures["policies.swap_accept_ratio"] = ratio(
        report["page_relocations"], spans["policies.slow_touch_action"].accepted)
    return figures


def traced_mode(workload, path, seconds):
    cfg = workload.config()
    load = []
    records = None
    for _ in range(LOAD_REPEATS):
        records = None
        gc.collect()
        start = time.perf_counter()
        records = load_trace(path)
        load.append(time.perf_counter() - start)
    records = None
    gc.collect()
    tracemalloc.start()
    try:
        records = load_trace(path)
        resident = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()

    tally = Tally()
    exact = exact_reference(workload, records, tally)

    ref_report = ref_digest = None
    untraced_s, traced_s, oracle_s, figures = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced_s) < MIN_RUNS or time.perf_counter() < deadline:
        sim = None
        sim = Simulator(cfg)
        gc.collect()
        start = time.perf_counter()
        report = sim.run(records)
        untraced_s.append(time.perf_counter() - start)
        digest = sim.content_digest()
        if ref_report is None:
            ref_report, ref_digest = report, digest
        tally.run(mismatch("repeat run", report, digest, ref_report, ref_digest))

        sim = Simulator(cfg)
        probes_before = sim.pagetable.counter
        recorder = SpanRecorder()
        saved = originals()
        gc.collect()
        start = time.perf_counter()
        with traced(recorder):
            report = sim.run(records)
        traced_s.append(time.perf_counter() - start)
        left = unrestored(saved)
        tally.run(mismatch("traced run", report, sim.content_digest(),
                           ref_report, ref_digest),
                  left and f"wrapped attributes not restored: {left}")
        figures.append(layer_figures(recorder.spans, sim, report,
                                     sim.pagetable.counter - probes_before))

        sim = None
        gc.collect()
        oracle_s.append(oracle_check(workload, records, exact, tally))

    # Ratios pair the runs of one round, which share the host's load.
    n = len(records)
    layers = {key: median(f[key] for f in figures) for key in figures[0]}
    layers.update({
        "trace.load_krec_s": n / median(load) / 1e3,
        "trace.bytes_per_record": resident / n,
        "oracle.kreq_s": n / median(oracle_s) / 1e3,
        "oracle.sim_ratio": median(o / u for o, u in zip(oracle_s, untraced_s)),
        "bench.trace_overhead": median(t / u for t, u in zip(traced_s, untraced_s)),
    })
    return {"report": ref_report, "digest": ref_digest, "requests": n,
            "runs": len(traced_s), "layers": layers, **tally.as_dict()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--trace-file", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--differential", action="store_true",
                    help="end-to-end mode: also compare with the oracle")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.traced:
        result = traced_mode(workload, args.trace_file, args.seconds)
    else:
        result = end_to_end(workload, args.trace_file, args.seconds,
                            args.differential)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
