"""Host-speed benchmark for tiersim.

    python3 bench/run.py --workload zipf-adpcomb --seed 1 --seconds 35 --trace 0

Measures how fast the simulator runs on this host, not simulated time.
The workload's trace is generated from --seed and written to a file under
.bench_work/ before anything is measured; a child process (measure.py)
then drives the package only through load_trace -> Simulator(cfg).run ->
report, so its peak RSS holds the simulator and the loaded trace alone.

--trace 0 prints the end-to-end metrics: sim_kreq_s (median over repeated
runs of the whole trace), setup_s (median load_trace + Simulator
construction) and peak_rss_mib. --trace 1 prints the per-layer metrics of
a traced run, whose spans are written to .bench_work/ as JSON. The metric
names and units come from BENCHMARK.json at the repository root.

Every run checks the simulated results: at the default seed they must
equal the values pinned in workloads.py; at any other seed (and in
--smoke mode) the exact-recency simulator must match the oracle bit for
bit. All repeated runs must agree. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TIME_LIMIT_S = 170


if not (SRC / "tiersim" / "__init__.py").is_file():
    sys.exit(f"bench: no tiersim sources under {SRC}")
sys.path.insert(0, str(SRC))

from tiersim import generate, write_trace  # noqa: E402

from workloads import (DEFAULT_SEED, PINNED, PINNED_FIELDS, REQUESTS,  # noqa: E402
                       SMOKE_REQUESTS, WORKLOADS)

MODEL_NOTE = ("simulated results (the model is unvalidated against hardware; "
              "the oracle shares the simulator's semantics, so it is not an "
              "accuracy reference)")


def metric_units(section):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def write_workload_trace(workload, seed, requests, stem):
    records = generate(workload.spec(seed, requests))
    plain = WORK / f"{stem}.trc"
    write_trace(plain, records)
    if not workload.gzip:
        return plain
    packed = plain.with_suffix(".trc.gz")
    with open(plain, "rb") as src, gzip.open(packed, "wb") as dst:
        shutil.copyfileobj(src, dst)
    plain.unlink()
    return packed


def measure(args, path, deadline):
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--trace-file", str(path), "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--traced")
    elif args.seed != DEFAULT_SEED or args.smoke:
        cmd.append("--differential")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_pins(name, report, digest):
    """Messages for every simulated field that differs from its pinned value."""
    pinned = PINNED[name]
    got = {field: report[field] for field in PINNED_FIELDS}
    got["content_digest"] = digest
    return [f"pinned {k}: expected {pinned[k]!r}, got {got[k]!r}"
            for k in pinned if got[k] != pinned[k]]


def run_metadata(args, requests):
    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def commit():
        if not (ROOT / ".git").exists():
            return None   # a plain checkout; do not let git search parent directories
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                 capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    return {"workload": args.workload, "seed": args.seed, "requests": requests,
            "trace": args.trace, "seconds": args.seconds, "smoke": args.smoke,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "commit": commit()}


def spread(samples):
    """(median, q1, q3) of the samples, as statistics.quantiles gives them."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = quantiles(samples, n=4)
    return median(samples), q1, q3


def end_to_end_metrics(result):
    n = result["requests"]
    rates = [n / s / 1e3 for s in result["run_s"]]
    setup = result["setup_s"]
    for name, samples, unit in (("sim_kreq_s", rates, "kreq/s"),
                                ("setup_s", setup, "s")):
        mid, q1, q3 = spread(samples)
        print(f"  {name:<13} {mid:10.4f} {unit:<7} median of {len(samples)} "
              f"(q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"  {'peak_rss_mib':<13} {result['peak_rss_mib']:10.4f} MiB     "
          "ru_maxrss of the measuring process")
    return {"sim_kreq_s": median(rates), "setup_s": median(setup),
            "peak_rss_mib": result["peak_rss_mib"]}


def print_layers(layers, units):
    print("per-layer figures (medians over traced runs):")
    for name in units:
        print(f"  {name:<36} {layers[name]:14.6g} {units[name]}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Host-speed benchmark for tiersim (see the module docstring).")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="how long the repeated runs go on")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run with per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help=f"{SMOKE_REQUESTS} requests instead of {REQUESTS}")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    units = metric_units("per_layer" if args.trace else "end_to_end")
    requests = SMOKE_REQUESTS if args.smoke else REQUESTS
    workload = WORKLOADS[args.workload]

    meta = run_metadata(args, requests)
    print(json.dumps({"run": meta}))
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    path = write_workload_trace(workload, args.seed, requests, stem)
    try:
        result = measure(args, path, deadline)
    finally:
        path.unlink()
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    failures = result["failures"]
    failed = result["failed"]
    report, digest = result["report"], result["digest"]
    pinned = args.seed == DEFAULT_SEED and not args.smoke
    if pinned:
        wrong = check_pins(args.workload, report, digest)
        if wrong:
            failures += wrong
            failed = result["attempted"]
    checked = "against pins" if pinned else "by the oracle differential"
    print(f"{MODEL_NOTE}, checked {checked} and by repeat runs agreeing:")
    for field in PINNED_FIELDS:
        print(f"  {field} = {report[field]!r}")
    print(f"  content_digest = {digest}")

    if args.trace:
        layers = result["layers"]
        print_layers(layers, units)
        with open(WORK / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"run": meta, "layers": layers},
                      fh, indent=1, sort_keys=True)
        values = {name: layers[name] for name in units}
    else:
        print("end-to-end metrics (tracing off):")
        values = end_to_end_metrics(result)
    for message in failures:
        print(f"FAILED: {message}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
