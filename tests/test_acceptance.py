"""Acceptance suite: one test per release criterion, each printing its own
pass line so a `pytest -s tests/test_acceptance.py` run reads as a checklist."""

import random
from collections import deque

from tiersim import (Policy, SimConfig, Simulator, TraceRecord,
                     WorkloadSpec, generate, metadata_cost, oracle_run)
from tiersim.recency import BloomRecencyFilter

from conftest import (random_oracle_config, random_records, run_trace,
                      shadow_run, small_config)

GIB = 1024 ** 3
ALL_POLICIES = (Policy.STATIC, Policy.PAGEMOVE, Policy.STATCOMB,
                Policy.ADPCOMB, Policy.ALLDRAM)


def announce(num, text):
    print(f"\nPASS criterion {num}: {text}")


# 1 ------------------------------------------------------------------------

def test_criterion_1_metadata_cost_goldens():
    rep = metadata_cost(2 * GIB, 4096, cache_sets=2 ** 16)
    assert rep.bits_per_page_entry == 24
    assert rep.page_entry_bytes == 3
    assert rep.total_page_table_bytes == 1536 * 1024          # 1.5 MiB exact
    assert rep.bits_per_cache_set == 39
    assert rep.total_cache_meta_bytes == 39 * 2 ** 16 / 8      # 312 KiB exact
    assert rep.total_cache_meta_bytes == 312 * 1024
    announce(1, "metadata cost: 24 bits -> 3 B/entry, 1.5 MiB table; "
                "39 bits/set, 312 KiB cache meta")


# 2 ------------------------------------------------------------------------

def energy_trace_config():
    return SimConfig(fast_capacity_bytes=256 * 1024,
                     slow_capacity_bytes=1024 * 1024,
                     bloom_window=16, policy=Policy.PAGEMOVE)


def energy_trace():
    # Ten requests against one initially-slow page. The first read starts a
    # swap at t=100; the write at the far end of the page lands ahead of the
    # copy (slow); later requests land behind it (fast).
    page = 64 + 36
    recs = [TraceRecord("R", page * 4096, 64)]
    recs += [TraceRecord("W", page * 4096 + 4032, 64)]
    recs += [TraceRecord("R", page * 4096, 64)] * 4
    recs += [TraceRecord("W", page * 4096 + 64, 64)] * 4
    return recs


def test_criterion_2_energy_hand_arithmetic():
    rep = run_trace(energy_trace(), energy_trace_config())
    # Access ledger worked out by hand from the device tables:
    assert (rep["slow_reads"], rep["slow_writes"]) == (1, 1)
    assert (rep["fast_reads"], rep["fast_writes"]) == (4, 4)
    assert rep["mig_fast_reads"] == rep["mig_fast_writes"] == 32
    assert rep["mig_slow_reads"] == rep["mig_slow_writes"] == 32
    assert rep["elapsed_ns"] == 100 + 300 + 4 * 50 + 4 * 50
    expected = {
        "energy_fast_read_nj": (4 + 32) * 4.2,
        "energy_fast_write_nj": (4 + 32) * 3.5,
        "energy_slow_read_nj": (1 + 32) * 1.28,
        "energy_slow_write_nj": (1 + 32) * 8.7,
        "energy_fast_background_nj": 30.0 * (256 * 1024 / GIB) * 800 * 1e-3,
    }
    for key, value in expected.items():
        assert abs(rep[key] - value) <= 1e-9 * max(1.0, abs(value)), key
    total = sum(expected.values())
    assert abs(rep["energy_total_nj"] - total) <= 1e-9 * total
    announce(2, f"10-request energy ledger matches hand arithmetic "
                f"({total:.6f} nJ, <=1e-9 relative)")


# 3 ------------------------------------------------------------------------

def test_criterion_3_shadow_content_equivalence():
    checked = 0
    for policy in ALL_POLICIES:
        if policy is Policy.ALLDRAM:
            cfg = small_config(policy, fast_capacity_bytes=2 * 1024 ** 2,
                               slow_capacity_bytes=0)
            space = cfg.host_space_bytes
        else:
            cfg = small_config(policy, rng_seed=11)
            space = small_config(Policy.STATCOMB).host_space_bytes
        recs = random_records(100_000, space, seed=31 + checked)
        sim, rep, mismatches = shadow_run(cfg, recs)
        assert mismatches == 0, policy
        assert rep["requests"] == 100_000
        if policy in (Policy.PAGEMOVE, Policy.STATCOMB, Policy.ADPCOMB):
            # enough churn that many reads landed on in-flight pages
            assert rep["page_relocations"] > 100, policy
        checked += 1
    announce(3, f"{checked} policies x 1e5 random requests: every read "
                f"byte-identical to the flat shadow model")


# 4 ------------------------------------------------------------------------

def test_criterion_4_oracle_differential():
    instances = 0
    for policy in ALL_POLICIES:
        rng = random.Random(1000 + instances)
        for _ in range(100):
            cfg = random_oracle_config(rng, policy, exact=True)
            recs = random_records(800, cfg.host_space_bytes,
                                  seed=rng.randrange(1 << 30),
                                  write_fraction=rng.choice([0.2, 0.5, 0.8]))
            sim = Simulator(cfg)
            report = sim.run(recs)
            oracle_report, oracle_digest = oracle_run(recs, cfg)
            assert report == oracle_report, (policy, instances)
            assert sim.content_digest() == oracle_digest, (policy, instances)
            instances += 1
    announce(4, f"{instances} random (trace, config) instances bit-identical "
                f"to the reference oracle in exact-recency mode")


# 5 ------------------------------------------------------------------------

def test_criterion_5_directional_write_reduction():
    # (a) one-block-per-page traffic: block caching must at least halve
    # slow-memory writes versus whole-page relocation.
    base = small_config(Policy.STATCOMB)
    recs = generate(WorkloadSpec(kind="sparse-wide",
                                 footprint_bytes=250 * 4096,
                                 request_count=5000, write_fraction=0.3,
                                 seed=5))
    statcomb = run_trace(recs, small_config(Policy.STATCOMB))
    pagemove = run_trace(recs, small_config(Policy.PAGEMOVE))
    assert statcomb["slow_writes_total"] <= 0.5 * pagemove["slow_writes_total"], (
        statcomb["slow_writes_total"], pagemove["slow_writes_total"])

    # (b) a sequential full-page scan promotes each page early enough that
    # at least 90% of foreground accesses land in fast memory.
    scan = generate(WorkloadSpec(kind="sequential",
                                 footprint_bytes=192 * 4096,
                                 request_count=192 * 64, write_fraction=0.0,
                                 seed=6))
    rep = run_trace(scan, small_config(Policy.PAGEMOVE))
    assert rep["fast_hit_fraction"] >= 0.90, rep["fast_hit_fraction"]
    announce(5, f"sparse-wide slow writes {statcomb['slow_writes_total']} vs "
                f"{pagemove['slow_writes_total']} (<=0.5x); sequential scan "
                f"fast-hit {rep['fast_hit_fraction']:.3f} >= 0.90")


# 6 ------------------------------------------------------------------------

def workload_suite():
    space_pages = small_config(Policy.STATCOMB).total_pages  # smallest host space
    yield "sequential", WorkloadSpec(kind="sequential",
                                     footprint_bytes=192 * 4096,
                                     request_count=8000, write_fraction=0.2,
                                     seed=61)
    yield "strided", WorkloadSpec(kind="strided", footprint_bytes=192 * 4096,
                                  request_count=8000, write_fraction=0.2,
                                  stride_bytes=256, seed=62)
    yield "zipfian", WorkloadSpec(kind="zipfian",
                                  footprint_bytes=(space_pages - 24) * 4096,
                                  request_count=8000, write_fraction=0.3,
                                  zipf_s=1.1, seed=63)
    yield "sparse-wide", WorkloadSpec(kind="sparse-wide",
                                      footprint_bytes=40 * 4096,
                                      request_count=4000, write_fraction=0.3,
                                      seed=64)
    yield "streaming-store", WorkloadSpec(kind="streaming-store",
                                          footprint_bytes=192 * 4096,
                                          request_count=8000,
                                          write_fraction=0.9, seed=65)


def test_criterion_6_policy_latency_ordering():
    summary = []
    for name, spec in workload_suite():
        recs = generate(spec)
        elapsed = {}
        for policy in ALL_POLICIES:
            if policy is Policy.ALLDRAM:
                cfg = small_config(policy,
                                   fast_capacity_bytes=(256 + 1024) * 1024,
                                   slow_capacity_bytes=0)
            else:
                cfg = small_config(policy, rng_seed=17)
            elapsed[policy] = run_trace(recs, cfg)["elapsed_ns"]
        for mover in (Policy.PAGEMOVE, Policy.STATCOMB, Policy.ADPCOMB):
            assert elapsed[Policy.ALLDRAM] <= elapsed[mover], (name, mover)
            assert elapsed[mover] <= elapsed[Policy.STATIC], (name, mover)
        summary.append(name)
    announce(6, f"alldram <= pagemove/statcomb/adpcomb <= static on "
                f"{', '.join(summary)}")


# 7 ------------------------------------------------------------------------

def mixed_locality_trace(cfg):
    """Interleaved page groups touching 1..8 distinct blocks per page, so
    page relocations fall and block relocations rise as the threshold grows."""
    classes = (1, 2, 3, 4, 5, 6, 7, 8)
    pages_per_class = 5
    first_slow = cfg.fast_pages
    plan = []  # (page, [block indexes])
    rng = random.Random(71)
    p = first_slow
    for k in classes:
        for _ in range(pages_per_class):
            base = rng.randrange(32)
            plan.append((p, [(base + j) % 32 for j in range(k)]))
            p += 1
    recs = []
    for round_idx in range(max(classes)):
        for page, blocks in plan:
            if round_idx < len(blocks):
                recs.append(TraceRecord("R", page * 4096 + blocks[round_idx] * 128, 64))
    return recs


def test_criterion_7_threshold_sweep_shape():
    cfg = small_config(Policy.STATCOMB, dma_bandwidth_bytes_per_ns=4096.0,
                       bloom_window=8)
    recs = mixed_locality_trace(cfg)
    thresholds = (2, 3, 4, 5, 6)
    pages, blocks = [], []
    for t in thresholds:
        rep = run_trace(recs, small_config(Policy.STATCOMB,
                                           promotion_threshold=t,
                                           dma_bandwidth_bytes_per_ns=4096.0,
                                           bloom_window=8))
        pages.append(rep["page_relocations"])
        blocks.append(rep["block_relocations"])
    assert all(a >= b for a, b in zip(pages, pages[1:])), pages
    assert all(a <= b for a, b in zip(blocks, blocks[1:])), blocks
    assert pages[0] > pages[-1]   # the sweep actually moves
    assert blocks[0] < blocks[-1]
    announce(7, f"threshold sweep {list(thresholds)}: page relocations "
                f"{pages} non-increasing, block relocations {blocks} "
                f"non-decreasing")


# 8 ------------------------------------------------------------------------

def test_criterion_8_adaptive_degeneracy():
    space = small_config(Policy.STATCOMB).host_space_bytes
    for trial in range(20):
        recs = random_records(3000, space, seed=800 + trial,
                              write_fraction=0.4)
        stat = run_trace(recs, small_config(Policy.STATCOMB,
                                            exact_recency=True))
        adp = run_trace(recs, small_config(Policy.ADPCOMB,
                                           adaptive_window_pages=0,
                                           exact_recency=True))
        stat.pop("policy")
        adp.pop("policy")
        assert stat == adp, f"trial {trial}"
    announce(8, "adaptive policy with adaptation disabled bit-identical to "
                "the static-threshold policy on 20 random traces")


# 9 ------------------------------------------------------------------------

def test_criterion_9_recency_filter_quality():
    window = 2048
    filt = BloomRecencyFilter(window)
    rng = random.Random(9)
    recent = deque(maxlen=window)
    ops = 0
    false_negatives = 0
    for _ in range(500_000):
        page = rng.randrange(1 << 40)
        filt.record((page,))
        recent.append(page)
        ops += 1
        probe = recent[rng.randrange(len(recent))]
        if probe not in filt:
            false_negatives += 1
        ops += 1
    assert ops == 1_000_000
    assert false_negatives == 0

    probes = 40_000
    false_hits = sum((1 << 41) + i in filt for i in range(probes))
    fp_rate = false_hits / probes
    assert fp_rate <= 0.05, fp_rate
    announce(9, f"1e6 insert/query ops: 0 false negatives in-window, "
                f"false-positive rate {fp_rate:.4f} <= 0.05 at capacity")


# 10 -----------------------------------------------------------------------

def test_criterion_10_determinism_of_all_runs():
    # Re-run a representative slice of every criterion's workload.
    assert run_trace(energy_trace(), energy_trace_config()) == \
        run_trace(energy_trace(), energy_trace_config())

    space = small_config(Policy.STATCOMB).host_space_bytes
    for policy in ALL_POLICIES:
        if policy is Policy.ALLDRAM:
            cfg = small_config(policy, fast_capacity_bytes=2 * 1024 ** 2,
                               slow_capacity_bytes=0)
        else:
            cfg = small_config(policy, rng_seed=5)
        recs = random_records(20_000, space, seed=101)
        sim_a, sim_b = Simulator(cfg), Simulator(cfg)
        assert sim_a.run(recs) == sim_b.run(recs), policy
        assert sim_a.content_digest() == sim_b.content_digest(), policy

    rng = random.Random(10)
    cfg = random_oracle_config(rng, Policy.ADPCOMB, exact=True)
    recs = random_records(2000, cfg.host_space_bytes, seed=102)
    assert oracle_run(recs, cfg) == oracle_run(recs, cfg)

    sweep_cfg = small_config(Policy.STATCOMB, dma_bandwidth_bytes_per_ns=4096.0,
                             bloom_window=8)
    sweep_recs = mixed_locality_trace(sweep_cfg)
    assert run_trace(sweep_recs, sweep_cfg) == run_trace(sweep_recs, sweep_cfg)
    announce(10, "repeated runs of every criterion workload are bit-identical")
