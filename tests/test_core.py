import pytest

from tiersim import (ConfigError, MemoryRequest, Policy, SimConfig, Simulator,
                     TraceError, TraceRecord, run_trace)

from conftest import random_records, shadow_run, small_config


class TestDispatchBasics:
    def test_fast_hit_charges_fast_read(self):
        sim = Simulator(small_config(Policy.PAGEMOVE))
        out = sim.dispatch(MemoryRequest("R", 0x1000, 64, 0))
        assert out.device == "fast"
        assert out.latency_ns == sim.config.fast_read_ns
        assert sim.page_relocations == sim.block_relocations == 0

    def test_slow_touch_under_pagemove_serves_slow_and_swaps(self):
        sim = Simulator(small_config(Policy.PAGEMOVE))
        addr = (sim.config.fast_pages + 1) * 4096
        out = sim.dispatch(MemoryRequest("R", addr, 64, 0))
        assert out.device == "slow"
        assert out.latency_ns == sim.config.slow_read_ns
        assert sim.page_relocations == 1
        assert sim.engine.busy

    def test_statcomb_below_threshold_copies_block(self):
        sim = Simulator(small_config(Policy.STATCOMB))
        addr = (sim.config.fast_pages + 1) * 4096 + 0x200
        out = sim.dispatch(MemoryRequest("R", addr, 64, 0))
        assert out.device == "slow"
        assert sim.block_relocations == 1
        assert sim.cache.peek(addr // 128) is not None

    def test_out_of_range_address_is_fatal_with_seq(self):
        sim = Simulator(small_config(Policy.PAGEMOVE))
        bad = sim.config.host_space_bytes
        with pytest.raises(TraceError, match="request 3"):
            sim.dispatch(MemoryRequest("R", bad, 64, 3))

    def test_block_crossing_rejected(self):
        sim = Simulator(small_config(Policy.PAGEMOVE))
        with pytest.raises(TraceError, match="crosses"):
            sim.dispatch(MemoryRequest("R", 0x10F8, 16, 0))

    def test_oversized_request_rejected(self):
        sim = Simulator(small_config(Policy.PAGEMOVE))
        with pytest.raises(TraceError, match="size"):
            sim.dispatch(MemoryRequest("R", 0, 256, 0))


class TestRun:
    def test_empty_trace_all_zero(self):
        rep = run_trace([], small_config(Policy.PAGEMOVE))
        assert rep["requests"] == 0
        assert rep["elapsed_ns"] == 0
        assert rep["energy_total_nj"] == 0.0
        assert rep["fast_reads"] == rep["slow_writes"] == 0

    def test_single_touch_under_alldram(self):
        cfg = small_config(Policy.ALLDRAM, fast_capacity_bytes=2 * 1024 ** 2,
                           slow_capacity_bytes=0)
        rep = run_trace([TraceRecord("R", 0x4000, 64)], cfg)
        assert rep["fast_reads"] == 1
        assert rep["slow_reads"] == 0
        assert rep["migrated_bytes"] == 0

    def test_conservation_of_foreground_accesses(self):
        cfg = small_config(Policy.STATCOMB, promotion_threshold=2, bloom_window=8)
        recs = random_records(5000, cfg.host_space_bytes, seed=12)
        rep = run_trace(recs, cfg)
        assert rep["foreground_accesses"] == len(recs)
        assert rep["requests"] == len(recs)
        assert rep["reads"] + rep["writes"] == len(recs)

    def test_rerun_same_seed_bit_identical(self):
        cfg = small_config(Policy.PAGEMOVE)
        recs = random_records(10_000, cfg.host_space_bytes, seed=13)
        assert run_trace(recs, cfg) == run_trace(recs, cfg)

    def test_static_rerun_and_reseed(self):
        cfg = small_config(Policy.STATIC, rng_seed=5)
        recs = random_records(3000, cfg.host_space_bytes, seed=14)
        assert run_trace(recs, cfg) == run_trace(recs, cfg)
        other = run_trace(recs, small_config(Policy.STATIC, rng_seed=6))
        assert other != run_trace(recs, cfg)


class TestShadowContent:
    @pytest.mark.parametrize("policy", [Policy.STATIC, Policy.PAGEMOVE,
                                        Policy.STATCOMB, Policy.ADPCOMB])
    def test_reads_match_flat_shadow(self, policy):
        cfg = small_config(policy, rng_seed=3)
        recs = random_records(8000, cfg.host_space_bytes, seed=15)
        _, rep, mismatches = shadow_run(cfg, recs)
        assert mismatches == 0
        assert rep["requests"] == len(recs)

    def test_alldram_shadow(self):
        cfg = small_config(Policy.ALLDRAM, fast_capacity_bytes=2 * 1024 ** 2,
                           slow_capacity_bytes=0)
        _, _, mismatches = shadow_run(cfg, random_records(3000, 1024 ** 2, seed=16))
        assert mismatches == 0

    def test_peek_agrees_with_dispatch_reads(self):
        cfg = small_config(Policy.STATCOMB, promotion_threshold=2, bloom_window=8)
        sim = Simulator(cfg)
        recs = random_records(2000, cfg.host_space_bytes, seed=17)
        for seq, rec in enumerate(recs):
            peeked = sim.peek(rec.host_addr, rec.size_bytes)
            out = sim.dispatch(MemoryRequest(rec.kind, rec.host_addr,
                                             rec.size_bytes, seq))
            if rec.kind == "R":
                assert out.data == peeked


class TestLatencyDominance:
    def test_alldram_is_a_floor_for_every_policy(self):
        base = small_config(Policy.PAGEMOVE)
        # the cache zone shrinks host space for the caching policies
        space = small_config(Policy.STATCOMB).host_space_bytes
        recs = random_records(4000, space, seed=18)
        floor = sum(base.fast_read_ns if r.kind == "R" else base.fast_write_ns
                    for r in recs)
        for policy in (Policy.STATIC, Policy.PAGEMOVE, Policy.STATCOMB,
                       Policy.ADPCOMB):
            rep = run_trace(recs, small_config(policy))
            assert rep["elapsed_ns"] >= floor


class TestConfigValidation:
    def test_page_size_power_of_two(self):
        with pytest.raises(ConfigError):
            SimConfig(page_size_bytes=3000).validate()

    def test_cache_zone_only_for_caching_policies(self):
        with pytest.raises(ConfigError):
            small_config(Policy.PAGEMOVE, cache_zone_bytes=64 * 1024).validate()
        with pytest.raises(ConfigError):
            small_config(Policy.STATCOMB, cache_zone_bytes=0).validate()

    def test_cache_sets_power_of_two(self):
        with pytest.raises(ConfigError):
            small_config(Policy.STATCOMB, cache_zone_bytes=three_blocks_line())\
                .validate()

    def test_threshold_bounds(self):
        with pytest.raises(ConfigError):
            small_config(Policy.STATCOMB, promotion_threshold=0).validate()
        with pytest.raises(ConfigError):
            small_config(Policy.STATCOMB, promotion_threshold=33).validate()

    def test_bloom_window_must_fit_fast_zone(self):
        with pytest.raises(ConfigError, match="bloom"):
            small_config(Policy.PAGEMOVE, bloom_window=64).validate()

    def test_alldram_footprint_guard(self):
        cfg = small_config(Policy.ALLDRAM, fast_capacity_bytes=8 * 4096,
                           slow_capacity_bytes=8 * 4096)
        sim = Simulator(cfg)
        from tiersim import SimulationError
        with pytest.raises(SimulationError):
            for page in range(16):
                sim.dispatch(MemoryRequest("R", page * 4096, 64, page))


def three_blocks_line():
    # 3 sets worth of capacity: 3 * 128 * 4 (not a power-of-two set count)
    return 3 * 128 * 4


def test_page_table_dump_via_simulator():
    sim = Simulator(small_config(Policy.PAGEMOVE))
    dump = sim.pagetable.dump()
    assert dump.splitlines()[1].split()[:2] == ["0", "0"]
