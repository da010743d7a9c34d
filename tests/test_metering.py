import math

import pytest

from tiersim import Policy, Simulator, metadata_cost
from tiersim.metering import MeterLedger, gib

from conftest import random_records, small_config


def make_ledger(**overrides):
    return MeterLedger(small_config(Policy.PAGEMOVE, **overrides))


class TestCharge:
    def test_foreground_fast_read_block_sized(self):
        led = make_ledger()
        latency = led.charge("fast", "read", True, 64)
        assert latency == 50
        assert led.fast_reads == 1
        assert led.total_foreground_ns == 50
        energy = led.energy_breakdown(0, 0.0)
        assert energy["energy_fast_read_nj"] == pytest.approx(4.2)

    @pytest.mark.parametrize("block", [128, 256])
    def test_units_are_the_ceiling_with_a_floor_of_one(self, block):
        led = make_ledger(block_size_bytes=block)
        page = led.config.page_size_bytes
        for nbytes in (0, 1, block - 1, block, block + 1, page):
            before = led.slow_reads
            led.charge("slow", "read", True, nbytes)
            assert led.slow_reads - before == max(1, math.ceil(nbytes / block))

    def test_background_slow_write_costs_no_time(self):
        led = make_ledger()
        assert led.charge("slow", "write", False, 128) == 0
        assert led.mig_slow_writes == 1
        assert led.total_foreground_ns == 0
        energy = led.energy_breakdown(0, 0.0)
        assert energy["energy_slow_write_nj"] == pytest.approx(8.7)

    def test_page_swap_is_32_block_units_per_direction(self):
        led = make_ledger()
        led.charge("slow", "read", False, 4096)
        led.charge("fast", "write", False, 4096)
        led.charge("fast", "read", False, 4096)
        led.charge("slow", "write", False, 4096)
        assert (led.mig_slow_reads, led.mig_fast_writes,
                led.mig_fast_reads, led.mig_slow_writes) == (32, 32, 32, 32)

    def test_sub_block_access_counts_one_unit(self):
        led = make_ledger()
        led.charge("slow", "read", True, 8)
        assert led.slow_reads == 1
        assert led.total_foreground_ns == 100

    @pytest.mark.parametrize("nbytes,units", [(0, 1), (1, 1), (128, 1),
                                              (129, 2)])
    def test_units_round_up_to_whole_blocks(self, nbytes, units):
        led = make_ledger()
        assert led.charge("slow", "write", True, nbytes) == 300 * units
        assert led.slow_writes == units
        assert led.total_foreground_ns == 300 * units
        assert led.charge("fast", "read", False, nbytes) == 0
        assert led.mig_fast_reads == units
        assert led.total_foreground_ns == 300 * units


class TestBackgroundEnergy:
    def test_one_gib_for_one_second_is_30_mj(self):
        led = make_ledger()
        energy = led.energy_breakdown(elapsed_ns=1_000_000_000,
                                      background_gib=1.0)
        assert energy["energy_fast_background_nj"] == pytest.approx(30e6)

    def test_zero_elapsed_zero_background(self):
        led = make_ledger()
        energy = led.energy_breakdown(0, 1.0)
        assert energy["energy_fast_background_nj"] == 0.0

    def test_128_mib_for_one_ms_is_3_75_uj(self):
        led = make_ledger()
        energy = led.energy_breakdown(elapsed_ns=1_000_000,
                                      background_gib=gib(128 * 1024 ** 2))
        assert energy["energy_fast_background_nj"] == pytest.approx(3750.0)


class TestFinalize:
    def test_breakdown_sums_exactly(self):
        cfg = small_config(Policy.STATCOMB, promotion_threshold=2, bloom_window=8)
        rep = Simulator(cfg).run(random_records(4000, cfg.host_space_bytes, seed=6))
        parts = (rep["energy_fast_background_nj"] + rep["energy_fast_read_nj"]
                 + rep["energy_fast_write_nj"] + rep["energy_slow_read_nj"]
                 + rep["energy_slow_write_nj"])
        assert rep["energy_total_nj"] == parts

    def test_write_accounting_completeness(self):
        cfg = small_config(Policy.STATCOMB, promotion_threshold=2, bloom_window=8)
        rep = Simulator(cfg).run(random_records(4000, cfg.host_space_bytes, seed=7))
        swap_writes = 32 * rep["page_relocations"]
        assert rep["slow_writes_total"] == (rep["slow_writes"] + swap_writes
                                            + rep["writebacks"])

    def test_alldram_has_zero_slow_energy(self):
        cfg = small_config(Policy.ALLDRAM, fast_capacity_bytes=2 * 1024 ** 2,
                           slow_capacity_bytes=0)
        rep = Simulator(cfg).run(random_records(1000, 1024 ** 2, seed=8))
        assert rep["energy_slow_read_nj"] == 0.0
        assert rep["energy_slow_write_nj"] == 0.0

    def test_elapsed_is_the_foreground_clock(self):
        led = make_ledger()
        led.charge("fast", "read", True, 64)
        led.charge("slow", "write", False, 128)
        led.charge_stall(7)
        rep = led.finalize(1.0)
        assert rep["elapsed_ns"] == rep["total_foreground_ns"] == 57


class TestMetadataCost:
    def test_2gib_space_4kib_pages(self):
        rep = metadata_cost(2 * 1024 ** 3, 4096)
        assert rep.bits_per_page_entry == 24
        assert rep.page_entry_bytes == 3
        assert rep.page_entries == 524288
        assert rep.total_page_table_bytes == 1536 * 1024  # 1.5 MiB

    def test_cache_meta_39_bits_312_kib(self):
        rep = metadata_cost(2 * 1024 ** 3, 4096, cache_sets=2 ** 16)
        assert rep.bits_per_cache_set == 39
        assert rep.total_cache_meta_bytes == 39 * 2 ** 16 / 8
        assert rep.total_cache_meta_bytes == 312 * 1024

    def test_single_page_degenerate(self):
        rep = metadata_cost(4096, 4096)
        assert rep.bits_per_page_entry == 5

    def test_functional_variant_is_larger(self):
        rep = metadata_cost(2 * 1024 ** 3, 4096, cache_sets=2 ** 16)
        assert rep.functional_bits_per_page_entry > rep.bits_per_page_entry
        assert rep.functional_bits_per_cache_set > rep.bits_per_cache_set

    def test_rejects_non_power_of_two_page(self):
        with pytest.raises(ValueError):
            metadata_cost(2 * 1024 ** 3, 5000)


class TestCounterMonotonicity:
    def test_counters_never_decrease_during_run(self):
        from tiersim import MemoryRequest
        cfg = small_config(Policy.PAGEMOVE, bloom_window=8)
        sim = Simulator(cfg)
        recs = random_records(1500, cfg.host_space_bytes, seed=10)
        previous = [0] * 8
        fields = MeterLedger.FG_FIELDS + MeterLedger.MIG_FIELDS
        for seq, rec in enumerate(recs):
            sim.dispatch(MemoryRequest(rec.kind, rec.host_addr,
                                       rec.size_bytes, seq))
            current = [getattr(sim.ledger, f) for f in fields]
            assert all(c >= p for c, p in zip(current, previous))
            previous = current
