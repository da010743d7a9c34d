import dataclasses
import random

import pytest

from tiersim import Policy, SimConfig, Simulator, oracle_run

from conftest import random_oracle_config as random_config
from conftest import random_records


POLICIES = (Policy.STATIC, Policy.PAGEMOVE, Policy.STATCOMB, Policy.ADPCOMB,
            Policy.ALLDRAM)


class TestDifferential:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_reports_bit_identical_in_exact_mode(self, policy):
        rng = random.Random(hash(policy.value) & 0xFFFF)
        for trial in range(12):
            cfg = random_config(rng, policy)
            recs = random_records(1200, cfg.host_space_bytes,
                                  seed=rng.randrange(1 << 20),
                                  write_fraction=rng.choice([0.2, 0.5, 0.8]))
            sim = Simulator(cfg)
            report = sim.run(recs)
            oracle_report, oracle_digest = oracle_run(recs, cfg)
            assert report == oracle_report, f"trial {trial}"
            assert sim.content_digest() == oracle_digest, f"trial {trial}"

    @pytest.mark.parametrize("bandwidth", (0.1, 3.0, 6.4, 7.3))
    @pytest.mark.parametrize("policy", (Policy.PAGEMOVE, Policy.STATCOMB,
                                        Policy.ADPCOMB))
    def test_bandwidths_whose_swap_time_is_inexact(self, policy, bandwidth):
        # 2 * page / bandwidth is not an exact float at these bandwidths, so
        # a request-path guard in front of the DMA engine that trusted the
        # rounded duration could see a swap complete one request late.
        rng = random.Random(f"{policy.value} {bandwidth}")
        for trial in range(4):
            cfg = dataclasses.replace(random_config(rng, policy),
                                      dma_bandwidth_bytes_per_ns=bandwidth)
            recs = random_records(1200, cfg.host_space_bytes,
                                  seed=rng.randrange(1 << 20),
                                  write_fraction=rng.choice([0.2, 0.5, 0.8]))
            sim = Simulator(cfg)
            report = sim.run(recs)
            oracle_report, oracle_digest = oracle_run(recs, cfg)
            assert report == oracle_report, f"trial {trial}"
            assert sim.content_digest() == oracle_digest, f"trial {trial}"

    @pytest.mark.parametrize("policy", (Policy.PAGEMOVE, Policy.STATCOMB))
    def test_bloom_mode_preserves_content(self, policy):
        # With the real bloom filter, counters may drift from the oracle's
        # exact queue, but data placement must never corrupt contents.
        rng = random.Random(99)
        for trial in range(8):
            cfg = random_config(rng, policy, exact=False)
            recs = random_records(1500, cfg.host_space_bytes,
                                  seed=rng.randrange(1 << 20))
            sim = Simulator(cfg)
            sim.run(recs)
            _, oracle_digest = oracle_run(recs, cfg)
            assert sim.content_digest() == oracle_digest, f"trial {trial}"

    def test_alldram_trivially_identical(self):
        cfg = SimConfig(fast_capacity_bytes=2 * 1024 ** 2,
                        slow_capacity_bytes=0, policy=Policy.ALLDRAM)
        recs = random_records(2000, cfg.host_space_bytes, seed=1)
        sim = Simulator(cfg)
        assert sim.run(recs) == oracle_run(recs, cfg)[0]

    def test_pagemove_at_100k_requests(self):
        cfg = SimConfig(fast_capacity_bytes=64 * 4096,
                        slow_capacity_bytes=256 * 4096, bloom_window=16,
                        policy=Policy.PAGEMOVE, exact_recency=True)
        recs = random_records(100_000, cfg.host_space_bytes, seed=44)
        sim = Simulator(cfg)
        report = sim.run(recs)
        oracle_report, oracle_digest = oracle_run(recs, cfg)
        assert report == oracle_report
        assert sim.content_digest() == oracle_digest
        assert report["page_relocations"] > 1000  # real churn, not a no-op


class TestOracleSelfChecks:
    def test_oracle_is_deterministic(self):
        cfg = SimConfig(fast_capacity_bytes=64 * 4096,
                        slow_capacity_bytes=128 * 4096,
                        bloom_window=8, policy=Policy.PAGEMOVE,
                        exact_recency=True)
        recs = random_records(2000, cfg.host_space_bytes, seed=2)
        assert oracle_run(recs, cfg) == oracle_run(recs, cfg)

    def test_oracle_rejects_bad_addresses(self):
        from tiersim import TraceError
        from tiersim.trace import TraceRecord
        cfg = SimConfig(fast_capacity_bytes=16 * 4096,
                        slow_capacity_bytes=16 * 4096, bloom_window=4,
                        policy=Policy.PAGEMOVE)
        with pytest.raises(TraceError, match="request 0"):
            oracle_run([TraceRecord("R", cfg.host_space_bytes, 64)], cfg)
