import pytest

from tiersim import Policy, Simulator, TraceRecord, core
from tiersim.policies import (COPY_BLOCK, TRY_SWAP, AdaptiveController,
                              make_controller, slow_touch_action)

from conftest import random_records, small_config


class TestSlowTouchAction:
    def test_static_always_forwards(self, monkeypatch):
        # Static placement never asks the policy: every slow touch is served
        # from slow memory and nothing moves.
        def asked(*args):
            raise AssertionError("static placement asked for an action")

        monkeypatch.setattr(core, "slow_touch_action", asked)
        sim = Simulator(small_config(Policy.STATIC))
        rep = sim.run(random_records(2000, sim.config.host_space_bytes, 3))
        assert rep["slow_reads"] > 0 and rep["slow_writes"] > 0
        assert rep["page_relocations"] == rep["block_relocations"] == 0
        assert rep["migrated_bytes"] == 0

    def test_pagemove_always_swaps(self):
        assert slow_touch_action(Policy.PAGEMOVE, 0, 4) == TRY_SWAP

    def test_comb_below_threshold_copies(self):
        # mirrors the worked example: 2 cached blocks against threshold 4
        assert slow_touch_action(Policy.STATCOMB, 2, 4) == COPY_BLOCK

    def test_comb_meets_threshold_swaps(self):
        assert slow_touch_action(Policy.STATCOMB, 4, 4) == TRY_SWAP
        assert slow_touch_action(Policy.ADPCOMB, 5, 4) == TRY_SWAP


class TestAdaptiveController:
    def make(self, threshold=4, window=4, alpha=0.25):
        return AdaptiveController(threshold, 1, 8, window, alpha, 0.75, 0.25)

    def test_fully_used_pages_lower_threshold(self):
        c = self.make()
        for _ in range(4):
            c.on_promotion(8)
        assert c.threshold == 3
        for _ in range(12):
            c.on_promotion(8)
        assert c.threshold == 1  # floors at min

    def test_barely_used_pages_raise_threshold(self):
        c = self.make()
        for _ in range(4):
            c.on_promotion(1)
        assert c.threshold == 5
        for _ in range(20):
            c.on_promotion(1)
        assert c.threshold == 8  # caps at max

    def test_mixed_utilization_leaves_threshold(self):
        # Hand EWMA oracle: alternating popcounts 8 and 2 with alpha=0.25.
        c = self.make(window=6)
        ewma = None
        for i in range(6):
            pop = 8 if i % 2 == 0 else 2
            sample = pop / 8
            ewma = sample if ewma is None else 0.25 * sample + 0.75 * ewma
            c.on_promotion(pop)
        assert c.ewma == pytest.approx(ewma)
        assert 0.25 <= ewma <= 0.75
        assert c.threshold == 4

    def test_updates_only_at_window_boundaries(self):
        c = self.make(window=8)
        for _ in range(7):
            c.on_promotion(8)
        assert c.threshold == 4
        c.on_promotion(8)
        assert c.threshold == 3

    def test_window_zero_builds_no_controller(self):
        # Adaptation off is statcomb's fixed threshold: criterion 8 checks
        # that the two policies then report alike.
        assert make_controller(small_config(
            Policy.ADPCOMB, adaptive_window_pages=0)) is None
        assert make_controller(small_config(Policy.ADPCOMB)) is not None
        for policy in (Policy.STATIC, Policy.PAGEMOVE, Policy.STATCOMB):
            assert make_controller(small_config(policy)) is None


class TestPolicyIsolation:
    def test_static_and_alldram_never_migrate(self):
        recs = random_records(3000, 1024 * 1024, seed=3)
        for policy in (Policy.STATIC, Policy.ALLDRAM):
            cfg = small_config(policy)
            if policy is Policy.ALLDRAM:
                cfg = small_config(policy, fast_capacity_bytes=2 * 1024 * 1024,
                                   slow_capacity_bytes=0)
            sim = Simulator(cfg)
            rep = sim.run(recs)
            assert rep["page_relocations"] == 0
            assert rep["block_relocations"] == 0
            assert rep["migrated_bytes"] == 0
            assert rep["mig_fast_reads"] == rep["mig_slow_writes"] == 0

    def test_alldram_all_fast(self):
        recs = random_records(2000, 1024 * 1024, seed=4)
        cfg = small_config(Policy.ALLDRAM, fast_capacity_bytes=2 * 1024 * 1024,
                           slow_capacity_bytes=0)
        rep = Simulator(cfg).run(recs)
        assert rep["slow_reads"] == rep["slow_writes"] == 0
        assert rep["fast_hit_fraction"] == 1.0


class TestThresholdBehavior:
    def _run_statcomb(self, threshold, recs):
        cfg = small_config(Policy.STATCOMB, promotion_threshold=threshold,
                           bloom_window=8)
        return Simulator(cfg).run(recs)

    def test_page_promotion_after_threshold_distinct_blocks(self):
        # Touch 4 then a 5th distinct block of one slow page at threshold 4:
        # the first four are copied, the fifth starts the swap.
        cfg = small_config(Policy.STATCOMB, promotion_threshold=4,
                           bloom_window=8)
        page = cfg.fast_pages + 2
        recs = [TraceRecord("R", page * 4096 + blk * 128, 64)
                for blk in range(5)]
        sim = Simulator(cfg)
        rep = sim.run(recs)
        assert rep["block_relocations"] == 4
        assert rep["page_relocations"] == 1

    def test_threshold_one_swaps_at_least_as_much_as_higher(self):
        recs = random_records(6000, small_config(Policy.STATCOMB).host_space_bytes,
                              seed=9, write_fraction=0.3)
        swaps_by_thr = {t: self._run_statcomb(t, recs)["page_relocations"]
                        for t in (1, 3, 6)}
        assert swaps_by_thr[1] >= swaps_by_thr[3]
        assert swaps_by_thr[1] >= swaps_by_thr[6]


class TestAdaptiveDegeneracy:
    def test_disabled_adaptive_equals_statcomb(self):
        recs = random_records(5000, small_config(Policy.STATCOMB).host_space_bytes,
                              seed=21)
        stat = Simulator(small_config(Policy.STATCOMB, exact_recency=True)).run(recs)
        adp = Simulator(small_config(Policy.ADPCOMB, adaptive_window_pages=0,
                                     exact_recency=True)).run(recs)
        stat.pop("policy"), adp.pop("policy")
        assert stat == adp

    def test_enabled_adaptive_can_diverge(self):
        # Pages whose four touched blocks all sit in one bitmap region:
        # every promotion samples a low utilization, so the threshold must
        # climb. Fast DMA keeps the engine free for every attempt.
        cfg = small_config(Policy.ADPCOMB, promotion_threshold=1,
                           adaptive_window_pages=8, bloom_window=8,
                           dma_bandwidth_bytes_per_ns=4096.0)
        recs = []
        for p in range(cfg.fast_pages, cfg.fast_pages + 100):
            recs += [TraceRecord("R", p * 4096 + blk * 128, 64)
                     for blk in range(4)]
        rep = Simulator(cfg).run(recs)
        assert rep["page_relocations"] > 0
        assert rep["threshold_final"] > 1
