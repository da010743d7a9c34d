import random
import tracemalloc
from collections import deque

import pytest

from tiersim.recency import BloomRecencyFilter, ExactRecencyFilter, mix64


def test_mix64_is_stable_and_spread():
    assert mix64(0) == mix64(0)
    outs = {mix64(i) & 0xFF for i in range(256)}
    assert len(outs) > 150  # low byte should be well mixed


class TestBloom:
    def test_present_immediately_after_record(self):
        f = BloomRecencyFilter(64)
        f.record(12345)
        assert 12345 in f

    def test_no_false_negatives_in_window(self):
        window = 128
        f = BloomRecencyFilter(window)
        rng = random.Random(0)
        recent = deque(maxlen=window)
        for step in range(20_000):
            page = rng.randrange(1 << 32)
            f.record(page)
            recent.append(page)
            probe = rng.choice(recent)
            assert probe in f, f"false negative at step {step}"

    def test_aging_rotation_can_forget(self):
        window = 64
        f = BloomRecencyFilter(window)
        f.record(999_999_999)
        # Two full generations of distinct inserts clear the aging filter.
        for i in range(2 * window):
            f.record(i)
        # The original key may only survive as a false positive now; with
        # fresh filters sized for <=5% FP this must be overwhelmingly false.
        survivors = 0
        g = BloomRecencyFilter(window)
        g.record(777)
        for i in range(2 * window):
            g.record(i + 10_000)
        survivors += (999_999_999 in f) + (777 in g)
        assert survivors <= 1

    def test_false_positive_rate_at_capacity(self):
        window = 2048
        f = BloomRecencyFilter(window)
        rng = random.Random(1)
        for _ in range(3 * window):  # both generations full
            f.record(rng.randrange(1 << 48))
        probes = 20_000
        false_hits = sum((1 << 50) + i in f for i in range(probes))
        assert false_hits / probes <= 0.05

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            BloomRecencyFilter(0)


class ReferenceBloom:
    """Two rotating banks held as sets of bit positions, each key hashed on
    every call straight from the double-hash definition."""

    def __init__(self, window, nbits, k):
        self.window, self.nbits, self.k = window, nbits, k
        self.active, self.aging, self.count = set(), set(), 0

    def positions(self, key):
        h1 = mix64(key)
        h2 = mix64(key ^ 0xA5A5A5A5A5A5A5A5) | 1
        return {(h1 + i * h2) % 2 ** 64 % self.nbits for i in range(self.k)}

    def record(self, key):
        self.active |= self.positions(key)
        self.count += 1
        if self.count == self.window:
            self.aging, self.active, self.count = self.active, set(), 0

    def __contains__(self, key):
        positions = self.positions(key)
        return positions <= self.active or positions <= self.aging


class TestMemo:
    @pytest.mark.parametrize("window", [1, 512])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_memo_matches_reference(self, window, seed):
        # Keys come from [0, 2N): below N they go through the memo, from N
        # on they are hashed on the fly. Queries also run before a key's
        # first record, so either method can fill a memo entry.
        n = max(64, 2 * window)
        memo = BloomRecencyFilter(window, pages=n)
        ref = ReferenceBloom(window, memo.nbits, memo.k)
        rng = random.Random(seed)
        edges = (0, n - 1, n, 2 * n - 1)
        steps = 4 * window + 200
        answers = set()
        for _ in range(steps):
            key = rng.choice(edges) if rng.random() < 0.1 else rng.randrange(2 * n)
            for probe in (rng.randrange(2 * n), rng.choice(edges), key):
                answers.add(probe in memo)
                assert (probe in memo) == (probe in ref), probe
            memo.record(key)
            ref.record(key)
        assert steps // window >= 3  # generation rollovers
        assert answers == {True, False}
        assert memo.memo[(n - 1) * memo.k] != memo.nbits  # key N-1 was memoized
        assert len(memo.memo) == n * memo.k  # key N was not

    def test_memo_memory_is_flat(self):
        # A flat array of k 4-byte positions per page; a dict or per-page
        # objects would cost several times as much.
        pages = 20480
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f = BloomRecencyFilter(512, pages=pages)
            for page in range(pages):
                f.record(page)
                assert page in f
            resident = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert f.nbits not in f.memo  # every page was hashed into the memo
        assert resident <= 4 * f.k * pages + pages + 16 * 1024


class TestExact:
    def test_sliding_window_semantics(self):
        f = ExactRecencyFilter(4)
        for page in (1, 2, 3, 4):
            f.record(page)
        assert all(p in f for p in (1, 2, 3, 4))
        f.record(5)
        assert 1 not in f and 5 in f

    def test_duplicates_keep_membership(self):
        f = ExactRecencyFilter(3)
        f.record(7)
        f.record(7)
        f.record(8)
        f.record(9)  # evicts one of the 7s
        assert 7 in f
        f.record(10)  # evicts the second 7
        assert 7 not in f

    def test_bloom_is_superset_of_exact_window(self):
        window = 256
        bloom = BloomRecencyFilter(window)
        exact = ExactRecencyFilter(window)
        rng = random.Random(3)
        for _ in range(5000):
            page = rng.randrange(4096)
            bloom.record(page)
            exact.record(page)
            probe = rng.randrange(4096)
            if probe in exact:
                assert probe in bloom
