import random
import tracemalloc
from array import array
from collections import deque

import pytest

from tiersim.recency import BloomRecencyFilter, ExactRecencyFilter, mix64

from conftest import ReferenceBloom


def test_mix64_is_stable_and_spread():
    assert mix64(0) == mix64(0)
    outs = {mix64(i) & 0xFF for i in range(256)}
    assert len(outs) > 150  # low byte should be well mixed


class TestBloom:
    def test_present_immediately_after_record(self):
        f = BloomRecencyFilter(64)
        f.record((12345,))
        assert 12345 in f

    def test_no_false_negatives_in_window(self):
        window = 128
        f = BloomRecencyFilter(window)
        rng = random.Random(0)
        recent = deque(maxlen=window)
        for step in range(20_000):
            page = rng.randrange(1 << 32)
            f.record((page,))
            recent.append(page)
            probe = rng.choice(recent)
            assert probe in f, f"false negative at step {step}"

    def test_aging_rotation_can_forget(self):
        window = 64
        f = BloomRecencyFilter(window)
        f.record((999_999_999,))
        # Two full generations of distinct inserts clear the aging filter.
        for i in range(2 * window):
            f.record((i,))
        # The original key may only survive as a false positive now; with
        # fresh filters sized for <=5% FP this must be overwhelmingly false.
        survivors = 0
        g = BloomRecencyFilter(window)
        g.record((777,))
        for i in range(2 * window):
            g.record((i + 10_000,))
        survivors += (999_999_999 in f) + (777 in g)
        assert survivors <= 1

    def test_false_positive_rate_at_capacity(self):
        window = 2048
        f = BloomRecencyFilter(window)
        rng = random.Random(1)
        for _ in range(3 * window):  # both generations full
            f.record((rng.randrange(1 << 48),))
        probes = 20_000
        false_hits = sum((1 << 50) + i in f for i in range(probes))
        assert false_hits / probes <= 0.05

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            BloomRecencyFilter(0)


class TestMemo:
    @pytest.mark.parametrize("window", [1, 2, 512])
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
            memo.record((key,))
            ref.record(key)
        assert steps // window >= 3  # generation rollovers
        assert answers == {True, False}
        assert memo.memo[(n - 1) * memo.k] != memo.nbits  # key N-1 was memoized
        assert len(memo.memo) == n * memo.k  # key N was not

    @pytest.mark.parametrize("window", [1, 2, 512])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_runs_of_one_key_match_reference(self, window, seed):
        # Stream-like traffic: long runs of one key, queried only mid-
        # generation, on the record just before a rollover and on the one
        # just after it, so the records in between pile up unflushed.
        n = 64
        lazy = BloomRecencyFilter(window, pages=n)
        ref = ReferenceBloom(window, lazy.nbits, lazy.k)
        rng = random.Random(seed)
        query_at = {window // 2, window - 1, 0}
        queries = answers = 0
        while queries < 12:
            key = rng.randrange(2 * n)
            for _ in range(rng.choice((1, 2, window, 3 * window + 1))):
                lazy.record((key,))
                ref.record(key)
                if ref.count in query_at:
                    queries += 1
                    for probe in range(2 * n):
                        answers += probe in ref
                        assert (probe in lazy) == (probe in ref), probe
        assert 0 < answers < queries * 2 * n

    @pytest.mark.parametrize("window", [1, 2, 512])
    def test_one_page_generation_sets_its_bits_once(self, window):
        lazy = BloomRecencyFilter(window, pages=64)
        ref = ReferenceBloom(window, lazy.nbits, lazy.k)
        for _ in range(window):
            lazy.record((7,))
            ref.record(7)
        # No query has read the generation, so no bit is set yet.
        assert len(lazy.pending) == window and not any(lazy.aging)
        # The first query sets its bits, and no others, then rolls the
        # active bank over into the aging one.
        assert 7 in lazy
        aging = {pos for pos, bit in enumerate(lazy.aging) if bit}
        assert aging == ref.aging
        assert len(aging) <= lazy.k
        assert not any(lazy.active) and not lazy.pending

    def test_memo_memory_is_flat(self):
        # A flat array of k 4-byte positions per page; a dict or per-page
        # objects would cost several times as much.
        pages = 20480
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f = BloomRecencyFilter(512, pages=pages)
            for page in range(pages):
                f.record((page,))
                assert page in f
            resident = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert f.nbits not in f.memo  # every page was hashed into the memo
        assert resident <= 4 * f.k * pages + pages + 16 * 1024


def batch_lengths(rng, window):
    """Random batch lengths, among them an empty batch, a single record, a
    batch that ends on a generation boundary and one that spans three or
    more generations."""
    lengths = [0, 1, None, 3 * window + rng.randrange(window) + 1]
    lengths += [rng.choice((0, 1, rng.randrange(1, 2 * window + 2)))
                for _ in range(8)]
    rng.shuffle(lengths)
    return lengths


class TestColumns:
    """`record` over a column, split into batches and recorded in parts,
    answers like a filter fed one page at a time."""

    @pytest.mark.parametrize("window", [1, 2, 7, 64])
    @pytest.mark.parametrize("shift", [0, 12])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_batches_match_one_page_at_a_time(self, window, shift, seed):
        n = 64
        bloom = BloomRecencyFilter(window, pages=n)
        exact = ExactRecencyFilter(window)
        ref = ReferenceBloom(window, bloom.nbits, bloom.k)
        recent = deque(maxlen=window)
        rng = random.Random(seed)
        probes = range(2 * n)
        boundaries = spans = 0

        def check():
            assert len(bloom.pending) < 2 * window
            for probe in probes:
                assert (probe in bloom) == (probe in ref), probe
                assert (probe in exact) == (probe in recent), probe

        for length in batch_lengths(rng, window):
            if length is None:   # up to the next generation boundary
                length = window - ref.count
                boundaries += 1
            pages = [rng.randrange(2 * n) for _ in range(length)]
            # Addresses, with the page above `shift` and noise below it.
            column = [page << shift | rng.randrange(1 << shift)
                      for page in pages]
            start = ref.count
            # Record the column in parts, querying at each cut as the
            # request loop does before a swap.
            cuts = sorted(rng.sample(range(length + 1), min(length + 1, 3)))
            lo = 0
            for cut in cuts + [None]:
                bloom.record(column, shift, lo, cut)
                exact.record(column, shift, lo, cut)
                for page in pages[lo:cut]:
                    ref.record(page)
                    recent.append(page)
                lo = length if cut is None else cut
                check()
            spans += start + length > 2 * window
        assert boundaries == 1 and spans

    def test_a_long_batch_keeps_two_generations_at_most(self):
        window = 512
        f = BloomRecencyFilter(window)
        addrs = array("Q", range(0, 100_000 << 12, 1 << 12))
        f.record(addrs, 12)
        assert f.count == 100_000 and len(f.pending) < 2 * window
        assert 99_999 in f and all(page in f for page in range(99_488, 100_000))


class TestExact:
    def test_sliding_window_semantics(self):
        f = ExactRecencyFilter(4)
        for page in (1, 2, 3, 4):
            f.record((page,))
        assert all(p in f for p in (1, 2, 3, 4))
        f.record((5,))
        assert 1 not in f and 5 in f

    def test_duplicates_keep_membership(self):
        f = ExactRecencyFilter(3)
        f.record((7,))
        f.record((7,))
        f.record((8,))
        f.record((9,))  # evicts one of the 7s
        assert 7 in f
        f.record((10,))  # evicts the second 7
        assert 7 not in f

    def test_bloom_is_superset_of_exact_window(self):
        window = 256
        bloom = BloomRecencyFilter(window)
        exact = ExactRecencyFilter(window)
        rng = random.Random(3)
        for _ in range(5000):
            page = rng.randrange(4096)
            bloom.record((page,))
            exact.record((page,))
            probe = rng.randrange(4096)
            if probe in exact:
                assert probe in bloom
