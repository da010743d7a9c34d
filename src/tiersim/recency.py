"""Recent-page tracking for the victim search.

Two interchangeable structures: a pair of alternating bloom filters that age
out in generations, and an exact sliding-window queue used by tests and the
reference oracle.
"""

from __future__ import annotations

import math
from collections import Counter, deque


def mix64(x: int) -> int:
    """64-bit integer mixing (splitmix64 finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


# Per-filter false-positive design point.  Querying two filters roughly
# doubles it, keeping the combined rate under 5% at capacity.
_DESIGN_FP = 0.02


class _BloomBank:
    __slots__ = ("bits", "nbits", "k")

    def __init__(self, nbits: int, k: int):
        self.bits = bytearray((nbits + 7) // 8)
        self.nbits = nbits
        self.k = k

    # Double hashing: probe i is h1 + i * h2 (mod 2**64), taken mod nbits.
    def add(self, key: int):
        bits, nbits = self.bits, self.nbits
        h = mix64(key)
        h2 = mix64(key ^ 0xA5A5A5A5A5A5A5A5) | 1
        for _ in range(self.k):
            pos = h % nbits
            bits[pos >> 3] |= 1 << (pos & 7)
            h = (h + h2) & 0xFFFFFFFFFFFFFFFF

    def __contains__(self, key: int) -> bool:
        bits, nbits = self.bits, self.nbits
        h = mix64(key)
        h2 = mix64(key ^ 0xA5A5A5A5A5A5A5A5) | 1
        for _ in range(self.k):
            pos = h % nbits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h = (h + h2) & 0xFFFFFFFFFFFFFFFF
        return True


class BloomRecencyFilter:
    """Tracks roughly the last `window` recorded pages.

    Inserts go to the active filter; every `window` insertions the active
    filter becomes the aging one and a fresh filter starts.  Queries check
    both, so a page recorded within the last `window` insertions is always
    reported present; pages older than two generations vanish.
    """

    exact = False

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self.nbits = max(64, math.ceil(-window * math.log(_DESIGN_FP) / (math.log(2) ** 2)))
        self.k = max(1, round(self.nbits / window * math.log(2)))
        self.active = _BloomBank(self.nbits, self.k)
        self.aging = _BloomBank(self.nbits, self.k)
        self.active_count = 0

    def record(self, page: int):
        self.active.add(page)
        self.active_count += 1
        if self.active_count >= self.window:
            self.aging = self.active
            self.active = _BloomBank(self.nbits, self.k)
            self.active_count = 0

    def __contains__(self, page: int) -> bool:
        return page in self.active or page in self.aging


class ExactRecencyFilter:
    """Exact queue of the last `window` recorded pages (test/oracle mode)."""

    exact = True

    def __init__(self, window: int):
        self.window = window
        self.queue = deque()
        self.counts = Counter()

    def record(self, page: int):
        self.queue.append(page)
        self.counts[page] += 1
        if len(self.queue) > self.window:
            old = self.queue.popleft()
            self.counts[old] -= 1
            if not self.counts[old]:
                del self.counts[old]

    def __contains__(self, page: int) -> bool:
        return page in self.counts


def make_recency_filter(window: int, exact: bool):
    return ExactRecencyFilter(window) if exact else BloomRecencyFilter(window)
