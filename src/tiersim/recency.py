"""Recent-page tracking for the victim search.

Two interchangeable structures: a pair of alternating bloom filters that age
out in generations, and an exact sliding-window queue used by tests and the
reference oracle.

The bloom filters record lazily. A record only appends the page to the
active generation's pending list; its bits are set when something can read
them, that is before a query and at the rollover that turns the active bank
into the aging one. Setting a bit is idempotent and nothing reads the banks
in between, so every query sees the bits an eager filter would hold, while
a run of records of one page sets that page's bits once.
"""

from __future__ import annotations

import math
from array import array
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


class BloomRecencyFilter:
    """Tracks roughly the last `window` recorded pages.

    Records go to the active filter; every `window` records the active
    filter becomes the aging one and a fresh filter starts.  Queries check
    both, so a page recorded within the last `window` records is always
    reported present; pages older than two generations vanish.  The bit
    positions of host pages below `pages` are hashed once, into a flat memo.

    `pending` lists the active generation's records in order, and the
    active filter holds the bits of `pending[:flushed]`.  The rest are set,
    once per distinct page, before a query reads the banks and at rollover
    before the active filter starts aging; `pending` never holds more than
    `window` pages.
    """

    def __init__(self, window: int, pages: int = 0):
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self.nbits = max(64, math.ceil(-window * math.log(_DESIGN_FP) / (math.log(2) ** 2)))
        self.k = max(1, round(self.nbits / window * math.log(2)))
        # An entry of nbits, never a position, marks a page not hashed yet.
        self.memo = array("I" if self.nbits < 1 << 32 else "Q", [self.nbits]) * (self.k * pages)
        self.active = bytearray(self.nbits)
        self.aging = bytearray(self.nbits)
        self.pending = []
        self.flushed = 0

    # Double hashing: probe i is h1 + i * h2 (mod 2**64), taken mod nbits.
    def _probes(self, key: int):
        k, memo, nbits = self.k, self.memo, self.nbits
        base = key * k
        if 0 <= base < len(memo) and memo[base] != nbits:
            return memo[base:base + k]
        h1 = mix64(key)
        h2 = mix64(key ^ 0xA5A5A5A5A5A5A5A5) | 1
        positions = [(h1 + i * h2) % (1 << 64) % nbits for i in range(k)]
        if 0 <= base < len(memo):
            memo[base:base + k] = array(memo.typecode, positions)
        return positions

    def _flush(self):
        """Set the active filter's bits of the pages recorded since the last
        flush, once per distinct page."""
        pending = self.pending
        fresh = pending[self.flushed:]
        # A query right after a single record, the common case, builds no set.
        if len(fresh) > 1:
            fresh = set(fresh)
        k, memo, nbits, active = self.k, self.memo, self.nbits, self.active
        for page in fresh:
            base = page * k
            if 0 <= base < len(memo) and memo[base] != nbits:
                positions = memo[base:base + k]
            else:
                positions = self._probes(page)
            for pos in positions:
                active[pos] = 1
        self.flushed = len(pending)

    def record(self, page: int):
        pending = self.pending
        pending.append(page)
        if len(pending) >= self.window:
            self._flush()
            self.aging = self.active
            self.active = bytearray(self.nbits)
            pending.clear()
            self.flushed = 0

    def __contains__(self, page: int) -> bool:
        if self.flushed != len(self.pending):
            self._flush()
        positions = self._probes(page)
        for bank in (self.active, self.aging):
            for pos in positions:
                if not bank[pos]:
                    break
            else:
                return True
        return False


class ExactRecencyFilter:
    """Exact queue of the last `window` recorded pages (test/oracle mode)."""

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


def make_recency_filter(window: int, exact: bool, pages: int):
    return ExactRecencyFilter(window) if exact else BloomRecencyFilter(window, pages)
