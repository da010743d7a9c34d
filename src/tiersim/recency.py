"""Recent-page tracking for the victim search.

Two interchangeable structures: a pair of alternating bloom filters that age
out in generations, and an exact sliding-window queue for tests (the
reference oracle keeps its own deque). Both record by column: `record`
takes a range of a batch's address column and records each address's page,
with the effect of recording them one at a time.

The bloom filters record lazily: pages wait in a pending list until a query
sets their bits. Setting a bit is idempotent and nothing reads the banks in
between, so every query sees the bits an eager filter would hold, while a
run of records of one page sets that page's bits once.
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

    Every `window` records, counted from creation, the active filter
    becomes the aging one and a fresh filter starts. Queries check both, so
    a page recorded within the last `window` records is always reported
    present; pages older than two generations vanish. The bit positions of
    host pages below `pages` are hashed once, into a flat memo.

    `pending` holds the pages of the last `len(pending)` of the `count`
    records, whose bits are not set yet; `record` drops those that no generation can hold
    any more, so it stays below `2 * window` pages. `_flush` sets them,
    rolling the filters over at each generation boundary it crosses.
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
        self.count = 0

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
        """Set the pending pages' bits, once per page per generation."""
        pending, window = self.pending, self.window
        k, memo, nbits = self.k, self.memo, self.nbits
        # Segments end at generation boundaries: pending[0] is record
        # count - len(pending).
        lo, hi = 0, window - (self.count - len(pending)) % window
        while lo < len(pending):
            fresh = pending[lo:hi]
            # A query right after a single record builds no set.
            if len(fresh) > 1:
                fresh = set(fresh)
            active = self.active
            for page in fresh:
                base = page * k
                if 0 <= base < len(memo) and memo[base] != nbits:
                    positions = memo[base:base + k]
                else:
                    positions = self._probes(page)
                for pos in positions:
                    active[pos] = 1
            if hi <= len(pending):
                self.aging = active
                self.active = bytearray(nbits)
            lo, hi = hi, hi + window
        pending.clear()

    def record(self, addrs, shift: int = 0, lo: int = 0, hi: int | None = None):
        """Record the pages `addrs[j] >> shift` for `lo <= j < hi`, in order."""
        hi = len(addrs) if hi is None else hi
        window, pending = self.window, self.pending
        count = self.count + max(0, hi - lo)
        # Records before the aging generation's start at the new count are
        # dropped unflushed; the banks then hold only older ones: clear both.
        stale = (count // window - 1) * window - (self.count - len(pending))
        if stale > 0:
            self.active, self.aging = bytearray(self.nbits), bytearray(self.nbits)
            lo += max(0, stale - len(pending))
            del pending[:stale]
        self.count = count
        pending.extend(map(shift.__rrshift__, addrs[lo:hi]))

    def __contains__(self, page: int) -> bool:
        if self.pending:
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
    """Exact queue of the last `window` recorded pages (test mode)."""

    def __init__(self, window: int):
        self.window = window
        self.queue = deque()
        self.counts = Counter()

    def record(self, addrs, shift: int = 0, lo: int = 0, hi: int | None = None):
        """Record the pages `addrs[j] >> shift` for `lo <= j < hi`, in order."""
        hi = len(addrs) if hi is None else hi
        queue, counts, window = self.queue, self.counts, self.window
        # Only the last `window` records can be read.
        for page in map(shift.__rrshift__, addrs[max(lo, hi - window):hi]):
            queue.append(page)
            counts[page] += 1
            if len(queue) > window:
                old = queue.popleft()
                counts[old] -= 1
                if not counts[old]:
                    del counts[old]

    def __contains__(self, page: int) -> bool:
        return page in self.counts


def make_recency_filter(window: int, exact: bool, pages: int):
    return ExactRecencyFilter(window) if exact else BloomRecencyFilter(window, pages)
