"""Placement policies over the shared machinery.

The five policy kinds live in `config.Policy`. The request loop asks
`slow_touch_action` what to do about a touch of a slow page, only under a
migrating policy, and only while the DMA engine is idle unless there is a
block cache. The adaptive controller retunes the promotion threshold from
the utilization of pages it has already promoted.
"""

from __future__ import annotations

from .config import Policy
from .pagetable import BITMAP_BITS

# Actions returned to the request loop for a foreground touch that landed
# on a slow-tier page; either way the touch itself is served from slow.
TRY_SWAP = "swap"            # serve from slow, then start a page swap if possible
COPY_BLOCK = "copy_block"    # serve from slow, then copy the block to the cache zone


def slow_touch_action(policy: Policy, cached_blocks: int, threshold: int) -> str:
    """The action of a migrating policy; static placement never asks."""
    if policy is Policy.PAGEMOVE:
        return TRY_SWAP
    # Combined policies: promote the whole page once enough of its blocks
    # have been cached, otherwise cache just the touched block.
    if cached_blocks >= threshold:
        return TRY_SWAP
    return COPY_BLOCK


class AdaptiveController:
    """Moves the promotion threshold against observed page utilization.

    Each promotion samples the promoted page's access bitmap into an EWMA of
    the touched fraction.  At every window boundary a high utilization
    lowers the threshold (whole pages are being used, promote sooner), a low
    one raises it (promotions were wasted, delay them).
    """

    def __init__(self, threshold: int, min_thr: int, max_thr: int,
                 window_pages: int, alpha: float, hi_water: float, lo_water: float):
        self.threshold = min(max(threshold, min_thr), max_thr)
        self.min_thr = min_thr
        self.max_thr = max_thr
        self.window_pages = window_pages
        self.alpha = alpha
        self.hi_water = hi_water
        self.lo_water = lo_water
        self.ewma = None
        self.promotions = 0

    def on_promotion(self, bitmap_popcount: int):
        """Feed one promoted page's utilization."""
        sample = bitmap_popcount / BITMAP_BITS
        self.ewma = sample if self.ewma is None else (
            self.alpha * sample + (1 - self.alpha) * self.ewma)
        self.promotions += 1
        if self.promotions % self.window_pages == 0:
            if self.ewma > self.hi_water:
                self.threshold = max(self.min_thr, self.threshold - 1)
            elif self.ewma < self.lo_water:
                self.threshold = min(self.max_thr, self.threshold + 1)


def make_controller(config) -> AdaptiveController | None:
    """The controller of adpcomb with adaptation on; at window 0 adpcomb
    keeps its threshold, as statcomb does, and has none."""
    if config.policy is not Policy.ADPCOMB or config.adaptive_window_pages == 0:
        return None
    return AdaptiveController(
        threshold=config.promotion_threshold,
        min_thr=config.adaptive_min_threshold,
        max_thr=config.adaptive_max_threshold,
        window_pages=config.adaptive_window_pages,
        alpha=config.adaptive_alpha,
        hi_water=config.adaptive_hi_water,
        lo_water=config.adaptive_lo_water,
    )
