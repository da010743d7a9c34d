"""Span recorders wrapped around tiersim's public functions.

Each wrapped callable gets one aggregated span: call count, total time and
self time (total minus the time spent in wrapped callees). Spans live in
memory until the caller reads them. Wrappers are installed on the class or
module attribute the simulator looks up at call time, and `traced()` puts
every original object back when the block exits, even on error.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from tiersim import config, core, metering, migration, pagetable, policies, recency, subcache

GEOMETRY_PROPERTIES = ("blocks_per_page", "fast_pages", "slow_pages",
                       "total_pages", "host_space_bytes", "cache_sets")


def _is_not_none(result):
    return result is not None


def _is_swap(result):
    return result == policies.TRY_SWAP


# (span name, owner, attribute, classifier). A classifier counts the calls
# whose result it accepts: cache hits for lookup, evictions for insert,
# swap decisions for slow_touch_action. `core.slow_touch_action` is the
# binding the dispatch loop calls, so that is the one wrapped.
TARGETS = (
    ("core.run", core.Simulator, "run", None),
    ("core.dispatch", core.Simulator, "dispatch", None),
    ("core.write_payload", core, "write_payload", None),
    ("recency.record", recency.BloomRecencyFilter, "record", None),
    ("recency.contains", recency.BloomRecencyFilter, "__contains__", None),
    ("pagetable.lookup", pagetable.PageTable, "lookup", None),
    ("pagetable.record_access", pagetable.PageTable, "record_access", None),
    ("pagetable.search_candidate", pagetable.PageTable, "search_candidate", None),
    ("migration.advance_to", migration.DmaEngine, "advance_to", None),
    ("subcache.lookup", subcache.BlockCache, "lookup", _is_not_none),
    ("subcache.insert", subcache.BlockCache, "insert", _is_not_none),
    ("metering.charge", metering.MeterLedger, "charge", None),
    ("policies.slow_touch_action", core, "slow_touch_action", _is_swap),
    ("policies.on_promotion", policies.AdaptiveController, "on_promotion", None),
) + tuple(("config.geometry", config.SimConfig, name, None)
          for name in GEOMETRY_PROPERTIES)

ROOT_SPAN = "core.run"


class Span:
    __slots__ = ("calls", "total_ns", "child_ns", "accepted")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.accepted = 0

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


class SpanRecorder:
    def __init__(self):
        self.spans = {name: Span() for name, *_ in TARGETS}
        self._stack = []   # one [child_ns] cell per open span

    def wrap(self, name, fn, classify):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.calls += 1
                span.total_ns += elapsed
                span.child_ns += cell[0]
                if stack:
                    stack[-1][0] += elapsed
            if classify is not None and classify(result):
                span.accepted += 1
            return result

        return wrapper

    def patched(self, name, original, classify):
        if isinstance(original, property):
            return property(self.wrap(name, original.fget, classify))
        return self.wrap(name, original, classify)


def originals() -> dict:
    """The objects currently bound at every wrapped attribute."""
    return {(owner, attr): vars(owner)[attr] for _, owner, attr, _ in TARGETS}


@contextmanager
def traced(recorder: SpanRecorder):
    saved = originals()
    try:
        for name, owner, attr, classify in TARGETS:
            setattr(owner, attr, recorder.patched(name, saved[owner, attr], classify))
        yield recorder
    finally:
        for (owner, attr), original in saved.items():
            setattr(owner, attr, original)


def unrestored(saved: dict) -> list:
    """Attributes not bound to the same object as in `saved`."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr), original in saved.items()
            if vars(owner)[attr] is not original]
