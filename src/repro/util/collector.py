"""The collector step: one cyclic-GC collection per construction phase.

A build allocates millions of tracked objects (label lists, portal
tuples, per-vertex dicts) and frees almost none of them, so CPython's
allocation-driven collector keeps re-scanning data that cannot hold a
cycle; a full collection also walks everything the process already
holds, such as the previous build.  :func:`collector_step` pauses the
collector for the length of one phase and then pays, once, the
collection those allocations would have triggered.

Exit rule: collect generation 1, or generation 2 when it is due, *then*
re-enable.  Enabling first lets the next allocation start an automatic
young collection over the whole phase, which the explicit one then
scans again; a bare pause with no exit collection leaves the debt to
whatever code allocates next.

Generation 2 is due by the collector's own rule: its counter has
reached the threshold, and the heap has grown by a quarter of what the
last full collection kept.  CPython applies the same quarter (to the
objects it promoted) so that full collections cost amortised linear
time; it does not expose its counts, so the steps keep theirs in
allocated blocks, over their own bodies and their own full
collections.  Without the quarter, a process holding a large heap would
pay a full collection every tenth step however little the steps built.
"""

from __future__ import annotations

import gc
import sys
import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import metrics

__all__ = ["collector_step"]

# Process-wide, like the collector they pace: blocks the steps' bodies
# added since the last full collection a step made, and the blocks
# that collection left allocated.
_grown = 0
_kept = 0


@contextmanager
def collector_step() -> Iterator[None]:
    """Pause the cyclic collector around the body and collect once on exit.

    A collector that is already off (disabled, or a generation-0
    threshold of 0) is left alone: the step neither collects nor
    re-enables it.  A step nested inside another therefore sees the
    outer one's pause and does nothing, so nested steps collect once,
    at the outermost exit.  The exit collection also runs when the
    body raises.
    """
    global _grown, _kept
    if not gc.isenabled() or gc.get_threshold()[0] == 0:
        yield
        return
    gc.disable()
    entry_blocks = sys.getallocatedblocks()
    try:
        yield
    finally:
        try:
            _grown += max(0, sys.getallocatedblocks() - entry_blocks)
            full = gc.get_count()[2] >= gc.get_threshold()[2] and 4 * _grown >= _kept
            generation = 2 if full else 1
            started = time.perf_counter()
            gc.collect(generation)
            if metrics.enabled:
                metrics.observe(
                    "build.collect_seconds",
                    time.perf_counter() - started,
                    generation=generation,
                )
            if full:
                _grown, _kept = 0, sys.getallocatedblocks()
        finally:
            gc.enable()
