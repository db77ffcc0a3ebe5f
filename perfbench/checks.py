"""Correctness checks on what the program answered.

Each check returns the number of failed items, so every failure is
counted in the run's ``failed`` total.  They run after the timed phase,
so checking costs nothing in the timings.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.core.labeling import estimate_distance
from repro.dynamic import apply_delta_to_labels
from repro.serve.protocol import estimate_field

# Float slack for the stretch check: estimates and exact distances sum
# the same edge weights in different orders.
STRETCH_SLACK = 1e-9


def wire_form(value: float) -> str:
    """The bytes the server must send for an estimate of *value*."""
    return json.dumps(estimate_field(value), separators=(",", ":"))


def served_form(result: dict) -> str:
    """The estimate fields of one served DIST reply or BATCH item,
    rendered the same way as :func:`wire_form`."""
    fields = {"estimate": result.get("estimate")}
    if "unreachable" in result:
        fields["unreachable"] = result["unreachable"]
    return json.dumps(fields, separators=(",", ":"))


def check_answers(answers: Iterable[Tuple[tuple, str]], estimate: Callable) -> int:
    """Compare each served ``((u, v), served_form)`` byte-exactly with
    the offline *estimate*; returns the number of mismatches."""
    return sum(
        1 for (u, v), served in answers if served != wire_form(estimate(u, v))
    )


def check_epoch_reads(
    reads: Sequence[Tuple[object, object, int, int, str]],
    labels: Dict,
    deltas: Sequence,
    either_order: bool = False,
) -> Tuple[int, int]:
    """Check reads served while deltas were applied.

    Each read is ``(u, v, lo, hi, served_form)``: the answer must equal
    the estimate at some single epoch ``e`` with ``lo <= e <= hi``,
    where epoch ``e`` means the labels after the first ``e`` deltas.
    With *either_order*, the estimate of ``(v, u)`` at that epoch is
    accepted too.  *labels* (the epoch-0 labels) is mutated.

    Returns ``(mismatches, reversed)``: the reads that match no epoch in
    their window, such as a wrong answer or one mixing two epochs'
    labels, and the reads matched only by the reversed pair.
    """
    by_lo = defaultdict(list)
    for index, read in enumerate(reads):
        by_lo[read[2]].append(index)
    matched = [False] * len(reads)
    reversed_only = 0
    active: List[int] = []
    for epoch in range(len(deltas) + 1):
        active.extend(by_lo.get(epoch, ()))
        still = []
        for index in active:
            u, v, _, hi, served = reads[index]
            if served == wire_form(estimate_distance(labels[u], labels[v])):
                matched[index] = True
            elif either_order and served == wire_form(
                estimate_distance(labels[v], labels[u])
            ):
                matched[index] = True
                reversed_only += 1
            elif hi > epoch:
                still.append(index)
        active = still
        if epoch < len(deltas):
            apply_delta_to_labels(labels, deltas[epoch])
    return matched.count(False), reversed_only


def check_stretch(
    pairs: Iterable[Tuple[float, float]], epsilon: float
) -> int:
    """Each ``(exact, estimate)`` must satisfy
    ``d <= estimate <= (1 + epsilon) * d``; returns the violations."""
    failures = 0
    for exact, est in pairs:
        if not exact * (1 - STRETCH_SLACK) <= est <= (1 + epsilon) * exact * (1 + STRETCH_SLACK):
            failures += 1
    return failures
