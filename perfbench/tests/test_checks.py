"""The checkers must catch what they exist to catch."""

from __future__ import annotations

import copy

from perfbench.checks import (
    check_answers,
    check_epoch_reads,
    check_stretch,
    served_form,
    wire_form,
)
from perfbench.inputs import build_labels
from repro.core.labeling import estimate_distance
from repro.dynamic import EdgeUpdate, incremental_relabel
from repro.generators import random_delaunay_graph


def _labeling():
    return build_labels(random_delaunay_graph(60, seed=5)[0], "delaunay")


def test_wire_form_matches_served_reply():
    assert served_form({"ok": True, "estimate": 1.5}) == wire_form(1.5)
    assert served_form({"estimate": None, "unreachable": True}) == wire_form(float("inf"))


def test_check_answers_catches_an_injected_wrong_answer():
    labeling = _labeling()
    pairs = [(0, 7), (3, 11), (5, 40)]
    answers = [(p, wire_form(labeling.estimate(*p))) for p in pairs]
    assert check_answers(answers, labeling.estimate) == 0
    wrong = labeling.estimate(3, 11) * (1 + 1e-12)
    answers[1] = ((3, 11), wire_form(wrong))
    assert check_answers(answers, labeling.estimate) == 1


def _epochs():
    """Labels at epochs 0 and 1 plus a pair whose estimate moved and a
    pair whose estimate from one old and one new label is neither."""
    for u, v, w in sorted(_labeling().graph.edges()):
        labeling = _labeling()
        before = copy.deepcopy(labeling.labels)
        delta = incremental_relabel(labeling, EdgeUpdate(u, v, w / 8))
        delta.epoch = 1
        after = labeling.labels
        moved = mixed = None
        for a in sorted(after):
            for b in sorted(after):
                if a == b:
                    continue
                old = estimate_distance(before[a], before[b])
                new = estimate_distance(after[a], after[b])
                if moved is None and old != new:
                    moved = (a, b, old, new)
                mix = estimate_distance(before[a], after[b])
                if mixed is None and mix not in (old, new):
                    mixed = (a, b, mix)
        if moved is not None and mixed is not None:
            return before, delta, moved, mixed
    raise AssertionError("no edge update yields a mixed-epoch estimate")


def test_check_epoch_reads_accepts_any_epoch_in_the_window():
    before, delta, (a, b, old, new), _ = _epochs()
    reads = [
        (a, b, 0, 0, wire_form(old)),
        (a, b, 0, 1, wire_form(old)),
        (a, b, 0, 1, wire_form(new)),
        (a, b, 1, 1, wire_form(new)),
    ]
    assert check_epoch_reads(reads, copy.deepcopy(before), [delta]) == (0, 0)


def test_check_epoch_reads_catches_an_epoch_outside_the_window():
    before, delta, (a, b, old, new), _ = _epochs()
    reads = [(a, b, 0, 0, wire_form(new)), (a, b, 1, 1, wire_form(old))]
    assert check_epoch_reads(reads, copy.deepcopy(before), [delta]) == (2, 0)


def test_check_epoch_reads_catches_a_mixed_epoch_read():
    before, delta, _, (a, b, mix) = _epochs()
    reads = [(a, b, 0, 1, wire_form(mix))]
    assert check_epoch_reads(reads, copy.deepcopy(before), [delta])[0] == 1
    assert check_epoch_reads(
        reads, copy.deepcopy(before), [delta], either_order=True)[0] == 1


def test_check_epoch_reads_reports_a_reversed_pair_answer():
    before, delta, _, _ = _epochs()
    labels = copy.deepcopy(before)
    for a in sorted(labels):
        for b in sorted(labels):
            forward = estimate_distance(labels[a], labels[b])
            backward = estimate_distance(labels[b], labels[a])
            if forward != backward:
                reads = [(a, b, 0, 0, wire_form(backward))]
                assert check_epoch_reads(reads, copy.deepcopy(before), [delta]) == (1, 0)
                assert check_epoch_reads(
                    reads, copy.deepcopy(before), [delta], either_order=True) == (0, 1)
                return
    raise AssertionError("no pair with a bit-asymmetric estimate")


def test_check_stretch_catches_violations_on_both_sides():
    assert check_stretch([(10.0, 10.0), (10.0, 12.5)], 0.25) == 0
    assert check_stretch([(10.0, 12.6)], 0.25) == 1
    assert check_stretch([(10.0, 9.9)], 0.25) == 1

