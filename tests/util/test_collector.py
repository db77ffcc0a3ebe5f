"""Build phases leave the cyclic collector as they found it: a build
neither switches the collector on or off, nor changes its thresholds,
nor runs a collection of its own."""

import gc
from contextlib import contextmanager

import pytest

from repro.core import build_decomposition, build_labeling
from repro.core.serialize import dump_labeling
from repro.generators import grid_2d


@contextmanager
def counted_collections():
    """Yield a list that gains the generation of every collection."""
    seen = []

    def callback(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(callback)
    try:
        yield seen
    finally:
        gc.callbacks.remove(callback)


@contextmanager
def collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


PHASES = {
    "build_decomposition": lambda graph, tree, labeling: build_decomposition(graph),
    "build_labeling(parallel=2)": lambda graph, tree, labeling: build_labeling(
        graph, tree, parallel=2
    ),
    "dump_labeling(binary)": lambda graph, tree, labeling: dump_labeling(
        labeling, codec="binary"
    ),
    "dump_labeling(json)": lambda graph, tree, labeling: dump_labeling(labeling),
}


@pytest.fixture(scope="module")
def built():
    graph = grid_2d(8)
    tree = build_decomposition(graph)
    return graph, tree, build_labeling(graph, tree)


@pytest.mark.parametrize("phase", list(PHASES))
class TestBuildPhasesLeaveCollectorState:
    def test_enabled_collector_stays_enabled(self, built, phase):
        threshold = gc.get_threshold()
        PHASES[phase](*built)
        assert gc.isenabled()
        assert gc.get_threshold() == threshold

    def test_disabled_collector_stays_disabled(self, built, phase):
        with collector_off(), counted_collections() as seen:
            PHASES[phase](*built)
            assert not gc.isenabled()
            assert seen == []
