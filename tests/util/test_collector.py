"""The collector step: pauses the cyclic GC over a phase, collects once
on exit, and leaves a caller's collector settings alone."""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.core import build_decomposition, build_labeling
from repro.core.serialize import dump_labeling
from repro.generators import grid_2d
from repro.obs import metrics
from repro.util import collector
from repro.util.collector import collector_step


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


@pytest.fixture(autouse=True)
def collector_restored():
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*threshold)
    (gc.enable if enabled else gc.disable)()


def _steps_recorded():
    """``build.collect_seconds`` observations, by snapshot key."""
    return {
        key: hist["count"]
        for key, hist in metrics.snapshot()["histograms"].items()
        if key.startswith("build.collect_seconds")
    }


class _Node:
    pass


class TestCollectorStep:
    def test_pauses_inside_and_restores_on_exit(self):
        with counted_collections() as seen:
            with collector_step():
                assert not gc.isenabled()
                assert seen == []
            assert gc.isenabled()
            assert seen[:1] in ([1], [2])

    def test_restores_when_the_body_raises(self):
        with counted_collections() as seen:
            with pytest.raises(ValueError):
                with collector_step():
                    raise ValueError("boom")
            assert gc.isenabled()
            assert len(seen) >= 1

    def test_caller_disabled_collector_is_left_alone(self):
        with collector_off(), counted_collections() as seen:
            with collector_step():
                [_Node() for _ in range(10_000)]
            assert not gc.isenabled()
            assert seen == []

    def test_zero_threshold_is_left_alone(self):
        threshold = gc.get_threshold()
        gc.set_threshold(0, *threshold[1:])
        with counted_collections() as seen:
            with collector_step():
                assert gc.isenabled()
            assert seen == []
        assert gc.get_threshold()[0] == 0

    def test_nested_steps_collect_once_at_the_outermost_exit(self):
        with counted_collections() as seen:
            with collector_step():
                with collector_step():
                    pass
                assert seen == []
                assert not gc.isenabled()
            assert len(seen) == 1
            assert gc.isenabled()

    def test_cycle_dropped_inside_is_freed_by_exit(self):
        with collector_step():
            node = _Node()
            node.me = node
            ref = weakref.ref(node)
            del node
            assert ref() is not None
        assert ref() is None

    @pytest.mark.parametrize(
        "kept, generation", [(0, 2), (10**15, 1)], ids=["grown", "not-grown"]
    )
    def test_full_collection_needs_the_count_and_a_quarter_of_growth(
        self, monkeypatch, kept, generation
    ):
        monkeypatch.setattr(collector, "_grown", 0)
        monkeypatch.setattr(collector, "_kept", kept)
        gc.set_threshold(gc.get_threshold()[0], gc.get_threshold()[1], 1)
        gc.collect(1)  # one young-generation pass makes the count due
        with counted_collections() as seen:
            with collector_step():
                pass
            assert seen[:1] == [generation]


class TestCollectSecondsMetric:
    @pytest.fixture(autouse=True)
    def clean_global_metrics(self):
        metrics.reset()
        yield
        metrics.enabled = False
        metrics.reset()

    def test_each_exit_collection_is_observed_by_generation(self):
        with metrics.activate():
            with collector_step():
                pass
        recorded = _steps_recorded()
        assert sum(recorded.values()) == 1
        assert set(recorded) <= {
            "build.collect_seconds{generation=1}",
            "build.collect_seconds{generation=2}",
        }

    def test_nothing_recorded_when_metrics_are_off(self):
        with collector_step():
            pass
        assert _steps_recorded() == {}


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
        metrics.reset()
        try:
            with metrics.activate():
                PHASES[phase](*built)
            steps = sum(_steps_recorded().values())
        finally:
            metrics.reset()
        assert steps == 1
        assert gc.isenabled()
        assert gc.get_threshold() == threshold

    def test_disabled_collector_stays_disabled(self, built, phase):
        with collector_off(), counted_collections() as seen:
            PHASES[phase](*built)
            assert not gc.isenabled()
            assert seen == []
