import sys
import types

import pytest

import spans
import worker
from spans import Hook, Recorder, Span


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    recorded = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("c", 5.0, 6.0, 0),
    ]
    own = spans.self_times(recorded)
    assert own == {"root": 6.0, "a": 2.0, "b": 1.0, "c": 1.0}
    assert sum(own.values()) == recorded[0].duration


def test_self_time_sums_repeated_names():
    recorded = [
        Span("root", 0.0, 10.0, None),
        Span("k", 1.0, 2.0, 0),
        Span("k", 3.0, 5.0, 0),
    ]
    assert spans.self_times(recorded) == {"root": 7.0, "k": 3.0}
    assert spans.busy_times(recorded)["k"] == 3.0


def test_busy_time_counts_recursion_once():
    recorded = [
        Span("x", 0.0, 5.0, None),
        Span("y", 1.0, 4.0, 0),
        Span("x", 2.0, 3.0, 1),
    ]
    assert spans.busy_times(recorded) == {"x": 5.0, "y": 3.0}


@pytest.fixture
def register(monkeypatch):
    def add(mod):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
        return mod

    return add


def make_module(clock):
    """A module whose outer() calls inner() through the module namespace."""
    mod = types.ModuleType("fake_layer")

    def inner(steps):
        clock.advance(steps)
        return steps * 2

    def outer(steps):
        clock.advance(1.0)
        return mod.inner(steps) + 1

    mod.inner = inner
    mod.outer = outer
    return mod


def test_recorder_builds_nested_spans_and_counts(register):
    clock = FakeClock()
    mod = register(make_module(clock))
    original_inner = mod.inner
    recorder = Recorder(clock=clock)
    with recorder:
        recorder.install([
            Hook("fake_layer", "outer", "outer"),
            Hook("fake_layer", "inner", "inner", lambda a, k, r: {"inner.steps": a[0]}),
        ])
        assert mod.outer(3.0) == 7.0
    assert mod.inner is original_inner
    assert [(s.name, s.start, s.end, s.parent) for s in recorder.spans] == [
        ("outer", 0.0, 4.0, None),
        ("inner", 1.0, 4.0, 0),
    ]
    assert recorder.counts["inner.steps"] == 3.0
    assert recorder.counts["outer.calls"] == 1
    assert spans.self_times(recorder.spans) == {"outer": 1.0, "inner": 3.0}


def test_missing_hook_is_reported_absent(register):
    clock = FakeClock()
    mod = register(make_module(clock))
    recorder = Recorder(clock=clock)
    with recorder:
        recorder.install([
            Hook("fake_layer", "removed_in_refactor", "gone"),
            Hook("fake_layer_removed", "inner", "gone"),
            Hook("fake_layer", "inner", "inner"),
        ])
        mod.outer(2.0)
    assert recorder.absent == ["fake_layer.removed_in_refactor", "fake_layer_removed.inner"]
    assert [s.name for s in recorder.spans] == ["inner"]
    assert not hasattr(mod, "removed_in_refactor")


def test_span_closes_when_the_layer_raises(register):
    clock = FakeClock()
    mod = register(types.ModuleType("failing"))

    def boom():
        clock.advance(2.0)
        raise ValueError("bad input")

    mod.boom = boom
    recorder = Recorder(clock=clock)
    with recorder:
        recorder.install([Hook("failing", "boom", "boom")])
        with pytest.raises(ValueError):
            mod.boom()
        recorder.call("after", lambda: None)
    assert recorder.spans[0].duration == 2.0
    assert recorder.spans[1].parent is None


def test_layer_metrics_account_for_wall_time():
    recorder = Recorder()
    recorder.spans = [
        Span("cli", 0.0, 10.0, None),
        Span("cli.parse", 0.0, 0.5, 0),
        Span("ensemble", 1.0, 9.0, 0),
        Span("trajectory.prepare", 1.0, 3.0, 2),
        Span("synthesis.code", 1.0, 2.0, 3),
        Span("kernel", 3.0, 5.0, 2),
        Span("kernel", 5.0, 7.0, 2),
    ]
    recorder.counts.update({"kernel.calls": 2, "kernel.steps": 4000})
    metrics = worker.layer_metrics(recorder, wall=10.25)
    assert metrics["kernel.busy_s"] == 4.0
    assert metrics["kernel.steps_per_s"] == 1000.0
    assert metrics["ensemble.self_s"] == 2.0
    assert metrics["trajectory.prepare_self_s"] == 1.0
    assert metrics["cli.self_s"] == 1.5
    assert metrics["trace.remainder_s"] == 0.25
    assert metrics["oracle.busy_s"] == 0.0
    assert metrics["oracle.grid_steps"] == 0


@pytest.mark.parametrize("call_s, calls", [(13.0, 3), (15.0, 2), (100.0, 1), (1.0, 36)])
def test_repeat_window_rounds_to_whole_calls(call_s, calls):
    clock = FakeClock()
    done = []

    def body():
        clock.advance(call_s)
        done.append(call_s)

    worker.repeat_for(36.0, body, clock=clock)
    assert len(done) == calls


def test_every_layer_hook_finds_its_target():
    with Recorder() as recorder:
        recorder.install(worker.LAYER_HOOKS)
        assert recorder.absent == []
    import jumpqec._kernels

    assert not hasattr(jumpqec._kernels.run_steps, "__wrapped__")
