"""Wrapper discipline: wrappers pass values and exceptions through,
reach every binding site, and restore the originals."""

import sys
import types

import pytest

from harness import SRC
from layers import SpanSet, silent_wrappers
from tracer import TARGETS, Recorder, Target, Tracer


@pytest.fixture
def fake_modules():
    """``repro.e2efake_a`` defines the targets; ``repro.e2efake_b``
    binds one of them at import, as ``from a import f`` would."""
    a = types.ModuleType("repro.e2efake_a")

    def f(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    class Box:
        def get(self, x):
            return None if x == 0 else x

    a.f, a.Box = f, Box
    b = types.ModuleType("repro.e2efake_b")
    b.f = f
    sys.modules[a.__name__], sys.modules[b.__name__] = a, b
    yield a, b, f, Box.__dict__["get"]
    del sys.modules[a.__name__], sys.modules[b.__name__]


def fake_targets():
    both = frozenset({"runall", "serve"})
    return (
        Target("repro.e2efake_a", "f", "fake.f", both),
        Target(
            "repro.e2efake_a",
            "Box.get",
            "fake.get",
            both,
            tag=lambda args: args["x"],
            extra=lambda result, args: result is not None,
        ),
    )


def test_values_and_exceptions_pass_through(fake_modules):
    a, b, f, get = fake_modules
    recorder = Recorder()
    tracer = Tracer(recorder, fake_targets())
    tracer.install()
    try:
        assert a.f is not f and b.f is a.f  # the early binding was rebound
        assert a.f(21) == 42 and b.f(1) == 2
        with pytest.raises(ValueError, match="negative"):
            b.f(-1)
        box = a.Box()
        assert box.get(0) is None and box.get(5) == 5
    finally:
        tracer.restore()
    rows = recorder.rows()
    assert [row[2] for row in rows] == ["fake.f"] * 3 + ["fake.get"] * 2
    assert all(row[4] <= row[5] for row in rows)  # start <= end, also on the raise
    assert [(row[3], row[6]) for row in rows[3:]] == [(0, False), (5, True)]


def test_restore_puts_every_original_back(fake_modules):
    a, b, f, get = fake_modules
    tracer = Tracer(Recorder(), fake_targets())
    tracer.install()
    tracer.restore()
    assert a.f is f and b.f is f and a.Box.__dict__["get"] is get
    assert a.f(2) == 4


def test_nested_same_layer_calls_join_one_span(fake_modules):
    a, _, _, _ = fake_modules
    a.g = lambda x: a.f(x) + 1  # calls through the wrapped name
    recorder = Recorder()
    targets = fake_targets() + (Target("repro.e2efake_a", "g", "fake.f", frozenset()),)
    tracer = Tracer(recorder, targets)
    tracer.install()
    try:
        assert a.g(3) == 7
    finally:
        tracer.restore()
    assert [row[2] for row in recorder.rows()] == ["fake.f"]


def test_real_binding_sites_are_wrapped():
    """``montecarlo`` binds ``run_sampled`` and ``serve.app`` binds
    ``cache_key_for`` at import: both must reach the wrappers."""
    sys.path.insert(0, str(SRC))
    tracer = Tracer(Recorder())
    try:
        tracer.install()
        from repro.cache import store
        from repro.serve import app
        from repro.simulation import fastpath, montecarlo

        assert montecarlo.run_sampled is fastpath.run_sampled
        assert hasattr(fastpath.run_sampled, "__wrapped__")
        assert app.cache_key_for is store.cache_key_for
        assert hasattr(store.cache_key_for, "__wrapped__")
    finally:
        tracer.restore()
        sys.path.remove(str(SRC))
    assert not hasattr(montecarlo.run_sampled, "__wrapped__")
    assert not hasattr(app.cache_key_for, "__wrapped__")


def test_silent_wrapper_fails_the_traced_run():
    spans = SpanSet()
    spans.add_process([[1, None, "fingerprint", None, 0.0, 1.0, None]])
    silent = silent_wrappers(spans, "serve", TARGETS)
    assert "fingerprint" not in silent
    assert {"store.get", "serve.handle", "render.json"} <= set(silent)
