"""The benchmark's span tracer against the library: bench/tracing.py wraps
library functions by name, so a deleted or renamed one breaks the benchmark's
traced run. These tests load it as it stands, from its file."""

import importlib.util
from pathlib import Path

import fsolink
from fsolink import channel, cli, errorrates, montecarlo, quadrature, specfun

MODULES = (fsolink, specfun, quadrature, channel, errorrates, montecarlo, cli)
CLASSES = (channel.LinkGeometry, channel.FadingModel, channel.OperatingPoint)


def _tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every binding the tracer may replace, as (namespace, key, value): the
    modules' names, the values of cli.EXPRESSIONS and the models' __init__."""
    spaces = [(mod.__name__, vars(mod)) for mod in MODULES] + [("EXPRESSIONS", cli.EXPRESSIONS)]
    return ([(name, key, value) for name, space in spaces for key, value in space.items()]
            + [(cls.__name__, "__init__", cls.__dict__["__init__"]) for cls in CLASSES])


def test_tracer_installs_and_restores_every_binding():
    tracer = _tracing().Tracer()
    before = _bindings()
    try:
        tracer.install()  # raises where a wrapped name no longer exists
        patched = list(tracer._patches)
        # it wraps the expressions the command line reads, and each patched
        # binding holds a wrapper while installed
        assert any(target is cli.EXPRESSIONS for target, _, _ in patched)
        for target, key, orig in patched:
            current = getattr(target, key) if isinstance(target, type) else target[key]
            assert current is not orig, key
    finally:
        tracer.uninstall()
    after = _bindings()
    assert len(after) == len(before)
    changed = [old[:2] for old, new in zip(before, after)
               if new[:2] != old[:2] or new[2] is not old[2]]
    assert changed == []
    assert not tracer._patches


def test_tracer_times_the_batch_detection():
    # the batch decides through montecarlo.ml_detect, so a traced one-worker
    # run records detection spans under its simulate span
    from support import make_op

    tracer = _tracing().Tracer()
    tracer.install()
    try:
        montecarlo.simulate(make_op(0.35, 0.1, 4, 0.0),
                            montecarlo.McConfig(n_symbols=50_000, seed=1))
    finally:
        tracer.uninstall()
    names = {span[0]: span[2] for span in tracer.spans}
    detections = [span for span in tracer.spans if span[2] == "montecarlo.ml_detect"]
    assert detections
    assert all(names.get(span[1]) == "montecarlo.simulate.w1" for span in detections)
