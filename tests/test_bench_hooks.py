"""The benchmark's span tracer patches rmkit by name; every name it patches must exist.

``perfbench/tracing.py`` wraps functions and methods it looks up by string,
so renaming or deleting one of them would make ``perfbench/run.py --trace 1``
fail with a KeyError or AttributeError instead of failing a test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("mod_name, cls_name, attr, span", tracing._METHODS)
def test_traced_method_is_defined_on_its_class(mod_name, cls_name, attr, span):
    cls = getattr(importlib.import_module(mod_name), cls_name)
    assert attr in cls.__dict__, f"{span}: {cls_name}.{attr} is not defined in {mod_name}"


@pytest.mark.parametrize("mod_name, attr, span", tracing._FUNCTIONS)
def test_traced_function_exists(mod_name, attr, span):
    assert callable(getattr(importlib.import_module(mod_name), attr, None)), \
        f"{span}: {mod_name}.{attr} is missing"


def test_install_then_uninstall_restores_every_attribute():
    owners = [(importlib.import_module(m), a) for m, a, _ in tracing._FUNCTIONS]
    owners += [(getattr(importlib.import_module(m), c), a) for m, c, a, _ in tracing._METHODS]
    before = [owner.__dict__[attr] for owner, attr in owners]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert any(owner.__dict__[attr] is not orig for (owner, attr), orig in zip(owners, before))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(owners, before))


def test_tracer_sees_every_agent_update_and_action():
    from rmkit import training
    from rmkit.gridworld import DEFAULT_CONFIG

    tracer = tracing.Tracer()
    config = training.TrainConfig(episodes=2)
    tracer.install()
    try:
        for kind in training.AGENT_KINDS:
            training.run_single(1, kind, config, DEFAULT_CONFIG, 0)
    finally:
        tracer.uninstall()
    runs = [i for i, span in enumerate(tracer.spans) if span[0] == "training.run"]
    assert len(runs) == len(training.AGENT_KINDS)
    for kind, run in zip(training.AGENT_KINDS, runs):
        names = {span[0] for span in tracer.spans if span[4] == run}
        assert {"training.update", "training.act"} <= names, kind


def test_tracer_reads_the_urs_report():
    """The tracer reads report fields through getattr defaults, so a renamed
    field would leave its metric at 0 instead of failing the run."""
    from rmkit import shortcuts
    from rmkit.formulas import compile_formula

    tracer = tracing.Tracer()
    machine = compile_formula("F(a) & F(b)", tuple("abcde"))
    tracer.install()
    try:
        shortcuts.find_urs(machine)
    finally:
        tracer.uninstall()
    assert tracer.counts["shortcuts.survivors_n"] == 54
    assert tracer.counts["shortcuts.levels"] == 3
    assert tracer.counts["shortcuts.peak_pairs_max"] == 3
