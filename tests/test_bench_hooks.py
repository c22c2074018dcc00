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


def test_tracer_sees_the_nrm_tracker_and_its_refit():
    """One traced nrm run over one grounder period: every env step makes one
    ``nrm.tracker_step`` span, and the one refit an ``nrm.refit`` span whose
    dataset and epochs reach the tracer's refit hook.  So a refactor of the
    tracker or the refit cannot leave those readings at 0 unnoticed."""
    from rmkit import training
    from rmkit.gridworld import DEFAULT_CONFIG

    tracer = tracing.Tracer()
    epochs, after_refit = [], tracer._after_refit

    def reading(idx, args, kwargs, result):
        epochs.append(result)
        after_refit(idx, args, kwargs, result)

    tracer._after_refit = reading
    config = training.TrainConfig(episodes=training.GROUNDER_PERIOD)
    tracer.install()
    try:
        training.run_single(1, "nrm", config, DEFAULT_CONFIG, 0)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(0.0, {})
    steps = metrics["gridworld.step_n"]["value"]
    assert steps > 0 and metrics["nrm.tracker_step_n"]["value"] == steps
    assert metrics["nrm.tracker_step_s"]["value"] > 0
    assert metrics["nrm.refit_n"]["value"] == 1 and metrics["nrm.refit_s"]["value"] > 0
    (refit,) = (span for span in tracer.spans if span[0] == "nrm.refit")
    assert tracer.spans[refit[3]][0] == "training.run"
    assert len(epochs) == 1 and 1 <= epochs[0] <= 100
    assert "nrm.refit_epochs" in tracer.counts  # the hook read the refit's dataset
