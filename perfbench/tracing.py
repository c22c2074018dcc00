"""Span tracing of rmkit from outside the package.

The tracer replaces public rmkit functions and methods with thin wrappers
that record one span per call: (name, start, end, parent, op), where
``parent`` is the index of the enclosing span and ``op`` the index of the
root span of the closed-loop operation the call belongs to.  Spans stay in
memory; the benchmark writes them out when the run ends.  Nothing inside
``src/`` is changed: :meth:`Tracer.install` patches module and class
attributes and :meth:`Tracer.uninstall` restores them, so the untraced
reference pass runs the original code.

A layer's self time is its spans' durations minus the time their direct
child spans cover (children nest inside a single-threaded parent, so the
covered time is the sum of the children's durations).
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# Every per-layer metric the traced run reports, in output order.  Names are
# "<layer>.<quantity>"; "_s" is busy seconds, "_n" a call count.
LAYER_METRICS = (
    ("diffkit.backward_s", "s"), ("diffkit.backward_n", "count"),
    ("diffkit.adam_s", "s"), ("diffkit.adam_n", "count"),
    ("diffkit.clip_s", "s"), ("diffkit.clip_n", "count"),
    ("diffkit.self_s", "s"),
    ("training.update_s", "s"), ("training.update_n", "count"),
    ("training.act_s", "s"), ("training.act_n", "count"),
    ("training.losses_s", "s"), ("training.graph_build_s", "s"),
    ("training.rm_steps_per_s", "1/s"), ("training.nrm_steps_per_s", "1/s"),
    ("training.rnn_steps_per_s", "1/s"),
    ("training.self_s", "s"),
    ("networks.lstm_step_s", "s"), ("networks.lstm_step_n", "count"),
    ("networks.mlp_call_s", "s"), ("networks.mlp_call_n", "count"),
    ("networks.mlp_numpy_s", "s"), ("networks.mlp_numpy_n", "count"),
    ("networks.grounder_call_s", "s"), ("networks.grounder_call_n", "count"),
    ("networks.self_s", "s"),
    ("nrm.refit_s", "s"), ("nrm.refit_n", "count"), ("nrm.refit_epochs", "count"),
    ("nrm.forward_batch_s", "s"), ("nrm.forward_batch_n", "count"),
    ("nrm.tracker_step_s", "s"), ("nrm.tracker_step_n", "count"),
    ("nrm.self_s", "s"),
    ("gridworld.step_s", "s"), ("gridworld.step_n", "count"),
    ("gridworld.self_s", "s"),
    ("shortcuts.find_urs_s", "s"), ("shortcuts.find_urs_n", "count"),
    ("shortcuts.search_s", "s"), ("shortcuts.init_s", "s"),
    ("shortcuts.candidates_n", "count"), ("shortcuts.survivor_ratio", "ratio"),
    ("shortcuts.levels", "count"), ("shortcuts.peak_pairs_max", "count"),
    ("shortcuts.k5_ms", "ms"), ("shortcuts.k7_ms", "ms"),
    ("shortcuts.self_s", "s"),
    ("formulas.compile_s", "s"), ("formulas.compile_n", "count"),
    ("automata.equivalent_s", "s"), ("automata.equivalent_n", "count"),
    ("bench.self_s", "s"),
    ("trace.overhead", "ratio"), ("trace.spans_n", "count"),
)

# (module, attribute, span name) for module-level functions; every rmkit
# module that imported the function by name gets the wrapper too.
_FUNCTIONS = (
    ("rmkit.training", "run_single", "training.run"),
    ("rmkit.diffkit", "clip_grad_norm", "diffkit.clip"),
    ("rmkit.training", "a2c_losses", "training.losses"),
    ("rmkit.nrm", "train_grounder", "nrm.refit"),
    ("rmkit.nrm", "forward_batch", "nrm.forward_batch"),
    ("rmkit.nrm", "pure_learning", "nrm.pure_learning"),
    ("rmkit.gridworld", "synth_dataset", "gridworld.synth"),
    ("rmkit.shortcuts", "find_urs", "shortcuts.find_urs"),
    ("rmkit.formulas", "compile_formula", "formulas.compile"),
    ("rmkit.automata", "equivalent", "automata.equivalent"),
)

# (module, class, method, span name)
_METHODS = (
    ("rmkit.diffkit", "Value", "backward", "diffkit.backward"),
    ("rmkit.diffkit", "Adam", "step", "diffkit.adam"),
    ("rmkit.training", "ActorCriticNets", "update", "training.update"),
    ("rmkit.training", "ActorCriticNets", "action_probs", "training.act"),
    ("rmkit.networks", "LSTM", "step", "networks.lstm_step"),
    ("rmkit.networks", "MLP", "__call__", "networks.mlp_call"),
    ("rmkit.networks", "MLP", "forward_numpy", "networks.mlp_numpy"),
    ("rmkit.networks", "Grounder", "__call__", "networks.grounder_call"),
    ("rmkit.networks", "OneHotGrounder", "__call__", "networks.grounder_call"),
    ("rmkit.nrm", "MachineStateTracker", "step", "nrm.tracker_step"),
    ("rmkit.gridworld", "GridWorld", "step", "gridworld.step"),
)

_UPDATE_CHILDREN = ("diffkit.backward", "diffkit.adam", "diffkit.clip")


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.urs_ms: dict[int, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str):
        """Context manager recording one span (used for the benchmark's own ops)."""
        return _Span(self, name)

    def _open(self, name: str) -> list:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[self._stack[0]][4] if self._stack else idx
        span = [name, 0.0, 0.0, parent, op]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        hooks = {"nrm.refit": self._after_refit, "shortcuts.find_urs": self._after_find_urs}
        modules = [m for n, m in sys.modules.items() if n == "rmkit" or n.startswith("rmkit.")]
        for mod_name, attr, name in _FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, hooks.get(name))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for mod_name, cls_name, attr, name in _METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _after_refit(self, idx, args, kwargs, result):
        dataset = args[2] if len(args) > 2 else kwargs["dataset"]
        groups = len({len(tr.reward_classes) for tr in dataset})
        batches = sum(1 for s in self.spans[idx + 1:]
                      if s[3] == idx and s[0] == "nrm.forward_batch")
        if groups:
            self.counts["nrm.refit_epochs"] += batches / groups

    def _after_find_urs(self, idx, args, kwargs, report):
        span = self.spans[idx]
        k = len(report.alphabet)
        self.urs_ms[k].append((span[2] - span[1]) * 1e3)
        self.counts["shortcuts.space_n"] += k ** k
        self.counts["shortcuts.survivors_n"] += report.count
        # The search's own diagnostics: a report that drops one of them, as a
        # search that stops enumerating every candidate may, leaves its
        # metric at 0 rather than failing the run.
        timings = getattr(report, "timings", {})
        self.counts["shortcuts.search_s"] += timings.get("search", 0.0)
        self.counts["shortcuts.init_s"] += timings.get("init", 0.0)
        self.counts["shortcuts.candidates_n"] += len(getattr(report, "candidates", ()))
        self.counts["shortcuts.levels"] += getattr(report, "levels", 0)
        peak = getattr(report, "peak_pairs", None)
        if peak is not None and len(peak):
            self.counts["shortcuts.peak_pairs_max"] = max(self.counts["shortcuts.peak_pairs_max"],
                                                          int(peak.max()))

    # -- summaries ---------------------------------------------------------

    def per_name(self) -> dict[str, dict[str, float]]:
        """Call count, busy seconds and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"n": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["n"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def layer_metrics(self, overhead: float, agent_rates: dict[str, float]) -> dict[str, float]:
        names = self.per_name()

        def busy(name):
            return names.get(name, {}).get("s", 0.0)

        def calls(name):
            return names.get(name, {}).get("n", 0)

        graph_build = 0.0
        update_ids = {i for i, s in enumerate(self.spans) if s[0] == "training.update"}
        for i in update_ids:
            graph_build += self.spans[i][2] - self.spans[i][1]
        for s in self.spans:
            if s[3] in update_ids and s[0] in _UPDATE_CHILDREN:
                graph_build -= s[2] - s[1]
        layer_self: dict[str, float] = defaultdict(float)
        for name, row in names.items():
            layer_self[name.split(".")[0]] += row["self_s"]
        space = self.counts["shortcuts.space_n"]
        values = {
            "training.graph_build_s": graph_build,
            "training.losses_s": busy("training.losses"),
            "nrm.refit_epochs": self.counts["nrm.refit_epochs"],
            "shortcuts.search_s": self.counts["shortcuts.search_s"],
            "shortcuts.init_s": self.counts["shortcuts.init_s"],
            "shortcuts.candidates_n": self.counts["shortcuts.candidates_n"],
            "shortcuts.survivor_ratio": self.counts["shortcuts.survivors_n"] / space if space else 0.0,
            "shortcuts.levels": self.counts["shortcuts.levels"],
            "shortcuts.peak_pairs_max": self.counts["shortcuts.peak_pairs_max"],
            "shortcuts.k5_ms": _median(self.urs_ms.get(5, [])),
            "shortcuts.k7_ms": _median(self.urs_ms.get(7, [])),
            "trace.overhead": overhead,
            "trace.spans_n": len(self.spans),
        }
        for kind in ("rm", "nrm", "rnn"):
            values[f"training.{kind}_steps_per_s"] = agent_rates.get(kind, 0.0)
        out = {}
        for metric, unit in LAYER_METRICS:
            layer, quantity = metric.split(".", 1)
            if metric in values:
                value = values[metric]
            elif quantity == "self_s":
                value = layer_self.get(layer, 0.0)
            elif quantity.endswith("_s"):
                value = busy(f"{layer}.{quantity[:-2]}")
            else:
                value = calls(f"{layer}.{quantity[:-2]}")
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self) -> dict:
        """Spans in a compact form: a name table plus rows of indices and times."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": names,
            "spans": [[index[n], a, b, p, o] for n, a, b, p, o in self.spans],
            "per_name": self.per_name(),
        }


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.span)
        return False


def _median(values) -> float:
    return statistics.median(values) if values else 0.0
