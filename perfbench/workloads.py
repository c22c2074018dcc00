"""The benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs a
closed loop of ``cycle`` calls: every call into rmkit starts only when the
previous one has returned.  A cycle returns one :class:`Sample` per call,
holding the call's wall time, the work it did, a digest of its outputs and
whether its outputs passed the workload's correctness check.  Calls with the
same ``key`` get identical inputs, so their digests must agree bit for bit.

BENCHMARK.json lists a2c-train and urs-scan.  ground and learn-machine run
the same way from the command line; README.md says why they are not listed.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from rmkit import automata, formulas, gridworld, networks, nrm, shortcuts, training
from rmkit.diffkit import Adam


@dataclass
class Sample:
    kind: str  # which part of the workload the call belongs to
    key: str  # calls with equal keys get identical inputs
    seconds: float
    work: float  # in the workload's unit of work
    digest: str
    ok: bool
    note: str = ""


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    min_cycles = 1  # cycles needed before every sample key has been seen

    def throughput(self, samples) -> float:
        """steps_per_s: work per second of calls."""
        return sum(s.work for s in samples) / sum(s.seconds for s in samples)

    def rates(self, samples) -> dict[str, float]:
        """Env steps per second per agent kind; only a2c-train has agents."""
        return {}


class _StepCounter:
    """Counts the env steps of each run_single call.

    run_single keeps its environment private, so the count comes from
    GridWorld.reset, which runs once per episode: it adds the length of the
    episode that has just ended, and :meth:`take` adds that of the last one.
    Installed for the whole run, timed or traced alike, it costs one Python
    call per episode, not per step.
    """

    def __init__(self):
        self.steps = 0
        self.env = None
        original = gridworld.GridWorld.reset

        def reset(env, *args, **kwargs):
            if env is self.env:
                self.steps += env.t
            self.env = env
            return original(env, *args, **kwargs)

        gridworld.GridWorld.reset = reset

    def take(self) -> int:
        """Steps since the last call, the current episode's included."""
        steps = self.steps + self.env.t
        self.steps, self.env = 0, None
        return steps


class A2CTrain(Workload):
    """Task 1 on the default grid: the rm, nrm and rnn agents back to back."""

    name = "a2c-train"
    kinds = ("rm", "nrm", "rnn")
    # One grounder period, so the nrm agent refits once per call, at its
    # end, and the refit takes the same share of a call as it does of every
    # 120 episodes in a long run.
    episodes = 120
    # Criterion 8's training seeds.  An agent's speed per env step depends
    # on its training seed: episode lengths follow the policy, and the nrm
    # agent's refit stops early after a seed-dependent number of epochs.  So
    # every run trains on all of them, one per cycle, and the workload seed
    # only rotates their order.
    train_seeds = training.TrainConfig().seeds
    min_cycles = len(train_seeds)

    def __init__(self, seed: int):
        self.seed = seed
        self.counter = _StepCounter()

    def setup(self):
        formulas.compile_formula(formulas.TASK_FORMULAS[1], formulas.TASK_ALPHABET)
        return training.TrainConfig(episodes=self.episodes)

    def cycle(self, config, index: int) -> list[Sample]:
        samples = []
        train_seed = self.train_seeds[(self.seed + index) % len(self.train_seeds)]
        for kind in self.kinds:
            t0 = time.perf_counter()
            returns = training.run_single(1, kind, config, gridworld.DEFAULT_CONFIG, train_seed)
            seconds = time.perf_counter() - t0
            values = np.asarray(returns, dtype=np.float64)
            ok = len(values) == self.episodes and bool(np.isfinite(values).all()) \
                and float(values.max()) <= 100.0 + 1e-9
            samples.append(Sample(kind, f"{kind}-seed{train_seed}", seconds,
                                  self.counter.take(), _sha(values), ok,
                                  f"mean return {values.mean():.2f}"))
        return samples

    def rates(self, samples) -> dict[str, float]:
        """Env steps per second of each agent kind over all training seeds.

        Calls are timed whole, so the nrm agent's refit counts.  A seed that
        a run trains more than once counts once, with its median call time.
        """
        rates = {}
        for kind in self.kinds:
            calls = defaultdict(list)
            for s in samples:
                if s.kind == kind:
                    calls[s.key].append(s)
            work = sum(same[0].work for same in calls.values())
            seconds = sum(statistics.median(s.seconds for s in same) for same in calls.values())
            rates[kind] = work / seconds
        return rates

    def throughput(self, samples) -> float:
        """Env steps per second when every agent takes the same number of steps.

        Weighting by step count would let episode lengths, which follow the
        policy, decide how much each agent counts.
        """
        rates = self.rates(samples)
        return len(rates) / sum(1.0 / r for r in rates.values())

    def named(self, samples):
        return {f"{kind}_steps_per_s": (rate, "1/s") for kind, rate in self.rates(samples).items()}


class Ground(Workload):
    """Offline grounding on 500 mixture episodes of task 1 (criterion 6)."""

    name = "ground"
    # Criterion 6's dataset and grounder seeds.  Other seed pairs end between
    # 0.80 and 0.92 corrected accuracy, under the 0.90 the check demands, so
    # the workload seed permutes the trace order instead (see README.md).
    dataset_seed = 0
    grounder_seed = 1
    epochs = 100
    min_accuracy = 0.90

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        machine = formulas.compile_formula(formulas.TASK_FORMULAS[1], formulas.TASK_ALPHABET)
        config = gridworld.DEFAULT_CONFIG
        traces = gridworld.synth_dataset(config, machine, policy="mixture", n=500,
                                         seed=self.dataset_seed)
        order = np.random.default_rng(self.seed).permutation(len(traces))
        traces = [traces[i] for i in order]
        cells = config.all_cells()
        return {
            "machine": machine,
            "params": nrm.params_from_machine(machine),
            "traces": traces,
            "steps": sum(len(tr.reward_classes) for tr in traces),
            "groups": len({len(tr.reward_classes) for tr in traces}),
            "urs": shortcuts.find_urs(machine).survivor_set(),
            "states": np.array([config.encode(c) for c in cells]),
            "labels": np.array([config.label(c) for c in cells]),
        }

    def cycle(self, st, index: int) -> list[Sample]:
        rng = np.random.default_rng(self.grounder_seed)
        grounder = networks.Grounder(rng, 2, len(st["machine"].alphabet), hidden=64)
        optimizer = Adam(grounder.params())
        t0 = time.perf_counter()
        nrm.train_grounder(st["params"], grounder, st["traces"], epochs=self.epochs,
                           optimizer=optimizer, rng=rng)
        seconds = time.perf_counter() - t0
        epochs = optimizer.step_count / st["groups"]
        accuracy = nrm.urs_corrected_accuracy(grounder, st["states"], st["labels"], st["urs"])
        digest = _sha(*(p.data for p in grounder.params()))
        return [Sample("fit", "fit", seconds, st["steps"] * epochs, digest,
                       accuracy >= self.min_accuracy,
                       f"{epochs:.0f} epochs, corrected accuracy {accuracy:.3f}")]

    def named(self, samples):
        return {"ground_steps_per_s": (self.throughput(samples), "1/s")}


class LearnMachine(Workload):
    """Pure learning of F(a) over {a, b} from 1000 random strings (criterion 7)."""

    name = "learn-machine"
    learn_seeds = (0, 1, 2, 3)
    epochs = 200  # pure_learning's default; no early stop, so every call does equal work
    min_cycles = len(learn_seeds)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        target = formulas.compile_formula("F(a)", ("a", "b"))
        rng = np.random.default_rng(self.seed)
        strings = [tuple(int(rng.integers(0, 2)) for _ in range(int(rng.integers(1, 9))))
                   for _ in range(1000)]
        dataset = nrm.traces_from_strings(target, strings)
        return {"target": target, "dataset": dataset, "steps": sum(len(s) for s in strings)}

    def cycle(self, st, index: int) -> list[Sample]:
        seed = self.learn_seeds[index % len(self.learn_seeds)]
        target = st["target"]
        t0 = time.perf_counter()
        params, _ = nrm.pure_learning(st["dataset"], n_states=3, alphabet=target.alphabet,
                                      output_classes=target.output_classes, epochs=self.epochs,
                                      seed=seed)
        seconds = time.perf_counter() - t0
        learned = automata.minimize(nrm.extract_machine(params))
        ok = automata.equivalent(learned, target)
        return [Sample("learn", f"seed{seed}", seconds, st["steps"] * self.epochs,
                       _sha(params.mt.data, params.mr.data), ok,
                       f"{learned.n_states}-state machine")]

    def named(self, samples):
        return {"learn_steps_per_s": (self.throughput(samples), "1/s")}


class UrsScan(Workload):
    """find_urs on the 8 task formulas over 5, 6 and 7 symbols (24 machines)."""

    name = "urs-scan"
    symbols = ("a", "b", "c", "d", "e", "f", "g")
    sizes = (5, 6, 7)
    # Survivor counts per task 1..8, each confirmed by urs_oracle_exact.
    # Counts do not depend on the order of the alphabet.
    golden = {
        5: (54, 24, 27, 4, 8, 8, 4, 4),
        6: (512, 162, 256, 27, 54, 32, 27, 16),
        7: (6250, 1536, 3125, 256, 512, 216, 256, 108),
    }

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        # The seed permutes each alphabet.  The call order is fixed, by
        # alphabet size, so that peak memory does not depend on the seed and
        # a 5-symbol call follows a 7-symbol one only at the start of a sweep.
        rng = np.random.default_rng(self.seed)
        alphabets = {k: tuple(self.symbols[i] for i in rng.permutation(k)) for k in self.sizes}
        return [(k, tid, formulas.compile_formula(formulas.TASK_FORMULAS[tid], alphabets[k]))
                for k in self.sizes for tid in sorted(formulas.TASK_FORMULAS)]

    def cycle(self, machines, index: int) -> list[Sample]:
        samples = []
        for k, tid, m in machines:
            t0 = time.perf_counter()
            report = shortcuts.find_urs(m)
            seconds = time.perf_counter() - t0
            survivors = sorted(report.survivor_set())
            key = f"k{k}-task{tid}"
            ok = report.count == self.golden[k][tid - 1]
            # The first cycle meets every machine, so rechecking there covers
            # them all; a traced run's traced pass of it records the checks.
            if ok and index == 0:
                ok = all(automata.equivalent(m, automata.relabel(m, a)) for a in survivors)
            # The work is the size of the renaming space, k ** k, whatever
            # part of it the search enumerates.
            samples.append(Sample(f"k{k}", key, seconds, k ** k,
                                  _sha(np.array(survivors, dtype=np.int64)), ok,
                                  f"{report.count} survivors"))
        return samples

    def _rates(self, samples) -> dict[int, float]:
        """Median renamings resolved per second per alphabet size."""
        return {k: statistics.median(s.work / s.seconds for s in samples if s.kind == f"k{k}")
                for k in self.sizes}

    def throughput(self, samples) -> float:
        """Renamings per second when every alphabet size resolves as many.

        Each size weighs about a third, so a search that wins on 7 symbols
        but loses on 5 does not hide the loss in a total that the 7-symbol
        calls dominate.
        """
        rates = self._rates(samples)
        return len(rates) / sum(1.0 / r for r in rates.values())

    def named(self, samples):
        return {f"urs_k{k}_ms": (statistics.median(ms), "ms", ms)
                for k in self.sizes
                if (ms := sorted(1e3 * s.seconds for s in samples if s.kind == f"k{k}"))}


WORKLOADS = {w.name: w for w in (A2CTrain, Ground, LearnMachine, UrsScan)}
