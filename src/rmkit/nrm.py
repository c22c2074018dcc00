"""Differentiable probabilistic Moore machines with a neural symbol grounder.

The machine is carried as dense tensors: a transition stack ``Mt`` of shape
``[P, Q, Q]``, a reward matrix ``Mr`` of shape ``[Q, R]`` and a one-hot
initial state row.  A grounder maps raw environment states to probability
rows over the symbol alphabet, and the recurrence

    q(t) = sum_i p(t)[i] * (q(t-1) @ Mt[i]),   r(t) = q(t) @ Mr

pushes those probabilities through the machine.  With machine tensors
frozen from a known machine (exact one-hot rows) the recurrence reproduces
the exact automaton whenever the grounder is one-hot; with learnable
tensors the rows pass through a temperature softmax so annealing drives
them toward a discrete machine.

Training uses reward classes as the only supervision: the cross-entropy
between predicted reward probabilities and observed reward-class indices
(semi-supervised symbol grounding when only the grounder is trained, pure
learning when the machine tensors are trained too).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffkit as dk
from .automata import MooreMachine, run_string
from .diffkit import Adam, Value
from .errors import InputError
from .networks import OneHotGrounder

TAU_FLOOR = 0.05


def default_tau_schedule(epoch: int) -> float:
    """Exponential annealing toward near-discrete machine rows."""
    return max(TAU_FLOOR, 0.97**epoch)


@dataclass
class ProbMachineParams:
    """Dense machine tensors plus the bookkeeping to map them back to labels."""

    alphabet: tuple[str, ...]
    output_classes: tuple[int, ...]
    mt: Value  # [P, Q, Q]
    mr: Value  # [Q, R]
    q0: np.ndarray  # one-hot [Q]
    tau: float = 1.0
    frozen: bool = True

    @property
    def n_states(self) -> int:
        return self.q0.shape[0]

    def machine_tensors(self):
        """Effective (Mt, Mr) for the forward pass.

        Frozen tensors are exact one-hot rows and bypass the temperature
        softmax entirely (returned as plain arrays, so no gradient ever
        reaches them); learnable tensors pass through it row-wise.
        """
        if self.frozen:
            return self.mt.data, self.mr.data
        return dk.tau_softmax(self.mt, self.tau, axis=-1), dk.tau_softmax(self.mr, self.tau, axis=-1)

    def trainable_params(self) -> list[Value]:
        return [] if self.frozen else [self.mt, self.mr]


def params_from_machine(m: MooreMachine, tau: float = 1.0) -> ProbMachineParams:
    """Knowledge initialization: write exact one-hot rows and freeze them."""
    n, k, r = m.n_states, len(m.alphabet), len(m.output_classes)
    mt = np.zeros((k, n, n))
    for q in m.states:
        for p in range(k):
            mt[p, q, m.transitions[q][p]] = 1.0
    mr = np.zeros((n, r))
    for q in m.states:
        mr[q, m.outputs[q]] = 1.0
    q0 = np.zeros(n)
    q0[m.initial] = 1.0
    return ProbMachineParams(m.alphabet, m.output_classes, Value(mt), Value(mr), q0, tau, frozen=True)


def random_params(rng: np.random.Generator, alphabet, output_classes, n_states: int,
                  tau: float = 1.0) -> ProbMachineParams:
    """Learnable machine tensors (logits), initial state pinned to 0."""
    alphabet = tuple(alphabet)
    output_classes = tuple(output_classes)
    k, r = len(alphabet), len(output_classes)
    mt = Value(rng.standard_normal((k, n_states, n_states)) * 0.5)
    mr = Value(rng.standard_normal((n_states, r)) * 0.5)
    q0 = np.zeros(n_states)
    q0[0] = 1.0
    return ProbMachineParams(alphabet, output_classes, mt, mr, q0, tau, frozen=False)


@dataclass
class ProbTraces:
    """Probability sequences produced by one forward pass."""

    symbols: Value  # [T, P] or [B, T, P]
    states: Value  # [T, Q] or [B, T, Q]
    rewards: Value  # [T, R] or [B, T, R]

    def decode(self):
        """Most-probable symbolic sequences (argmax per row)."""
        return (
            self.symbols.data.argmax(axis=-1),
            self.states.data.argmax(axis=-1),
            self.rewards.data.argmax(axis=-1),
        )


def forward(params: ProbMachineParams, grounder, x_s) -> ProbTraces:
    """Run the probabilistic recurrence over one state sequence ``[T, d]``."""
    x_s = np.asarray(x_s, dtype=np.float64)
    if x_s.ndim != 2 or x_s.shape[0] == 0:
        raise InputError("x_s must be a nonempty [T, d] state sequence")
    traces = forward_batch(params, grounder, x_s[np.newaxis])
    return ProbTraces(*(dk.reshape(v, v.data.shape[1:])
                        for v in (traces.symbols, traces.states, traces.rewards)))


def forward_batch(params: ProbMachineParams, grounder, xs, training: bool = False) -> ProbTraces:
    """Batched forward over equal-length sequences ``[B, T, d]``."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[1] == 0:
        raise InputError("xs must be [B, T, d] with T >= 1")
    b, t_len, d = xs.shape
    mt_eff, mr_eff = params.machine_tensors()
    flat = grounder(Value(xs.reshape(b * t_len, d)), training=training)
    k = flat.data.shape[-1]
    if k != len(params.alphabet):
        raise InputError("grounder output width must match the alphabet")
    x_pp = dk.reshape(flat, (b, t_len, k))
    q0 = np.broadcast_to(params.q0, (b, params.n_states)).copy()
    x_qp = dk.pmm_scan(q0, x_pp, mt_eff)
    r = len(params.output_classes)
    flat_r = dk.matmul(dk.reshape(x_qp, (b * t_len, params.n_states)),
                       mr_eff if isinstance(mr_eff, Value) else Value(mr_eff))
    x_rp = dk.reshape(flat_r, (b, t_len, r))
    return ProbTraces(x_pp, x_qp, x_rp)


class MachineStateTracker:
    """Incremental, graph-free state-probability updates for the agent loop."""

    def __init__(self, params: ProbMachineParams, grounder):
        self.params = params
        self.grounder = grounder
        self.refresh()
        self.q = params.q0.copy()

    def refresh(self):
        """Re-snapshot the effective tensors (call after training updates)."""
        if self.params.frozen:
            self._mt = self.params.mt.data
        else:
            logits = self.params.mt.data / self.params.tau
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            self._mt = e / e.sum(axis=-1, keepdims=True)

    def reset(self) -> np.ndarray:
        self.q = self.params.q0.copy()
        return self.q.copy()

    def step(self, state_vec: np.ndarray) -> np.ndarray:
        probs = self.grounder.forward_numpy(np.asarray(state_vec, float)[np.newaxis, :])[0]
        self.q = np.einsum("i,q,iqo->o", probs, self.q, self._mt)
        return self.q.copy()


# ---------------------------------------------------------------------------
# losses and training


def sg_loss(params: ProbMachineParams, grounder, trace) -> Value:
    """Mean per-step cross-entropy between predicted reward probabilities
    and the trace's observed reward-class indices."""
    traces = forward(params, grounder, trace.states)
    return dk.cross_entropy(traces.rewards, np.asarray(trace.reward_classes, dtype=np.int64))


def _grouped_by_length(dataset):
    groups: dict[int, list] = {}
    for trace in dataset:
        groups.setdefault(len(trace.reward_classes), []).append(trace)
    out = []
    for t_len in sorted(groups):
        traces = groups[t_len]
        xs = np.stack([np.asarray(tr.states, dtype=np.float64) for tr in traces])
        ys = np.stack([np.asarray(tr.reward_classes, dtype=np.int64) for tr in traces])
        out.append((xs, ys))
    return out


def dataset_loss(params: ProbMachineParams, grounder, groups) -> float:
    """Step-weighted mean loss over a grouped dataset, without recording grads."""
    total, steps = 0.0, 0
    for xs, ys in groups:
        traces = forward_batch(params, grounder, xs)
        loss = dk.cross_entropy(traces.rewards, ys)
        n = ys.size
        total += loss.item() * n
        steps += n
    return total / max(steps, 1)


def evaluate_loss(params: ProbMachineParams, grounder, dataset) -> float:
    """Mean per-step loss of a trace dataset (evaluation only)."""
    return dataset_loss(params, grounder, _grouped_by_length(dataset))


def train_grounder(params: ProbMachineParams, grounder, dataset, epochs: int = 100,
                   optimizer: Adam | None = None, rng: np.random.Generator | None = None,
                   min_improvement: float = 1e-5, patience: int = 5) -> object:
    """Semi-supervised symbol grounding: fit the grounder against a frozen machine.

    Minimizes the mean reward-class cross-entropy over the dataset; stops
    early once ``patience`` consecutive epochs improve the epoch loss by
    less than ``min_improvement``.  The machine tensors never change.
    """
    if not params.frozen:
        raise InputError("train_grounder expects a frozen (knowledge-initialized) machine")
    if not dataset:
        return grounder
    if optimizer is None:
        optimizer = Adam(grounder.params())
    if rng is None:
        rng = np.random.default_rng(0)
    groups = _grouped_by_length(dataset)
    best = np.inf
    stale = 0
    for _ in range(epochs):
        order = rng.permutation(len(groups))
        total, steps = 0.0, 0
        for gi in order:
            xs, ys = groups[gi]
            optimizer.zero_grad()
            traces = forward_batch(params, grounder, xs, training=True)
            loss = dk.cross_entropy(traces.rewards, ys)
            loss.backward()
            optimizer.step()
            total += loss.item() * ys.size
            steps += ys.size
        epoch_loss = total / steps
        if best - epoch_loss < min_improvement:
            stale += 1
            if stale >= patience:
                break
        else:
            stale = 0
        best = min(best, epoch_loss)
    return grounder


def pure_learning(dataset, n_states: int, alphabet, output_classes, grounder=None,
                  epochs: int = 200, lr: float = 5e-3, seed: int = 0,
                  tau_schedule=default_tau_schedule) -> tuple[ProbMachineParams, object]:
    """Learn machine tensors (and optionally the grounder) from traces alone.

    The temperature anneals per epoch so the softmaxed rows harden toward a
    discrete machine; a too-small state budget shows up as a high held-out
    loss rather than an exception.
    """
    if not dataset or any(len(tr.reward_classes) == 0 for tr in dataset):
        raise InputError("pure learning needs nonempty traces")
    rng = np.random.default_rng(seed)
    params = random_params(rng, alphabet, output_classes, n_states, tau=tau_schedule(0))
    if grounder is None:
        grounder = OneHotGrounder(len(params.alphabet))
    trainables = params.trainable_params() + grounder.params()
    optimizer = Adam(trainables, lr=lr)
    groups = _grouped_by_length(dataset)
    for epoch in range(epochs):
        params.tau = tau_schedule(epoch)
        for gi in rng.permutation(len(groups)):
            xs, ys = groups[gi]
            optimizer.zero_grad()
            traces = forward_batch(params, grounder, xs, training=True)
            loss = dk.cross_entropy(traces.rewards, ys)
            loss.backward()
            optimizer.step()
    return params, grounder


def extract_machine(params: ProbMachineParams) -> MooreMachine:
    """Argmax discretization of the machine tensors (ties break low)."""
    mt = params.mt.data
    mr = params.mr.data
    transitions = tuple(
        tuple(int(mt[p, q].argmax()) for p in range(len(params.alphabet)))
        for q in range(params.n_states)
    )
    outputs = tuple(int(mr[q].argmax()) for q in range(params.n_states))
    return MooreMachine(params.alphabet, transitions, outputs, params.output_classes,
                        int(params.q0.argmax()))


def urs_corrected_accuracy(grounder, states, labels, urs_set) -> float:
    """Best symbol accuracy over all unfalsifiable renamings.

    Any renaming in the machine's unremovable set is observationally
    indistinguishable from the identity, so the grounder is scored under
    the most favorable one.
    """
    preds = grounder.predict(np.asarray(states, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    best = 0.0
    for alpha in urs_set:
        mapped = np.asarray(alpha, dtype=np.int64)[preds]
        best = max(best, float((mapped == labels).mean()))
    return best


# ---------------------------------------------------------------------------
# synthetic traces (string-world datasets for learning experiments)


@dataclass
class StringTrace:
    """One-hot encoded symbol string plus its machine reward classes."""

    states: np.ndarray  # [T, P] one-hot rows
    reward_classes: np.ndarray  # [T] class indices
    symbols: np.ndarray = field(default=None)

    def __len__(self):
        return len(self.reward_classes)


def traces_from_strings(m: MooreMachine, strings) -> list[StringTrace]:
    """Build one-hot traces whose supervision comes from running the machine."""
    k = len(m.alphabet)
    out = []
    for x in strings:
        x = tuple(x)
        if not x:
            raise InputError("traces need at least one step")
        _, classes = run_string(m, x)
        onehot = np.zeros((len(x), k))
        onehot[np.arange(len(x)), list(x)] = 1.0
        out.append(StringTrace(onehot, np.asarray(classes, dtype=np.int64), np.asarray(x)))
    return out
