"""Differentiable probabilistic Moore machines with a neural symbol grounder.

The machine is carried as dense tensors: a transition stack ``Mt`` of shape
``[P, Q, Q]``, a reward matrix ``Mr`` of shape ``[Q, R]`` and a one-hot
initial state row.  A grounder maps raw environment states to probability
rows p(t) over the symbol alphabet, and the recurrence

    A(t) = (p(t) @ Mt.reshape(P, Q * Q)).reshape(Q, Q),   q(t) = q(t-1) @ A(t)

pushes those probabilities through the machine, with rewards r(t) = q(t) @ Mr.
The graph of :func:`forward_batch`, :class:`_GroupFit` and the agent's
:class:`MachineStateTracker` all run it in that one form.  With machine tensors
frozen from a known machine (exact one-hot rows) the recurrence reproduces
the exact automaton whenever the grounder is one-hot; with learnable
tensors the rows pass through a temperature softmax so annealing drives
them toward a discrete machine.

Training uses reward classes as the only supervision: the cross-entropy
between predicted reward probabilities and observed reward-class indices
(semi-supervised symbol grounding when the grounder is trained against a
frozen machine, pure learning when the machine tensors are trained).  One
implementation of that loss, :class:`_GroupFit`, serves the grounder refit,
pure learning and evaluation.  It runs each length group on plain arrays,
through scratch kept for the whole fit, with the products of the diffkit
graph that :func:`forward` records, and so gives that graph's values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import diffkit as dk
from .automata import MooreMachine, run_string
from .diffkit import Adam, Value
from .errors import InputError, NumericsError
from .networks import OneHotGrounder

TAU_FLOOR = 0.05
# train_grounder stops once PATIENCE epochs in a row improve the loss by less than this
MIN_IMPROVEMENT = 1e-5
PATIENCE = 5
PURE_LEARNING_LR = 5e-3  # Adam's step size for the machine logits


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


def params_from_machine(m: MooreMachine) -> ProbMachineParams:
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
    return ProbMachineParams(m.alphabet, m.output_classes, Value(mt), Value(mr), q0, frozen=True)


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
    mr: Value | np.ndarray  # [Q, R]: the effective reward matrix the states map through

    @cached_property
    def rewards(self) -> Value:
        """Reward-class probabilities ``states @ mr``, [T, R] or [B, T, R]."""
        q = self.states
        flat = dk.matmul(dk.reshape(q, (-1, q.shape[-1])), self.mr)
        return dk.reshape(flat, q.shape[:-1] + flat.shape[-1:])

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
    return ProbTraces(*(dk.reshape(v, v.data.shape[1:]) for v in (traces.symbols, traces.states)),
                      traces.mr)


def forward_batch(params: ProbMachineParams, grounder, xs) -> ProbTraces:
    """Batched forward over equal-length sequences ``[B, T, d]`` as a diffkit graph."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[1] == 0:
        raise InputError("xs must be [B, T, d] with T >= 1")
    b, t_len, d = xs.shape
    mt_eff, mr_eff = params.machine_tensors()
    flat = grounder(Value(xs.reshape(b * t_len, d)))
    k = flat.data.shape[-1]
    if k != len(params.alphabet):
        raise InputError("grounder output width must match the alphabet")
    # every step's A(t) = sum_i p(t)[i] * Mt[i] from one product, then q(t) = q(t-1) @ A(t)
    a = dk.reshape(dk.matmul(flat, dk.reshape(mt_eff, (k, -1))), (-1,) + mt_eff.shape[1:])
    states = []
    for row in range(b * t_len):
        states.append(dk.matmul(states[-1] if row % t_len else params.q0, dk.take(a, row)))
    return ProbTraces(dk.reshape(flat, (b, t_len, k)),
                      dk.reshape(dk.stack(states), (b, t_len, -1)), mr_eff)


class MachineStateTracker:
    """Incremental, graph-free state-probability updates over a frozen machine.

    :meth:`step` is :class:`_GroupFit`'s recurrence for one row: the step matrix
    ``A = (g(x) @ M_flat).reshape(Q, Q)``, then ``q = q @ A``.  ``rows`` keeps
    ``A`` per observation (keyed by its bytes), so each distinct observation runs
    the grounder once, until :meth:`refit` changes its weights and clears them:
    at most ``GROUNDER_PERIOD * t_max`` matrices, never more than the grid's cells.
    """

    def __init__(self, params: ProbMachineParams, grounder):
        if not params.frozen:
            raise InputError("MachineStateTracker expects a frozen (knowledge-initialized) machine")
        self.params = params
        self.grounder = grounder
        self.m_flat = params.mt.data.reshape(params.mt.shape[0], -1)
        self.rows: dict[bytes, np.ndarray] = {}
        self.q = params.q0.copy()

    def reset(self) -> np.ndarray:
        self.q = self.params.q0.copy()
        return self.q.copy()

    def step(self, state_vec: np.ndarray) -> np.ndarray:
        x = np.asarray(state_vec, float)[np.newaxis]
        a = self.rows.get(x.tobytes())
        if a is None:
            a = self.rows[x.tobytes()] = (self.grounder(x)[0] @ self.m_flat).reshape(self.q.size, -1)
        self.q = self.q @ a
        return self.q.copy()

    def refit(self, dataset, optimizer: Adam, rng: np.random.Generator) -> int:
        """:func:`train_grounder` on ``dataset``, then drop the stale step matrices; the epochs run."""
        epochs = train_grounder(self.params, self.grounder, dataset, optimizer=optimizer, rng=rng)
        self.rows.clear()
        return epochs


# ---------------------------------------------------------------------------
# losses and training


def _grouped_by_length(dataset):
    """``(xs, ys)`` per trace length: the stacked states and reward classes."""
    groups: dict[int, list] = {}
    for trace in dataset:
        if len(trace.reward_classes) == 0:
            raise InputError("the grounding loss needs nonempty traces")
        groups.setdefault(len(trace.reward_classes), []).append(trace)
    return [(np.stack([np.asarray(tr.states, dtype=np.float64) for tr in groups[t_len]]),
             np.stack([np.asarray(tr.reward_classes, dtype=np.int64) for tr in groups[t_len]]))
            for t_len in sorted(groups)]


def dataset_loss(params: ProbMachineParams, grounder, dataset) -> float:
    """Mean per-step loss of a trace dataset (evaluation only)."""
    groups = _grouped_by_length(dataset)
    total = sum(_GroupFit(params, xs, ys).loss(grounder) * ys.size for xs, ys in groups)
    return total / max(sum(ys.size for _, ys in groups), 1)


class _GroupFit:
    """The grounding loss of one length group ``xs`` ``[B, T, d]``, ``ys`` ``[B, T]``.

    :meth:`loss` is the forward pass: the grounder on the distinct rows of
    ``xs``, gathered back per step, the machine recurrence, ``q @ Mr`` and
    the floored cross-entropy of ``ys``.  :meth:`step` adds the backward and
    one Adam step.  Against a frozen machine the grounder learns: the
    per-step dL/dp is summed onto the distinct rows and runs back through
    :func:`~rmkit.diffkit.mlp_backward`.  Against a learnable machine the
    symbol rows stay fixed and dL/dMt, dL/dMr run back through
    ``tau_softmax`` into the logits.  The backward carries dL/dq(t) from T-1
    down to 0 in one loop (HMM forward-backward); the grads of ``p`` and
    ``Mt`` follow from one product each.  What does not change between steps
    is built once: the distinct rows, the target index, the ``q0`` rows, a
    frozen machine's arrays, the per-step views, and the scratch that
    ``A(t)``, the scan states, the carried adjoint, dL/dA and dL/dp are
    written into.
    """

    def __init__(self, params: ProbMachineParams, xs, ys):
        self.params = params
        (b, t_len, d), (n_p, n_q, _), n_r = xs.shape, params.mt.shape, params.mr.shape[1]
        self.rows, inverse = np.unique(xs.reshape(-1, d), axis=0, return_inverse=True)
        self.inverse = inverse.reshape(-1)
        self.size = ys.size
        self.idx, self.n = dk._target_index(ys, (b, t_len, n_r))
        if params.frozen:
            self.m_flat, self.mr = params.mt.data.reshape(n_p, n_q * n_q), params.mr.data
        # Each adjoint overwrites a forward value that the step has finished reading.
        self.p = np.empty((b * t_len, n_p))  # p(t), then dL/dp(t)
        self.a = np.empty((b * t_len, n_q * n_q))  # A(t) = sum_i p(t)[i] * M[i], then dL/dA(t)
        self.q = np.empty((b * t_len, n_q))  # q(t), then dL/dq(t)
        self.pred = np.empty((b * t_len, n_r))
        qs = np.empty((t_len + 1, b, 1, n_q))  # qs[t] = q(t-1), one row per sequence
        qs[0, :, 0] = np.broadcast_to(params.q0, (b, n_q))
        carried = np.empty((t_len, b, n_q, 1))  # carried[t] = dL/dq(t), one column per sequence
        a = self.a4 = self.a.reshape(b, t_len, n_q, n_q)
        q = self.q3 = self.q.reshape(b, t_len, n_q)
        self.pred3 = self.pred.reshape(b, t_len, n_r)
        self.q_out = qs[1:, :, 0].swapaxes(0, 1)
        self.q_prev = qs[:-1, :, 0].swapaxes(0, 1)[..., :, None]
        self.carried_last, self.g_last = carried[-1, :, :, 0], q[:, -1]
        self.g_all = carried[..., 0].swapaxes(0, 1)[..., None, :]
        self.scan = [(qs[t], a[:, t], qs[t + 1]) for t in range(t_len)]
        self.scan_back = [(a[:, t], carried[t], carried[t - 1], carried[t - 1, :, :, 0],
                           q[:, t - 1]) for t in range(t_len - 1, 0, -1)]

    def loss(self, grounder) -> float:
        """The group's mean loss under ``grounder``; records and changes nothing."""
        return self._forward(grounder(self.rows))[0]

    def _forward(self, symbols: np.ndarray):
        """The mean loss from the distinct rows' symbol probabilities, and n times its
        grad over the reward probabilities."""
        if symbols.shape[-1] != self.p.shape[1]:
            raise InputError("grounder output width must match the alphabet")
        if not self.params.frozen:
            mt, mr, tau = self.params.mt.data, self.params.mr.data, self.params.tau
            self.mt_eff, self.mr = dk.tau_softmax(mt, tau), dk.tau_softmax(mr, tau)
            self.m_flat = self.mt_eff.reshape(self.p.shape[1], -1)
        np.take(symbols, self.inverse, axis=0, out=self.p)
        np.matmul(self.p, self.m_flat, out=self.a)
        for q, a_t, q_next in self.scan:
            np.matmul(q, a_t, out=q_next)
        np.copyto(self.q3, self.q_out)
        np.matmul(self.q, self.mr, out=self.pred)
        loss, g = dk._nll(self.pred3, self.idx, self.n)
        if not np.isfinite(loss):
            raise NumericsError("the grounding loss is not finite")
        return float(loss), g

    def step(self, grounder, optimizer: Adam) -> float:
        """One zero_grad/backward/step on the group; the group's mean loss.

        A frozen machine's step trains ``grounder``'s layers; a learnable
        machine's step trains its logits and only reads ``grounder``.
        """
        frozen = self.params.frozen
        if frozen:
            hs = dk.mlp_forward(self.rows, grounder.layers, grounder.acts)
        loss, g = self._forward(hs[-1] if frozen else grounder(self.rows))
        g /= self.n
        g = g.reshape(self.pred.shape)
        if not frozen:
            g_mr = self.q.T @ g  # dL/dMr, read before dL/dq overwrites q
        np.matmul(g, self.mr.T, out=self.q)
        self.carried_last[...] = self.g_last
        for a_t, c_t, c_prev, c_prev_col, g_t in self.scan_back:
            np.matmul(a_t, c_t, out=c_prev)
            c_prev_col += g_t
        np.multiply(self.q_prev, self.g_all, out=self.a4)
        optimizer.zero_grad()
        if frozen:
            np.matmul(self.a, self.m_flat.T, out=self.p)
            u = len(self.rows)
            g_rows = np.stack([np.bincount(self.inverse, col, u) for col in self.p.T], axis=1)
            dk.mlp_backward(g_rows, hs, grounder.layers, grounder.acts)
        else:
            mt, mr, inv_tau = self.params.mt, self.params.mr, 1.0 / self.params.tau
            mt.grad += dk.softmax_grad((self.p.T @ self.a).reshape(mt.shape), self.mt_eff) * inv_tau
            mr.grad += dk.softmax_grad(g_mr, self.mr) * inv_tau
        optimizer.step()
        return loss


def train_grounder(params: ProbMachineParams, grounder, dataset, epochs: int = 100,
                   optimizer: Adam | None = None, rng: np.random.Generator | None = None) -> int:
    """Semi-supervised symbol grounding: fit the grounder against a frozen machine.

    Minimizes the mean reward-class cross-entropy over the dataset, one
    :class:`_GroupFit` step per length group in a random order each epoch;
    stops early once ``PATIENCE`` consecutive epochs improve the epoch loss
    by less than ``MIN_IMPROVEMENT``.  The machine tensors never change.
    Returns the number of epochs run.
    """
    if not params.frozen:
        raise InputError("train_grounder expects a frozen (knowledge-initialized) machine")
    if not dataset:
        return 0
    if optimizer is None:
        optimizer = Adam(grounder.params())
    if rng is None:
        rng = np.random.default_rng(0)
    fits = [_GroupFit(params, xs, ys) for xs, ys in _grouped_by_length(dataset)]
    steps = sum(fit.size for fit in fits)
    best, stale, epoch = np.inf, 0, 0
    for epoch in range(1, epochs + 1):
        total = 0.0
        for gi in rng.permutation(len(fits)):
            total += fits[gi].step(grounder, optimizer) * fits[gi].size
        epoch_loss = total / steps
        if best - epoch_loss < MIN_IMPROVEMENT:
            stale += 1
            if stale >= PATIENCE:
                break
        else:
            stale = 0
        best = min(best, epoch_loss)
    return epoch


def pure_learning(dataset, n_states: int, alphabet, output_classes, epochs: int = 200,
                  seed: int = 0) -> tuple[ProbMachineParams, OneHotGrounder]:
    """Learn machine tensors from traces of one-hot symbol rows alone.

    The temperature anneals per epoch so the softmaxed rows harden toward a
    discrete machine; a too-small state budget shows up as a high held-out
    loss rather than an exception.  Returns the params and the
    :class:`OneHotGrounder` that reads the symbol rows, for :func:`dataset_loss`.
    """
    if not dataset:
        raise InputError("pure learning needs nonempty traces")
    rng = np.random.default_rng(seed)
    params = random_params(rng, alphabet, output_classes, n_states, tau=default_tau_schedule(0))
    grounder = OneHotGrounder(len(params.alphabet))
    optimizer = Adam(params.trainable_params(), lr=PURE_LEARNING_LR)
    fits = [_GroupFit(params, xs, ys) for xs, ys in _grouped_by_length(dataset)]
    for epoch in range(epochs):
        params.tau = default_tau_schedule(epoch)
        for gi in rng.permutation(len(fits)):
            fits[gi].step(grounder, optimizer)
    return params, grounder


def extract_machine(params: ProbMachineParams) -> MooreMachine:
    """Argmax discretization of the machine tensors (ties break low)."""
    mt, mr = params.mt.data, params.mr.data
    transitions = tuple(tuple(int(mt[p, q].argmax()) for p in range(len(params.alphabet)))
                        for q in range(params.n_states))
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
