"""Network builders on top of the autodiff kernel.

Shapes follow the experiment setup used throughout the package: actor and
critic are three tanh layers of width 120, the map-environment grounder is
three linear layers with a tanh between the first two and a terminal
softmax, and the recurrent baseline is a two-layer LSTM of width 50.

Each feed-forward network has one forward: a Value in records a graph for
training, a plain array in gives a plain array, the agent loop's mode.
The LSTM steps on plain arrays only and records a graph only when a whole
window is rerun for an update.
"""

from __future__ import annotations

import numpy as np

from .diffkit import Value, dense, lstm_cell, lstm_scan, softmax

CKPT_VERSION = 1


class Linear:
    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int):
        bound = np.sqrt(6.0 / (n_in + n_out))
        self.w = Value(rng.uniform(-bound, bound, size=(n_in, n_out)))
        self.b = Value(np.zeros(n_out))

    def __call__(self, x, act=None):
        return dense(x, self.w, self.b, act)

    def params(self) -> list[Value]:
        return [self.w, self.b]


class MLP:
    """Fully connected stack with tanh between layers and a linear output."""

    def __init__(self, rng, sizes):
        self.layers = [Linear(rng, a, b) for a, b in zip(sizes, sizes[1:])]

    def __call__(self, x):
        *hidden, last = self.layers
        for layer in hidden:
            x = layer(x, "tanh")
        return last(x)

    # The graph-free call sites use this name, so a span trace can tell
    # action selection apart from graph builds.
    forward_numpy = __call__

    def params(self) -> list[Value]:
        return [p for layer in self.layers for p in layer.params()]


class Grounder:
    """Map-environment symbol grounder: scores states into symbol probabilities.

    Three linear layers, tanh between the first two, softmax over the
    symbol alphabet at the end.
    """

    def __init__(self, rng, n_in: int, n_symbols: int, hidden: int = 64):
        self.fc1 = Linear(rng, n_in, hidden)
        self.fc2 = Linear(rng, hidden, hidden)
        self.fc3 = Linear(rng, hidden, n_symbols)
        self.n_symbols = n_symbols

    def __call__(self, x):
        return softmax(self.fc3(self.fc2(self.fc1(x, "tanh"))))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Most probable symbol index per input row."""
        return self(np.asarray(x, dtype=np.float64)).argmax(axis=-1)

    def params(self) -> list[Value]:
        return self.fc1.params() + self.fc2.params() + self.fc3.params()


class OneHotGrounder:
    """Oracle grounder for inputs that already are probability rows over symbols."""

    def __init__(self, n_symbols: int):
        self.n_symbols = n_symbols

    def __call__(self, x):
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x).argmax(axis=-1)

    def params(self) -> list[Value]:
        return []


class LSTMCell:
    """One layer's weights; gates are fused: one [in, 4H] and one [H, 4H] matmul per step."""

    def __init__(self, rng, n_in: int, hidden: int):
        self.hidden = hidden
        bound = 1.0 / np.sqrt(hidden)
        self.wx = Value(rng.uniform(-bound, bound, size=(n_in, 4 * hidden)))
        self.wh = Value(rng.uniform(-bound, bound, size=(hidden, 4 * hidden)))
        self.b = Value(np.zeros(4 * hidden))

    def params(self) -> list[Value]:
        return [self.wx, self.wh, self.b]


class LSTM:
    """Stacked LSTM (two layers of 50 by default).

    ``step`` advances one time step on plain arrays, recording nothing; ``scan``
    reruns a window of inputs from a state as one graph node per layer.
    """

    def __init__(self, rng, n_in: int, hidden: int = 50, layers: int = 2):
        sizes = [n_in] + [hidden] * layers
        self.cells = [LSTMCell(rng, sizes[i], hidden) for i in range(layers)]

    def zero_state(self):
        return [(np.zeros(cell.hidden), np.zeros(cell.hidden)) for cell in self.cells]

    def step(self, x: np.ndarray, state):
        new_state = []
        for cell, (h, c) in zip(self.cells, state):
            x, c, _ = lstm_cell(x, h, c, cell.wx.data, cell.wh.data, cell.b.data)
            new_state.append((x, c))
        return x, new_state

    def scan(self, state, xs) -> Value:
        """Top-layer hidden states ``[T, H]`` over inputs ``xs`` ``[T, in]`` from ``state``."""
        for cell, (h, c) in zip(self.cells, state):
            xs = lstm_scan(h, c, xs, cell.wx, cell.wh, cell.b)
        return xs

    def params(self) -> list[Value]:
        return [p for cell in self.cells for p in cell.params()]


def augment_input(env_vec: np.ndarray, machine_vec: np.ndarray) -> np.ndarray:
    """Concatenate an environment encoding with a machine-state vector."""
    return np.concatenate([np.asarray(env_vec, float), np.asarray(machine_vec, float)])


# ---------------------------------------------------------------------------
# checkpoints


def save_params(path, named_params: dict[str, Value], meta: dict | None = None):
    """Versioned binary checkpoint of named parameter arrays."""
    arrays = {f"param::{name}": p.data for name, p in named_params.items()}
    meta_items = sorted((meta or {}).items())
    arrays["__meta__"] = np.array([f"{k}={v}" for k, v in meta_items], dtype=np.str_)
    arrays["__version__"] = np.array([CKPT_VERSION])
    np.savez(path, **arrays)
