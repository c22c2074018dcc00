"""Network builders on top of the autodiff kernel.

Shapes follow the experiment setup used throughout the package: actor and
critic are three tanh layers of width 120, the map-environment grounder is
three linear layers with a tanh between the first two and a terminal
softmax, and the recurrent baseline is a two-layer LSTM of width 50.

Each feed-forward network has one forward: a Value in records a graph, a
plain array in gives a plain array, the mode every training path runs in.
The LSTM steps on plain arrays only and keeps each step's activations, so
an update backprops a window from them without running it forward again.
"""

from __future__ import annotations

import numpy as np

from .diffkit import Value, lstm_backward, lstm_cell, mlp

CKPT_VERSION = 1


def linear(rng: np.random.Generator, n_in: int, n_out: int) -> tuple[Value, Value]:
    """One dense layer's ``(w, b)``: Glorot-uniform weights, zero biases."""
    bound = np.sqrt(6.0 / (n_in + n_out))
    return Value(rng.uniform(-bound, bound, size=(n_in, n_out))), Value(np.zeros(n_out))


class MLP:
    """Fully connected stack with tanh between layers and a linear output."""

    def __init__(self, rng, sizes):
        self.layers = [linear(rng, a, b) for a, b in zip(sizes, sizes[1:])]
        self.acts = ("tanh",) * (len(self.layers) - 1) + (None,)

    def __call__(self, x):
        return mlp(x, self.layers, self.acts)

    # The agent loop acts through this name, so a span trace can tell action
    # selection apart from graph calls.
    forward_numpy = __call__

    def params(self) -> list[Value]:
        return [p for layer in self.layers for p in layer]


class Grounder:
    """Map-environment symbol grounder: scores states into symbol probabilities.

    Three linear layers, tanh between the first two, softmax over the
    symbol alphabet at the end.
    """

    acts = ("tanh", None, "softmax")

    def __init__(self, rng, n_in: int, n_symbols: int, hidden: int = 64):
        self.layers = [linear(rng, n_in, hidden), linear(rng, hidden, hidden),
                       linear(rng, hidden, n_symbols)]
        self.hidden, self.n_symbols = hidden, n_symbols

    def __call__(self, x):
        return mlp(x, self.layers, self.acts)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Most probable symbol index per input row."""
        return self(np.asarray(x, dtype=np.float64)).argmax(axis=-1)

    def params(self) -> list[Value]:
        return [p for layer in self.layers for p in layer]


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

    A state holds one ``(h, c, acts)`` per layer, ``acts`` being the
    :func:`lstm_cell` activations that produced ``(h, c)``.  ``step``
    advances one time step on plain arrays; ``backward`` backprops a window
    of stepped states layer by layer, top down, without a forward.
    """

    def __init__(self, rng, n_in: int, hidden: int = 50, layers: int = 2):
        sizes = [n_in] + [hidden] * layers
        self.cells = [LSTMCell(rng, sizes[i], hidden) for i in range(layers)]

    def zero_state(self):
        return [(np.zeros(cell.hidden), np.zeros(cell.hidden), None) for cell in self.cells]

    def step(self, x: np.ndarray, state):
        new_state = []
        for cell, (h, c, _) in zip(self.cells, state):
            x, c, acts = lstm_cell(x, h, c, cell.wx.data, cell.wh.data, cell.b.data)
            new_state.append((x, c, acts))
        return x, new_state

    def backward(self, states, xs, dh) -> np.ndarray:
        """Backprop ``dh`` ``[T, H]``, the adjoint of the top layer's ``h`` in the ``T + 1``
        ``states`` ``step`` made over inputs ``xs`` ``[T, in]``; returns ``xs``' adjoint."""
        for k, cell in reversed(list(enumerate(self.cells))):
            ins = np.stack([state[k - 1][0] for state in states[1:]]) if k else xs
            dh = lstm_backward([state[k] for state in states], ins, dh, cell.wx, cell.wh, cell.b)
        return dh

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
    with open(path, "wb") as fh:  # np.savez appends ".npz" to a path name, not to an open file
        np.savez(fh, **arrays)
