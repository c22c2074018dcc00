"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Each op computes its forward value eagerly and records a closure that
scatters the output adjoint back to its parents; ``Value.backward`` runs
the recorded graph in reverse topological order and then releases it.
Shapes up to three axes are supported, which covers everything the package
needs: MLPs, LSTM cells, and the probabilistic machine recurrence.
Every training path runs its own backward on plain arrays; the graph
serves the public ``nrm.forward`` and the tests' bit references.
:func:`mlp` and :func:`softmax` also take a plain array and then return
one, recording nothing.  A fused node runs the numpy expressions of the op
chain it replaces, in order, so it gives the same bits.  The plain-array
pieces are :func:`mlp`'s two halves, :func:`mlp_forward` and
:func:`mlp_backward` (the A2C update and nrm's grounding loss),
:func:`tau_softmax` with its adjoint :func:`softmax_grad`, and the rnn
agent's :func:`lstm_cell`, whose kept activations :func:`lstm_backward`
differentiates an update window from.
Non-finite numbers are surfaced as :class:`~rmkit.errors.NumericsError`
when a loss is reduced or differentiated, not silently propagated.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericsError

_LOG_FLOOR = 1e-12  # probability floor inside cross_entropy's log
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class Value:
    """A node in the recorded computation graph: data plus a grad accumulator."""

    __slots__ = ("data", "grad", "_backward", "_parents")

    def __init__(self, data, _parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._backward = None
        self._parents = _parents

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Value(shape={self.data.shape})"

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -other if isinstance(other, Value) else -np.asarray(other))

    def __rsub__(self, other):
        return add(-self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- backward pass -----------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every leaf's grad, then release the graph.

        Each op's closure refers to its own output node, a reference cycle
        that only the cyclic garbage collector would free.  Dropping the
        closures and parent links once they have run lets reference counting
        free every intermediate array as soon as the caller drops the graph,
        so a graph can be differentiated once.
        """
        if self.data.shape != ():
            raise InputError("backward() expects a scalar loss")
        if not np.isfinite(self.data):
            raise NumericsError("non-finite loss")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:  # a leaf has no closure, so it never enters the walk
                if parent._backward is not None and id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()
                node._backward = None
                node._parents = ()


def _accum(v: Value, g: np.ndarray):
    if v.grad is None:
        # An owned copy: add, reshape and _unbroadcast pass out.grad through,
        # so a later += must not write into another node's gradient.
        v.grad = np.array(g, dtype=np.float64)
    else:
        v.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _wrap(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


# ---------------------------------------------------------------------------
# core ops


def add(a, b) -> Value:
    a, b = _wrap(a), _wrap(b)
    out = Value(a.data + b.data, (a, b))

    def backward():
        _accum(a, _unbroadcast(out.grad, a.data.shape))
        _accum(b, _unbroadcast(out.grad, b.data.shape))

    out._backward = backward
    return out


def mul(a, b) -> Value:
    if not isinstance(b, Value):
        b_arr = np.asarray(b, dtype=np.float64)
        a = _wrap(a)
        out = Value(a.data * b_arr, (a,))

        def backward_const():
            _accum(a, _unbroadcast(out.grad * b_arr, a.data.shape))

        out._backward = backward_const
        return out
    a = _wrap(a)
    out = Value(a.data * b.data, (a, b))

    def backward():
        _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
        _accum(b, _unbroadcast(out.grad * a.data, b.data.shape))

    out._backward = backward
    return out


def matmul(a: Value, b: Value) -> Value:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim not in (1, 2) or b.data.ndim != 2:
        raise InputError(f"matmul supports vec@mat and mat@mat, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise InputError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = Value(a.data @ b.data, (a, b))

    def backward():
        g = out.grad
        if a.data.ndim == 1:
            _accum(a, g @ b.data.T)
            _accum(b, np.outer(a.data, g))
        else:
            _accum(a, g @ b.data.T)
            _accum(b, a.data.T @ g)

    out._backward = backward
    return out


def concat(values, axis=0) -> Value:
    values = [_wrap(v) for v in values]
    out = Value(np.concatenate([v.data for v in values], axis=axis), tuple(values))
    sizes = [v.data.shape[axis] for v in values]

    def backward():
        offset = 0
        for v, size in zip(values, sizes):
            sl = [slice(None)] * out.data.ndim
            sl[axis] = slice(offset, offset + size)
            _accum(v, out.grad[tuple(sl)])
            offset += size

    out._backward = backward
    return out


def stack(values, axis=0) -> Value:
    values = [_wrap(v) for v in values]
    out = Value(np.stack([v.data for v in values], axis=axis), tuple(values))

    def backward():
        slices = np.moveaxis(out.grad, axis, 0)
        for v, g in zip(values, slices):
            _accum(v, g)

    out._backward = backward
    return out


def reshape(a: Value, shape) -> Value:
    a = _wrap(a)
    out = Value(a.data.reshape(shape), (a,))

    def backward():
        _accum(a, out.grad.reshape(a.data.shape))

    out._backward = backward
    return out


def take(a: Value, index: int, axis=0) -> Value:
    """Select one slice along an axis (the axis is removed)."""
    a = _wrap(a)
    out = Value(np.take(a.data, index, axis=axis), (a,))

    def backward():
        g = np.zeros_like(a.data)
        sl = [slice(None)] * a.data.ndim
        sl[axis] = index
        g[tuple(sl)] = out.grad
        _accum(a, g)

    out._backward = backward
    return out


def mlp(x, layers, acts):
    """A stack of dense layers ``act(h @ w + b)`` as one node.

    ``layers`` holds ``(w, b)`` Value pairs, ``acts`` each layer's act: "tanh",
    None or "softmax".  A Value ``x`` (``[d]`` or ``[B, d]``) gives one node
    whose backward repeats the chained ops' closures layer by layer in
    reverse; a plain array gives a plain array.
    """
    graph = isinstance(x, Value)
    hs = mlp_forward(x.data if graph else x, layers, acts)
    if not graph:
        return hs[-1]
    out = Value(hs[-1], (x,) + tuple(p for wb in layers for p in wb))

    def backward():
        _accum(x, mlp_backward(out.grad, hs, layers, acts))

    out._backward = backward
    return out


def mlp_forward(h: np.ndarray, layers, acts) -> list:
    """:func:`mlp`'s forward on a plain array: each layer's input, then the output."""
    d = layers[0][0].data.shape[0]
    if h.ndim not in (1, 2) or h.shape[-1] != d:
        raise InputError(f"mlp wants x [d] or [B, d] with d = {d}, got {h.shape}")
    hs = [h]
    for (w, b), act in zip(layers, acts):
        h = h @ w.data + b.data
        if act == "tanh":
            h = np.tanh(h)
        elif act == "softmax":
            h = softmax(h)
        hs.append(h)
    return hs


def mlp_backward(g: np.ndarray, hs, layers, acts) -> np.ndarray:
    """Accumulate the layers' grads from the output adjoint ``g`` and the
    :func:`mlp_forward` values ``hs``; returns the input's adjoint."""
    for i in range(len(layers) - 1, -1, -1):
        (w, b), act, y = layers[i], acts[i], hs[i + 1]
        if act == "tanh":
            g = g * (1.0 - y**2)
        elif act == "softmax":
            g = softmax_grad(g, y)
        _accum(b, _unbroadcast(g, b.data.shape))
        _accum(w, np.outer(hs[i], g) if hs[i].ndim == 1 else hs[i].T @ g)
        g = g @ w.data.T
    return g


def tanh(a: Value) -> Value:
    a = _wrap(a)
    out = Value(np.tanh(a.data), (a,))

    def backward():
        _accum(a, out.grad * (1.0 - out.data**2))

    out._backward = backward
    return out


def relu(a: Value) -> Value:
    a = _wrap(a)
    out = Value(np.maximum(a.data, 0.0), (a,))

    def backward():
        _accum(a, out.grad * (a.data > 0))

    out._backward = backward
    return out


def sigmoid(a: Value) -> Value:
    a = _wrap(a)
    out = Value(1.0 / (1.0 + np.exp(-a.data)), (a,))

    def backward():
        _accum(a, out.grad * out.data * (1.0 - out.data))

    out._backward = backward
    return out


def softmax(a, axis=-1):
    """Softmax along ``axis``; a plain array in gives a plain array out."""
    graph = isinstance(a, Value)
    data = a.data if graph else a
    shifted = data - data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    if not graph:
        return s
    out = Value(s, (a,))

    def backward():
        _accum(a, softmax_grad(out.grad, s, axis))

    out._backward = backward
    return out


def softmax_grad(g: np.ndarray, s: np.ndarray, axis=-1) -> np.ndarray:
    """The adjoint of a softmax's input from its output ``s`` and output adjoint ``g``."""
    return s * (g - (g * s).sum(axis=axis, keepdims=True))


def log_softmax(a: Value, axis=-1) -> Value:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = Value(shifted - log_z, (a,))
    probs = np.exp(out.data)

    def backward():
        g = out.grad
        _accum(a, g - probs * g.sum(axis=axis, keepdims=True))

    out._backward = backward
    return out


def tau_softmax(a, tau: float, axis=-1):
    """Temperature softmax: softmax(a / tau); approaches one-hot as tau -> 0.

    A plain array in gives a plain array out; its input's adjoint is
    ``softmax_grad(g, s, axis) * (1.0 / tau)``, the two nodes' backward in turn.
    """
    if not 0.0 < tau <= 1.0:
        raise InputError(f"temperature must lie in (0, 1], got {tau}")
    return softmax(mul(a, 1.0 / tau) if isinstance(a, Value) else a * (1.0 / tau), axis=axis)


def vsum(a: Value, axis=None) -> Value:
    a = _wrap(a)
    out = Value(a.data.sum(axis=axis), (a,))

    def backward():
        g = out.grad
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    out._backward = backward
    return out


def vmean(a: Value, axis=None) -> Value:
    a = _wrap(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(vsum(a, axis=axis), 1.0 / count)


def _nll(pred: np.ndarray, idx, n: int):
    """Mean NLL of the probabilities ``pred[idx]``, floored so that underflow is a
    large loss and not an infinity, and ``n`` times its gradient over ``pred``."""
    picked = np.maximum(pred, _LOG_FLOOR)[idx]
    g = np.zeros_like(pred)
    g[idx] = -1.0 / picked  # one target per row, so no index repeats
    g[pred < _LOG_FLOOR] = 0.0
    return -np.log(picked).sum() / n, g


def _target_index(targets, shape):
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != shape[:-1]:
        raise InputError(f"targets shape {targets.shape} must match {shape[:-1]}")
    return tuple(np.indices(targets.shape)) + (targets,), max(targets.size, 1)


def cross_entropy(pred: Value, targets, from_logits: bool = False) -> Value:
    """Mean negative log-likelihood of integer targets under pred's last axis.

    ``pred`` holds probabilities by default (rows summing to one, see
    :func:`_nll`) or raw logits with ``from_logits=True``.
    """
    pred = _wrap(pred)
    idx, n = _target_index(targets, pred.data.shape)
    if from_logits:
        shifted = pred.data - pred.data.max(axis=-1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        logp = shifted - log_z
        loss = -logp[idx].sum() / n
        out = Value(loss, (pred,))
        probs = np.exp(logp)

        def backward_logits():
            g = np.array(probs)
            g[idx] -= 1.0
            _accum(pred, out.grad * g / n)

        out._backward = backward_logits
    else:
        loss, g = _nll(pred.data, idx, n)
        out = Value(loss, (pred,))

        def backward_probs():
            _accum(pred, out.grad * g / n)

        out._backward = backward_probs
    if not np.isfinite(out.data):
        raise NumericsError("cross_entropy produced a non-finite loss")
    return out


def dropout(a: Value, rate: float, rng: np.random.Generator) -> Value:
    """Inverted dropout; identity when rate is zero."""
    if rate <= 0.0:
        return a
    if rate >= 1.0:
        raise InputError("dropout rate must be below 1")
    a = _wrap(a)
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    return mul(a, mask)


def pmm_step(q: Value, p: Value, m) -> Value:
    """One probabilistic-machine transition: q'[o] = sum_i p[i] * (q @ M[i])[o].

    ``q`` is a state-probability row (``[Q]`` or batched ``[B, Q]``), ``p``
    a symbol-probability row (``[P]`` or ``[B, P]``) and ``m`` the
    ``[P, Q, Q]`` transition stack; a :func:`pmm_scan` of length one.
    """
    q, p = _wrap(q), _wrap(p)
    b = q.data.shape[0] if q.data.ndim == 2 else 1
    out = pmm_scan(reshape(q, (b, -1)), reshape(p, (b, 1, -1)), m)
    return reshape(out, q.data.shape)


def pmm_scan(q0, p, m) -> Value:
    """The whole probabilistic-machine recurrence as one graph node.

    ``q(t)[o] = sum_i p[:, t, i] * (q(t-1) @ M[i])[o]`` from ``q(-1) = q0``.
    ``q0`` is ``[B, Q]``, ``p`` is ``[B, T, P]`` and ``m`` the ``[P, Q, Q]``
    transition stack, either a constant array (machine known and frozen) or
    a Value (machine being learned); the result stacks q(0..T-1) as
    ``[B, T, Q]``.  Every step's matrix ``A(t) = sum_i p[:, t, i] * M[i]``
    comes from one matmul, so each step is a batched vector-matrix product.
    Backward is the reverse recursion of HMM forward-backward: one loop
    carries dL/dq(t) from T-1 down to 0, then the gradients of ``p`` and
    ``m`` follow from one product each.
    """
    q0_val = q0 if isinstance(q0, Value) else None
    p_val = p if isinstance(p, Value) else None
    m_val = m if isinstance(m, Value) else None
    q0_data = np.asarray(q0.data if q0_val is not None else q0, dtype=np.float64)
    p_data = np.asarray(p.data if p_val is not None else p, dtype=np.float64)
    m_data = np.asarray(m.data if m_val is not None else m, dtype=np.float64)
    ok = p_data.ndim == 3 and p_data.shape[1] >= 1 and q0_data.ndim == 2
    if not (ok and q0_data.shape[0] == p_data.shape[0]
            and m_data.shape == (p_data.shape[2],) + 2 * q0_data.shape[1:]):
        raise InputError(f"pmm_scan wants q0 [B, Q], p [B, T>=1, P] and m [P, Q, Q], got "
                         f"{q0_data.shape}, {p_data.shape} and {m_data.shape}")
    b, t_len, n_p = p_data.shape
    n_q = q0_data.shape[1]
    p_flat = p_data.reshape(b * t_len, n_p)
    m_flat = m_data.reshape(n_p, n_q * n_q)
    a = (p_flat @ m_flat).reshape(b, t_len, n_q, n_q)  # A(t) = sum_i p[:, t, i] * M[i]
    qs = np.empty((t_len + 1, b, 1, n_q))  # qs[t] = q(t-1), one row per sequence
    qs[0, :, 0] = q0_data
    for t in range(t_len):
        np.matmul(qs[t], a[:, t], out=qs[t + 1])
    parents = tuple(v for v in (q0_val, p_val, m_val) if v is not None)
    out = Value(np.ascontiguousarray(qs[1:, :, 0].swapaxes(0, 1)), parents)

    def backward():
        g = out.grad
        carried = np.empty((t_len, b, n_q, 1))  # carried[t] = dL/dq(t), one column per sequence
        carried[-1, :, :, 0] = g[:, -1]
        for t in range(t_len - 1, 0, -1):
            np.matmul(a[:, t], carried[t], out=carried[t - 1])
            carried[t - 1, :, :, 0] += g[:, t - 1]
        g_all = carried[..., 0].swapaxes(0, 1)  # [B, T, Q]: dL/dq(t)
        q_prev = qs[:-1, :, 0].swapaxes(0, 1)  # [B, T, Q]: q(t-1)
        # dL/dA(t)[q, o] = q(t-1)[q] * dL/dq(t)[o], one [B*T, Q*Q] row per step
        g_a = (q_prev[..., :, None] * g_all[..., None, :]).reshape(b * t_len, n_q * n_q)
        if p_val is not None:
            _accum(p_val, (g_a @ m_flat.T).reshape(b, t_len, n_p))
        if m_val is not None:
            _accum(m_val, (p_flat.T @ g_a).reshape(m_data.shape))
        if q0_val is not None:
            _accum(q0_val, (a[:, 0] @ carried[0])[..., 0])

    out._backward = backward
    return out


def lstm_cell(x, h, c, wx, wh, b):
    """One LSTM step on plain arrays; gates [i, f, g, o] fused in ``wx``, ``wh``, ``b``.

    Returns the new ``h`` and ``c`` and the activations (i, f, g, o,
    tanh(c)) that :func:`lstm_backward` reads.
    """
    z = ((x @ wx + h @ wh) + b).reshape(4, -1)
    i, f, _, o = 1.0 / (1.0 + np.exp(-z))  # one pass over all four rows; row 2 is unused
    g = np.tanh(z[2])
    c = f * c + i * g
    tc = np.tanh(c)
    return o * tc, c, (i, f, g, o, tc)


def lstm_backward(states, xs, dh, wx: Value, wh: Value, b: Value) -> np.ndarray:
    """Backprop through one LSTM layer's window; returns the adjoint of ``xs``.

    ``states`` are the layer's ``T + 1`` states ``(h, c, acts)`` that
    :func:`lstm_cell` made over the ``[T, in]`` inputs ``xs`` from a constant
    boundary state, and ``dh`` is the ``[T, H]`` adjoint of their ``h``: BPTT
    truncated at the window's start, with no forward.  One reverse loop carries
    dL/dh and dL/dc into the ``[T, 4H]`` gate grads ``dz``; the grads of ``b``,
    ``wh``, ``wx`` (into their ``.grad``) and ``xs`` follow from one product each.
    """
    t_len, n_h = len(states) - 1, wh.data.shape[0]
    xs, dh = np.asarray(xs, dtype=np.float64), np.asarray(dh, dtype=np.float64)
    if xs.shape != (t_len, wx.data.shape[0]) or dh.shape != (t_len, n_h) or t_len == 0:
        raise InputError(f"lstm_backward wants xs [{t_len}>=1, {wx.data.shape[0]}] and dh "
                         f"[{t_len}, {n_h}], got {xs.shape} and {dh.shape}")
    hs, cs, acts = zip(*states)
    dz = np.empty((t_len, b.data.size))  # dL/dz(t), z the fused gate input
    dh_next = dc_next = 0.0
    for t in range(t_len - 1, -1, -1):
        i, f, g, o, tc = acts[t + 1]
        dh_t = dh[t] + dh_next
        dc = dh_t * o * (1.0 - tc**2) + dc_next
        dz_t = dz[t].reshape(4, -1)
        dz_t[0] = dc * g * i * (1.0 - i)
        dz_t[1] = dc * cs[t] * f * (1.0 - f)
        dz_t[2] = dc * i * (1.0 - g**2)
        dz_t[3] = dh_t * tc * o * (1.0 - o)
        dh_next = dz[t] @ wh.data.T
        dc_next = dc * f
    _accum(b, dz.sum(axis=0))
    _accum(wh, np.stack(hs[:-1]).T @ dz)
    _accum(wx, xs.T @ dz)
    return dz @ wx.data.T


# ---------------------------------------------------------------------------
# optimization


class Adam:
    """Adam over a list of Value parameters, all stored in two flat vectors.

    Construction copies the parameters into one ``data`` vector, gives them
    one zeroed ``grad`` vector, and rebinds each ``Value.data`` and
    ``Value.grad`` to a reshaped view of its slice.  A backward pass then
    accumulates straight into ``grad``: ``_accum`` adds into a parameter's
    view and never makes its first-write copy.  ``zero_grad``, ``step`` and
    :func:`clip_grad_norm` are single vector ops.  A Value keeps its views
    only while nothing rebinds ``.data`` or ``.grad``, and belongs to the
    latest Adam built over it.

    A parameter that no backward reached in a step has a zero grad, not
    None: its moments decay and it moves by momentum alone, as textbook
    Adam does on a zero gradient.  A parameter that has never had a
    nonzero grad stays where it is, because its moments are still zero.
    """

    def __init__(self, params, lr=4e-4):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        n = sum(p.data.size for p in self.params)
        self.data, self.grad, self.m, self.v = (np.zeros(n) for _ in range(4))
        # step's scratch: allocating it per step doubled step's time for the agents' nets
        self._upd, self._den = np.empty(n), np.empty(n)
        a = 0
        for p in self.params:
            b = a + p.data.size
            self.data[a:b] = p.data.ravel()
            p.data = self.data[a:b].reshape(p.data.shape)
            p.grad = self.grad[a:b].reshape(p.data.shape)
            a = b

    def zero_grad(self):
        self.grad.fill(0.0)

    def step(self):
        self.step_count += 1
        t = self.step_count
        g, m, v, upd, den = self.grad, self.m, self.v, self._upd, self._den
        # The textbook update, operation for operation, in place:
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        # upd = lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).
        m *= _BETA1
        np.multiply(g, 1.0 - _BETA1, out=upd)
        m += upd
        v *= _BETA2
        np.multiply(g, 1.0 - _BETA2, out=upd)
        upd *= g
        v += upd
        np.divide(m, 1.0 - _BETA1**t, out=upd)
        upd *= self.lr
        np.divide(v, 1.0 - _BETA2**t, out=den)
        np.sqrt(den, out=den)
        den += _EPS
        upd /= den
        self.data -= upd


def clip_grad_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale a flat gradient vector (``Adam.grad``) in place to L2 norm at most max_norm.

    The squared norm is one ``einsum`` reduction rather than ``grad @ grad``:
    a BLAS dot would start its own threads inside each training worker.
    """
    norm = float(np.sqrt(np.einsum("i,i->", grad, grad)))
    if norm > max_norm and norm > 0.0:
        grad *= max_norm / norm
    return norm


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Fan one root seed out to n independent generators."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]
