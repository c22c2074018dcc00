"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Each op computes its forward value eagerly and records a closure that
scatters the output adjoint back to its parents; ``Value.backward`` runs
the recorded graph in reverse topological order and then releases it.
Shapes up to three axes are supported, which covers everything the package
needs: MLPs, LSTM cells, and the probabilistic machine recurrence.
Non-finite numbers are surfaced as :class:`~rmkit.errors.NumericsError`
when a loss is reduced or differentiated, not silently propagated.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericsError

_LOG_FLOOR = 1e-12  # probability floor inside cross_entropy's log


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

    def detach(self) -> "Value":
        return Value(self.data.copy())

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
            for parent in node._parents:
                if id(parent) not in visited:
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


def softmax(a: Value, axis=-1) -> Value:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Value(s, (a,))

    def backward():
        g = out.grad
        dot = (g * s).sum(axis=axis, keepdims=True)
        _accum(a, s * (g - dot))

    out._backward = backward
    return out


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


def tau_softmax(a: Value, tau: float, axis=-1) -> Value:
    """Temperature softmax: softmax(a / tau); approaches one-hot as tau -> 0."""
    if not 0.0 < tau <= 1.0:
        raise InputError(f"temperature must lie in (0, 1], got {tau}")
    return softmax(mul(a, 1.0 / tau), axis=axis)


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


def cross_entropy(pred: Value, targets, from_logits: bool = False) -> Value:
    """Mean negative log-likelihood of integer targets under pred's last axis.

    ``pred`` holds probabilities by default (rows summing to one) or raw
    logits with ``from_logits=True``.  Probabilities are floored before the
    log so that underflow surfaces as a large loss rather than an infinity.
    """
    pred = _wrap(pred)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != pred.data.shape[:-1]:
        raise InputError(f"targets shape {targets.shape} must match {pred.data.shape[:-1]}")
    n = max(targets.size, 1)
    idx = tuple(np.indices(targets.shape)) + (targets,)
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
        clipped = np.maximum(pred.data, _LOG_FLOOR)
        loss = -np.log(clipped[idx]).sum() / n
        out = Value(loss, (pred,))

        def backward_probs():
            g = np.zeros_like(pred.data)
            picked = clipped[idx]
            np.add.at(g, idx, -1.0 / picked)
            g[pred.data < _LOG_FLOOR] = 0.0
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
    ``[B, T, Q]``.  Backward is the reverse recursion of HMM
    forward-backward: one loop carries dL/dq(t) from T-1 down to 0, then the
    gradients of ``p``, ``m`` and ``q0`` follow for all steps at once.
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
    t_len = p_data.shape[1]
    pt = np.ascontiguousarray(p_data.transpose(1, 0, 2))  # [T, B, P], one row block per step
    qs = [q0_data]  # qs[t] = q(t-1)
    for t in range(t_len):
        qs.append(np.einsum("bi,bq,iqo->bo", pt[t], qs[t], m_data))
    parents = tuple(v for v in (q0_val, p_val, m_val) if v is not None)
    out = Value(np.stack(qs[1:], axis=1), parents)

    def backward():
        g = out.grad
        gq = g[:, -1].copy()  # dL/dq(T-1), contiguous like every later carry
        carried = [gq]
        for t in range(t_len - 1, 0, -1):
            gq = g[:, t - 1] + np.einsum("bi,iqo,bo->bq", pt[t], m_data, gq)
            carried.append(gq)
        g_all = np.stack(carried[::-1])  # [T, B, Q]: dL/dq(t)
        q_prev = np.stack(qs[:-1])  # [T, B, Q]: q(t-1)
        if p_val is not None:
            gp = np.einsum("tbq,iqo,tbo->tbi", q_prev, m_data, g_all)
            _accum(p_val, gp.transpose(1, 0, 2))
        if m_val is not None:
            _accum(m_val, np.einsum("tbi,tbq,tbo->iqo", pt, q_prev, g_all))
        if q0_val is not None:
            _accum(q0_val, np.einsum("bi,iqo,bo->bq", pt[0], m_data, g_all[0]))

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# optimization


class Adam:
    """Adam over a list of Value parameters, moments kept as flat vectors.

    Parameter ``i`` owns the slice ``[bounds[i], bounds[i + 1])`` of ``m``
    and ``v``.  A step leaves a parameter whose grad is None untouched,
    moments included.
    """

    def __init__(self, params, lr=4e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.bounds = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self.m = np.zeros(self.bounds[-1])
        self.v = np.zeros(self.bounds[-1])
        self._work = np.empty((3, self.bounds[-1]))  # grads, update, denominator

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        live = [i for i, p in enumerate(self.params) if p.grad is not None]
        if not live:
            return
        grads = [self.params[i].grad.ravel() for i in live]
        if len(live) == len(self.params):
            sel = None
            g, upd, den = self._work
            np.concatenate(grads, out=g)
            m, v = self.m, self.v
        else:
            sel = np.concatenate([np.arange(self.bounds[i], self.bounds[i + 1]) for i in live])
            g = np.concatenate(grads)
            upd, den = np.empty_like(g), np.empty_like(g)
            m, v = self.m[sel], self.v[sel]
        # The textbook update, operation for operation, in place: bits match
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        # upd = lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=upd)
        m += upd
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=upd)
        upd *= g
        v += upd
        if sel is not None:
            self.m[sel] = m
            self.v[sel] = v
        np.divide(m, 1.0 - self.beta1**t, out=upd)
        upd *= self.lr
        np.divide(v, 1.0 - self.beta2**t, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        upd /= den
        a = 0
        for i in live:
            p = self.params[i]
            b = a + p.data.size
            p.data -= upd[a:b].reshape(p.data.shape)
            a = b


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale all gradients down so their joint L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Fan one root seed out to n independent generators."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]
