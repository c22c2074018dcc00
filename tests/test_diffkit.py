import numpy as np
import pytest

from helpers import (
    assert_grad_close,
    chained_lstm_cell,
    gather_rows,
    list_pmm_scan,
    numeric_grad,
    step_states,
)
from rmkit.diffkit import (
    Adam,
    Value,
    add,
    clip_grad_norm,
    concat,
    cross_entropy,
    dropout,
    log_softmax,
    lstm_backward,
    matmul,
    mlp,
    mul,
    pmm_step,
    relu,
    reshape,
    sigmoid,
    softmax,
    spawn_rngs,
    stack,
    take,
    tanh,
    tau_softmax,
    vmean,
    vsum,
)
from rmkit.errors import InputError, NumericsError
from rmkit.networks import LSTM
from rmkit.nrm import ProbMachineParams, forward_batch


def check_op(build, *shapes, seed=0, rtol=1e-4):
    """Compare analytic grads of a scalar-valued op composition to central differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    leaves = [Value(a.copy()) for a in arrays]
    out = build(*leaves)
    out.backward()
    for i, a in enumerate(arrays):
        def f(x, i=i):
            vals = [Value(arr.copy()) for arr in arrays]
            vals[i] = Value(x.copy())
            return build(*vals).item()

        assert_grad_close(leaves[i].grad, numeric_grad(f, a.copy()), rtol=rtol)


class TestGradients:
    def test_add_broadcast(self):
        check_op(lambda a, b: vsum(mul(add(a, b), add(a, b))), (3, 4), (4,))

    def test_mul(self):
        check_op(lambda a, b: vsum(mul(a, b)), (2, 3), (2, 3))

    def test_matmul(self):
        check_op(lambda a, b: vsum(matmul(a, b)), (3, 4), (4, 2))

    def test_vecmat(self):
        check_op(lambda a, b: vsum(matmul(a, b)), (4,), (4, 2))

    def test_tanh_relu_sigmoid(self):
        check_op(lambda a: vsum(tanh(a)), (5,))
        check_op(lambda a: vsum(mul(relu(a), a)), (5,), seed=3)
        check_op(lambda a: vsum(sigmoid(a)), (5,))

    def test_softmax(self):
        check_op(lambda a: vsum(mul(softmax(a), np.arange(4.0))), (3, 4))

    def test_log_softmax(self):
        check_op(lambda a: vsum(mul(log_softmax(a), np.arange(4.0))), (3, 4))

    @pytest.mark.parametrize("tau", [1.0, 0.5, 0.1])
    def test_tau_softmax(self, tau):
        check_op(lambda a: vsum(mul(tau_softmax(a, tau), np.arange(3.0))), (2, 3))

    def test_concat_stack_reshape_take(self):
        check_op(lambda a, b: vsum(mul(concat([a, b], axis=0), concat([a, b], axis=0))), (2, 3), (1, 3))
        check_op(lambda a, b: vsum(mul(stack([a, b]), stack([a, b]))), (3,), (3,))
        check_op(lambda a: vsum(mul(reshape(a, (6,)), np.arange(6.0))), (2, 3))
        check_op(lambda a: vsum(mul(take(a, 1, axis=0), np.arange(3.0))), (2, 3))

    def test_mean(self):
        check_op(lambda a: vmean(mul(a, a)), (4, 3))

    def test_cross_entropy_probs(self):
        targets = np.array([0, 2, 1])

        def build(a):
            return cross_entropy(softmax(a), targets)

        check_op(build, (3, 4))

    def test_cross_entropy_logits(self):
        targets = np.array([1, 3])
        check_op(lambda a: cross_entropy(a, targets, from_logits=True), (2, 4))

    def test_pmm_step_unbatched(self):
        def build(q, p, m):
            return vsum(mul(pmm_step(softmax(q), softmax(p), softmax(m, axis=-1)), np.arange(3.0)))

        check_op(build, (3,), (2,), (2, 3, 3))

    def test_pmm_step_batched(self):
        def build(q, p, m):
            return vsum(mul(pmm_step(softmax(q), softmax(p), softmax(m, axis=-1)), 0.7))

        check_op(build, (4, 3), (4, 2), (2, 3, 3))

    def test_pmm_step_constant_machine(self):
        m_const = np.random.default_rng(9).dirichlet(np.ones(3), size=(2, 3))

        def build(q, p):
            return vsum(mul(pmm_step(softmax(q), softmax(p), m_const), np.arange(3.0)))

        check_op(build, (3,), (2,))

    @pytest.mark.parametrize("frozen", [True, False])
    def test_forward_batch(self, frozen):
        """B=3, T=4 from a mixed q0: into the symbol rows and, when the machine
        learns, into its transition and reward logits."""
        rng = np.random.default_rng(12)
        q0, weights = rng.dirichlet(np.ones(3)), rng.standard_normal((3, 4, 2))
        mt, mr = Value(rng.dirichlet(np.ones(3), size=(2, 3))), Value(rng.dirichlet(np.ones(2), size=3))

        def build(p, mt=mt, mr=mr):
            params = ProbMachineParams(("a", "b"), (0, 1), mt, mr, q0, tau=0.7, frozen=frozen)
            traces = forward_batch(params, lambda x: softmax(p), np.zeros((3, 4, 1)))
            return vsum(mul(traces.rewards, weights))

        check_op(build, (12, 2), *(() if frozen else ((2, 3, 3), (3, 2))))

    @pytest.mark.parametrize("acts", [("tanh", None), (None, "softmax"), ("tanh", "softmax")])
    @pytest.mark.parametrize("x_shape", [(4,), (3, 4)])
    def test_mlp(self, acts, x_shape):
        weights = np.arange(5.0) - 2.0

        def build(x, w1, b1, w2, b2):
            return vsum(mul(mlp(x, [(w1, b1), (w2, b2)], acts), weights))

        check_op(build, x_shape, (4, 6), (6,), (6, 5), (5,))

    def test_dropout_gradient(self):
        # re-seeding inside the build keeps the mask fixed across evaluations
        def build(a):
            return vsum(mul(dropout(a, 0.4, np.random.default_rng(77)), a))

        check_op(build, (4, 5))


class TestPmmScan:
    """The machine recurrence as a chain of graph ops: ``pmm_step`` and ``nrm.forward_batch``."""

    def test_forward_batch_matches_chained_steps(self):
        rng = np.random.default_rng(13)
        q0, p = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(2), size=(3, 6))
        m, weights = rng.standard_normal((2, 4, 4)), rng.standard_normal((3, 6, 4))
        batch_leaves = [Value(p.copy()), Value(m.copy())]
        params = ProbMachineParams(("a", "b"), (0,), batch_leaves[1], Value(np.ones((4, 1))), q0,
                                   tau=0.5, frozen=False)
        batched = forward_batch(params, lambda x: reshape(batch_leaves[0], (18, 2)),
                                np.zeros((3, 6, 1))).states
        vsum(mul(batched, weights)).backward()
        step_leaves = [Value(p.copy()), Value(m.copy())]
        q, m_eff, rows = np.broadcast_to(q0, (3, 4)), tau_softmax(step_leaves[1], 0.5), []
        for t in range(6):
            q = pmm_step(q, take(step_leaves[0], t, axis=1), m_eff)
            rows.append(q)
        chained = stack(rows, axis=1)
        vsum(mul(chained, weights)).backward()
        # the same products per step; the grads sum their terms in another order
        assert np.array_equal(batched.data, chained.data)
        for new, ref in zip(batch_leaves, step_leaves):
            assert np.allclose(new.grad, ref.grad, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("learnable", [False, True])
    def test_matches_list_reference_bitwise(self, learnable):
        """forward_batch's states against the fused node that pins nrm._GroupFit's bits."""
        rng = np.random.default_rng(15)
        for b, t_len, n_q, n_p in ((1, 1, 3, 2), (3, 6, 4, 2), (7, 15, 5, 5), (2, 40, 8, 3)):
            q0, p = rng.dirichlet(np.ones(n_q)), rng.dirichlet(np.ones(n_p), size=(b * t_len))
            m = rng.standard_normal((n_p, n_q, n_q)) if learnable else rng.dirichlet(
                np.ones(n_q), size=(n_p, n_q))
            params = ProbMachineParams(tuple("abcde"[:n_p]), (0,), Value(m), Value(np.ones((n_q, 1))),
                                       q0, tau=0.6, frozen=not learnable)
            states = forward_batch(params, lambda x: Value(p), np.zeros((b, t_len, 1))).states
            mt = params.machine_tensors()[0]
            ref = list_pmm_scan(np.broadcast_to(q0, (b, n_q)).copy(), p.reshape(b, t_len, n_p),
                                mt.data if learnable else mt)
            assert np.array_equal(states.data, ref.data)

    def test_shape_mismatch(self):
        m = np.ones((2, 3, 3)) / 3.0
        with pytest.raises(InputError, match="pmm_step wants"):
            pmm_step(np.ones((4, 3)), np.ones((4, 1, 2)), m)
        with pytest.raises(InputError, match="pmm_step wants"):
            pmm_step(np.ones((2, 3)), np.ones((4, 2)), m)
        with pytest.raises(InputError, match="pmm_step wants"):
            pmm_step(np.ones((4, 3)), np.ones((4, 3)), m)
        with pytest.raises(InputError, match="pmm_step wants"):
            pmm_step(np.ones((4, 3)), np.ones((4, 0)), m)
        with pytest.raises(InputError, match="pmm_step wants"):
            pmm_step(np.ones(4), np.ones(2), m)


class TestLstmBackward:
    @staticmethod
    def _net_and_state(layers, seed):
        rng = np.random.default_rng(seed)
        net = LSTM(rng, 3, hidden=4, layers=layers)
        for p in net.params():  # nonzero biases reach every gate branch
            p.data = rng.standard_normal(p.data.shape) * 0.7
        state = [(rng.standard_normal(4) * 0.5, rng.standard_normal(4), None) for _ in net.cells]
        return net, state

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("t_len", [1, 2, 3, 4, 5])
    def test_gradcheck(self, layers, t_len):
        net, state = self._net_and_state(layers, 10 * layers + t_len)
        rng = np.random.default_rng(t_len)
        xs = rng.standard_normal((t_len, 3))
        weights = rng.standard_normal((t_len, 4))

        def loss(xs):
            # steps again at every perturbation, so the backward is checked
            # against the forward whose activations it reads
            return (np.stack([s[-1][0] for s in step_states(net, state, xs)[1:]]) * weights).sum()

        dxs = net.backward(step_states(net, state, xs), xs, weights)
        assert_grad_close(dxs, numeric_grad(loss, xs.copy()), rtol=1e-4)
        for p in net.params():
            def f(arr, p=p):
                saved = p.data
                p.data = arr
                out = loss(xs)
                p.data = saved
                return out

            assert_grad_close(p.grad, numeric_grad(f, p.data.copy()), rtol=1e-4)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_matches_chained_cell(self, layers):
        net, state = self._net_and_state(layers, 30 + layers)
        rng = np.random.default_rng(31)
        xs = rng.standard_normal((5, 3))
        weights = rng.standard_normal((5, 4))
        stepped = step_states(net, state, xs)
        dxs = net.backward(stepped, xs, weights)
        grads = [p.grad for p in net.params()] + [dxs]
        for p in net.params():
            p.grad = None
        chain_in = [Value(x.copy()) for x in xs]
        states = [(Value(h.copy()), Value(c.copy())) for h, c, _ in state]
        rows = []
        for x in chain_in:
            for k, cell in enumerate(net.cells):
                states[k] = chained_lstm_cell(cell, x, states[k])
                x = states[k][0]
            rows.append(x)
        chained = stack(rows)
        vsum(mul(chained, weights)).backward()
        chain_grads = [p.grad for p in net.params()] + [np.stack([x.grad for x in chain_in])]
        # the acting steps the backward reads run the chained cell's forward bit for bit
        assert np.array_equal(np.stack([s[-1][0] for s in stepped[1:]]), chained.data)
        # the backward sums each weight grad once per window, the chain once
        # per step, so the grads agree up to summation order
        for a, b in zip(grads, chain_grads):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_runs_no_cell(self, monkeypatch):
        from rmkit import diffkit, networks
        from rmkit.training import _LSTMFeatures

        calls = []
        cell = diffkit.lstm_cell
        monkeypatch.setattr(networks, "lstm_cell", lambda *a: calls.append(1) or cell(*a))
        monkeypatch.setattr(diffkit, "lstm_cell", lambda *a: calls.append(1) or cell(*a))
        rng = np.random.default_rng(41)
        features = _LSTMFeatures(np.random.default_rng(42))
        features.reset(rng.random(2))
        for _ in range(4):
            features.step(rng.random(2))
        assert len(calls) == 2 * 5  # acting: one call per layer per step
        calls.clear()
        features.backward(np.ones((5, features.dim)))
        assert calls == []

    def test_shape_mismatch(self):
        net, state = self._net_and_state(1, 0)
        cell = net.cells[0]
        layer = [s[0] for s in step_states(net, state, np.zeros((2, 3)))]
        dh = np.zeros((2, 4))
        for states, xs, g in ((layer, np.zeros((2, 2)), dh), (layer, np.zeros(3), dh),
                              (layer, np.zeros((1, 3)), dh), (layer, np.zeros((3, 3)), dh),
                              (layer[:1], np.zeros((0, 3)), dh[:0]),
                              (layer, np.zeros((2, 3)), np.zeros(4)),
                              (layer, np.zeros((2, 3)), np.zeros((3, 4)))):
            with pytest.raises(InputError):
                lstm_backward(states, xs, g, cell.wx, cell.wh, cell.b)


class TestGatherRows:
    """The ``gather_rows`` node of the graph reference in ``helpers.graph_epoch``."""

    def test_gradcheck(self):
        index = np.array([2, 0, 2, 1, 2, 0])
        weights = np.random.default_rng(41).standard_normal((6, 4))
        check_op(lambda a: vsum(mul(gather_rows(softmax(a), index), weights)), (3, 4))

    def test_rows_and_summed_grads(self):
        a = Value(np.arange(6.0).reshape(3, 2))
        out = gather_rows(a, np.array([1, 1, 0]))
        assert np.array_equal(out.data, [[2.0, 3.0], [2.0, 3.0], [0.0, 1.0]])
        vsum(out).backward()
        assert np.array_equal(a.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])


class TestMlp:
    @pytest.mark.parametrize("acts", [("tanh",), (None,), ("softmax",), ("tanh", "tanh", None),
                                      ("tanh", None, "softmax")])
    @pytest.mark.parametrize("x_shape", [(4,), (3, 4)])
    def test_matches_chained_ops_bitwise(self, acts, x_shape):
        rng = np.random.default_rng(17)
        sizes = (4, 6, 6, 5)[:len(acts)] + (5,)
        arrays = [rng.standard_normal(x_shape)]
        for n_in, n_out in zip(sizes, sizes[1:]):
            arrays += [rng.standard_normal((n_in, n_out)), rng.standard_normal(n_out)]
        weights = rng.standard_normal(x_shape[:-1] + (5,))
        fused_leaves = [Value(a.copy()) for a in arrays]
        x, *wb = fused_leaves
        fused = mlp(x, list(zip(wb[::2], wb[1::2])), acts)
        vsum(mul(fused, weights)).backward()
        chain_leaves = [Value(a.copy()) for a in arrays]
        chained, *wb = chain_leaves
        for w, b, act in zip(wb[::2], wb[1::2], acts):
            chained = add(matmul(chained, w), b)
            if act == "tanh":
                chained = tanh(chained)
            elif act == "softmax":
                chained = softmax(chained)
        vsum(mul(chained, weights)).backward()
        assert np.array_equal(fused.data, chained.data)
        for a, c in zip(fused_leaves, chain_leaves):
            assert np.array_equal(a.grad, c.grad)

    @pytest.mark.parametrize("act", ["tanh", None, "softmax"])
    def test_array_in_array_out(self, act):
        rng = np.random.default_rng(19)
        w, b = Value(rng.standard_normal((4, 5))), Value(rng.standard_normal(5))
        for x in (rng.standard_normal(4), rng.standard_normal((3, 4))):
            out = mlp(x, [(w, b)], (act,))
            assert isinstance(out, np.ndarray)
            assert np.array_equal(out, mlp(Value(x), [(w, b)], (act,)).data)
        assert w.grad is None and b.grad is None

    def test_shape_mismatch(self):
        w, b = Value(np.zeros((4, 5))), Value(np.zeros(5))
        for x in (np.zeros(3), np.zeros((2, 2, 4))):
            for arg in (x, Value(x)):
                with pytest.raises(InputError):
                    mlp(arg, [(w, b)], (None,))

    def test_softmax_array_in_array_out(self):
        rng = np.random.default_rng(23)
        for x in (rng.standard_normal(4), rng.standard_normal((3, 4)) * 5):
            for axis in (-1, 0):
                for op in (softmax, lambda a, axis: tau_softmax(a, 0.3, axis=axis)):
                    out = op(x, axis=axis)
                    assert isinstance(out, np.ndarray)
                    assert np.array_equal(out, op(Value(x), axis=axis).data)


class TestForwardValues:
    def test_softmax_of_zeros_is_uniform(self):
        out = softmax(Value(np.zeros(3)))
        assert np.allclose(out.data, 1.0 / 3.0)

    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = Value(rng.standard_normal((4, 5)) * 3)
            for probs in (softmax(x), tau_softmax(x, 0.3)):
                assert np.allclose(probs.data.sum(axis=-1), 1.0, atol=1e-9)
                assert (probs.data >= 0).all()

    def test_cross_entropy_of_uniform(self):
        pred = Value(np.full((1, 4), 0.25))
        assert np.isclose(cross_entropy(pred, np.array([2])).item(), np.log(4.0))

    def test_tau_near_zero_approaches_onehot(self):
        out = tau_softmax(Value(np.array([2.0, 0.0, 0.0])), 0.05)
        assert out.data.max() > 1.0 - 1e-9

    def test_tau_validation(self):
        with pytest.raises(InputError):
            tau_softmax(Value(np.zeros(3)), 0.0)
        with pytest.raises(InputError):
            tau_softmax(Value(np.zeros(3)), 1.5)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(InputError):
            matmul(Value(np.zeros((2, 3))), Value(np.zeros((4, 2))))

    def test_nan_loss_raises(self):
        bad = Value(np.array(np.nan))
        with pytest.raises(NumericsError):
            bad.backward()

    def test_backward_needs_scalar(self):
        with pytest.raises(InputError):
            Value(np.zeros(3)).backward()

    def test_grad_accumulates_over_reuse(self):
        x = Value(np.array(2.0))
        y = add(mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1 = 5
        y.backward()
        assert np.isclose(x.grad, 5.0)

    def test_backward_releases_graph(self):
        x = Value(np.array([0.5, -1.0, 2.0]))
        h = tanh(x)
        loss = vsum(mul(h, h))
        loss.backward()
        assert np.allclose(x.grad, 2.0 * np.tanh(x.data) * (1.0 - np.tanh(x.data) ** 2))
        for node in (loss, h):
            assert node._parents == () and node._backward is None

    def test_backward_deterministic(self):
        def run():
            rng = np.random.default_rng(11)
            x = Value(rng.standard_normal((3, 4)))
            loss = cross_entropy(softmax(x), np.array([0, 1, 2]))
            loss.backward()
            return x.grad.copy()

        assert np.array_equal(run(), run())

    def test_dropout_identity_when_off(self):
        x = Value(np.ones((2, 2)))
        assert dropout(x, 0.0, np.random.default_rng(0)) is x


class TestAdam:
    def test_zero_grad_leaves_params(self):
        p = Value(np.array([1.0, -2.0]))
        opt = Adam([p])
        before = p.data.copy()
        opt.step()  # no grads recorded
        assert np.array_equal(p.data, before)

    def test_single_step_descends_quadratic(self):
        w = Value(np.array(1.0))
        opt = Adam([w], lr=0.1)
        loss = mul(w, w)
        loss.backward()
        opt.step()
        assert abs(w.data) < 1.0

    def test_converges_on_two_var_quadratic(self):
        w = Value(np.array([3.0, -2.0]))
        opt = Adam([w], lr=0.01)
        for _ in range(2000):
            opt.zero_grad()
            loss = vsum(mul(w, w))
            loss.backward()
            opt.step()
        assert np.abs(w.data).max() < 1e-3

    def test_matches_per_tensor_reference_bitwise(self):
        rng = np.random.default_rng(21)
        shapes = [(3, 4), (4,), (), (2, 2, 3)]
        init = [rng.standard_normal(s) for s in shapes]
        params = [Value(a.copy()) for a in init]
        ref = [a.copy() for a in init]
        ref_m = [np.zeros_like(a) for a in init]
        ref_v = [np.zeros_like(a) for a in init]
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr)
        for t in range(1, 21):
            opt.zero_grad()
            for i, p in enumerate(params):
                # parameter 1 never gets a gradient, parameter 3 only on odd steps;
                # a skipped grad stays zero from zero_grad
                if i == 1:
                    continue
                if i == 3 and t % 2 == 0:
                    g = np.zeros(shapes[i])
                else:
                    g = rng.standard_normal(shapes[i])
                    p.grad[...] = g
                ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
                ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * g * g
                m_hat = ref_m[i] / (1.0 - b1**t)
                v_hat = ref_v[i] / (1.0 - b2**t)
                ref[i] = ref[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            opt.step()
            for p, r in zip(params, ref):
                assert np.array_equal(p.data, r)
        assert opt.step_count == 20
        assert np.array_equal(params[1].data, init[1])

    def test_params_and_grads_are_views_of_the_flat_vectors(self):
        w, b = Value(np.arange(6.0).reshape(2, 3)), Value(np.array([1.0, -1.0, 0.5]))
        init = [w.data.copy(), b.data.copy()]
        opt = Adam([w, b], lr=0.1)
        assert np.array_equal(opt.data, np.concatenate([a.ravel() for a in init]))
        opt.zero_grad()
        vsum(matmul(Value(np.ones((1, 2))), w) + b).backward()
        opt.step()
        for p, a in zip((w, b), init):
            assert p.data.shape == a.shape and p.grad.shape == a.shape
            assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad, opt.grad)
            assert not np.array_equal(p.data, a)
        assert np.array_equal(opt.grad, np.ones(9))
        assert np.array_equal(opt.data, np.concatenate([w.data.ravel(), b.data]))

    def test_take_grads_land_in_the_flat_grad(self):
        w = Value(np.arange(6.0).reshape(2, 3))
        opt = Adam([Value(np.zeros(2)), w])
        opt.zero_grad()
        (vsum(mul(take(w, 1), np.array([1.0, 2.0, 3.0]))) + vsum(take(w, 2, axis=1))).backward()
        assert np.array_equal(opt.grad, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 4.0])
        assert np.shares_memory(w.grad, opt.grad)

    def test_empty_parameter_list_is_a_no_op(self):
        opt = Adam([])
        opt.zero_grad()
        opt.step()
        assert opt.data.shape == opt.grad.shape == (0,) and opt.step_count == 1
        assert clip_grad_norm(opt.grad, 1.0) == 0.0

    def test_clip_grad_norm(self):
        grad = np.array([3.0, 4.0, 0.0])
        norm = clip_grad_norm(grad, 1.0)
        assert np.isclose(norm, 5.0)
        assert np.isclose(np.sqrt((grad**2).sum()), 1.0)


class TestSeeding:
    def test_spawned_rngs_independent_and_reproducible(self):
        a1, b1 = spawn_rngs(123, 2)
        a2, b2 = spawn_rngs(123, 2)
        assert a1.random() == a2.random()
        assert b1.random() == b2.random()
        assert spawn_rngs(123, 2)[0].random() != spawn_rngs(124, 2)[0].random()
