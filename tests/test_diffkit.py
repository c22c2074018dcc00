import numpy as np
import pytest

from helpers import assert_grad_close, numeric_grad
from rmkit.diffkit import (
    Adam,
    Value,
    add,
    clip_grad_norm,
    concat,
    cross_entropy,
    dropout,
    log_softmax,
    matmul,
    mul,
    pmm_scan,
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

    def test_pmm_scan_constant_machine(self):
        m_const = np.random.default_rng(9).dirichlet(np.ones(3), size=(2, 3))
        q0 = np.random.default_rng(10).dirichlet(np.ones(3), size=4)
        weights = np.random.default_rng(11).standard_normal((4, 5, 3))

        def build(p):
            return vsum(mul(pmm_scan(q0, softmax(p), m_const), weights))

        check_op(build, (4, 5, 2))

    def test_pmm_scan_learnable_everything(self):
        weights = np.random.default_rng(12).standard_normal((3, 4, 3))

        def build(q, p, m):
            return vsum(mul(pmm_scan(softmax(q), softmax(p), softmax(m, axis=-1)), weights))

        check_op(build, (3, 3), (3, 4, 2), (2, 3, 3))

    def test_dropout_gradient(self):
        # re-seeding inside the build keeps the mask fixed across evaluations
        def build(a):
            return vsum(mul(dropout(a, 0.4, np.random.default_rng(77)), a))

        check_op(build, (4, 5))


class TestPmmScan:
    def test_matches_chained_steps(self):
        rng = np.random.default_rng(13)
        q0 = rng.dirichlet(np.ones(4), size=3)
        p = rng.dirichlet(np.ones(2), size=(3, 6))
        m = rng.dirichlet(np.ones(4), size=(2, 4))
        weights = rng.standard_normal((3, 6, 4))
        scan_leaves = [Value(q0.copy()), Value(p.copy()), Value(m.copy())]
        scan = pmm_scan(*scan_leaves)
        vsum(mul(scan, weights)).backward()
        step_leaves = [Value(q0.copy()), Value(p.copy()), Value(m.copy())]
        q, rows = step_leaves[0], []
        for t in range(6):
            q = pmm_step(q, take(step_leaves[1], t, axis=1), step_leaves[2])
            rows.append(q)
        chained = stack(rows, axis=1)
        vsum(mul(chained, weights)).backward()
        # the same einsum per step, forward and along the adjoint chain; only
        # the machine gradient sums its T terms in another order
        assert np.array_equal(scan.data, chained.data)
        assert np.array_equal(scan_leaves[0].grad, step_leaves[0].grad)
        assert np.array_equal(scan_leaves[1].grad, step_leaves[1].grad)
        assert np.allclose(scan_leaves[2].grad, step_leaves[2].grad, rtol=1e-12, atol=1e-15)

    def test_shape_mismatch(self):
        m = np.ones((2, 3, 3)) / 3.0
        with pytest.raises(InputError):
            pmm_scan(np.ones((4, 3)), np.ones((4, 2)), m)
        with pytest.raises(InputError):
            pmm_scan(np.ones((2, 3)), np.ones((4, 5, 2)), m)
        with pytest.raises(InputError):
            pmm_scan(np.ones((4, 3)), np.ones((4, 5, 3)), m)
        with pytest.raises(InputError):
            pmm_scan(np.ones((4, 3)), np.ones((4, 0, 2)), m)


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
        opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        for t in range(1, 21):
            opt.zero_grad()
            for i, p in enumerate(params):
                # parameter 1 never gets a gradient, parameter 3 only on odd steps
                if i == 1 or (i == 3 and t % 2 == 0):
                    continue
                p.grad = rng.standard_normal(shapes[i])
                g = p.grad
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

    def test_clip_grad_norm(self):
        p = Value(np.zeros(3))
        p.grad = np.array([3.0, 4.0, 0.0])
        norm = clip_grad_norm([p], 1.0)
        assert np.isclose(norm, 5.0)
        assert np.isclose(np.sqrt((p.grad**2).sum()), 1.0)


class TestSeeding:
    def test_spawned_rngs_independent_and_reproducible(self):
        a1, b1 = spawn_rngs(123, 2)
        a2, b2 = spawn_rngs(123, 2)
        assert a1.random() == a2.random()
        assert b1.random() == b2.random()
        assert spawn_rngs(123, 2)[0].random() != spawn_rngs(124, 2)[0].random()
