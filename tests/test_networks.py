import numpy as np

from helpers import assert_grad_close, assign_params, load_params, numeric_grad, step_states
from rmkit.diffkit import Value, cross_entropy, softmax
from rmkit.networks import LSTM, MLP, Grounder, OneHotGrounder, augment_input, save_params


class TestMlps:
    def test_actor_outputs_distribution(self):
        rng = np.random.default_rng(0)
        actor = MLP(rng, (6, 120, 120, 4))
        probs = softmax(actor(Value(rng.standard_normal(6))))
        assert probs.data.shape == (4,)
        assert np.isclose(probs.data.sum(), 1.0, atol=1e-9)
        assert (probs.data > 0).all()

    def test_critic_scalar_output(self):
        rng = np.random.default_rng(1)
        critic = MLP(rng, (6, 120, 120, 1))
        v = critic(Value(rng.standard_normal((3, 6))))
        assert v.data.shape == (3, 1)

    def test_grounder_outputs_distribution(self):
        rng = np.random.default_rng(2)
        g = Grounder(rng, 2, 5)
        probs = g(Value(rng.random((7, 2))))
        assert probs.data.shape == (7, 5)
        assert np.allclose(probs.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_array_call_matches_graph_call_bitwise(self):
        rng = np.random.default_rng(3)
        mlp = MLP(rng, (4, 7, 7, 3))
        g = Grounder(rng, 2, 5)
        for x in (rng.standard_normal((6, 4)), rng.standard_normal(4)):
            out = mlp(x)
            assert isinstance(out, np.ndarray)
            assert np.array_equal(out, mlp(Value(x)).data)
            assert np.array_equal(mlp.forward_numpy(x), out)
        y = rng.random((6, 2))
        out = g(y)
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, g(Value(y)).data)

    def test_grounder_gradcheck(self):
        rng = np.random.default_rng(4)
        g = Grounder(rng, 2, 3, hidden=5)
        x = rng.random((4, 2))
        targets = np.array([0, 1, 2, 1])
        loss = cross_entropy(g(Value(x)), targets)
        loss.backward()
        for p in g.params():
            def f(arr, p=p):
                saved = p.data
                p.data = arr
                out = cross_entropy(g(Value(x)), targets).item()
                p.data = saved
                return out

            assert_grad_close(p.grad, numeric_grad(f, p.data.copy()), rtol=1e-4)

    def test_onehot_grounder_passthrough(self):
        g = OneHotGrounder(3)
        x = np.eye(3)
        assert np.array_equal(g(x), x)
        assert list(g.predict(x)) == [0, 1, 2]
        assert g.params() == []


class TestLstm:
    def test_zero_input_zero_state_outputs_zero(self):
        rng = np.random.default_rng(6)
        net = LSTM(rng, 3, hidden=8)
        h, _ = net.step(np.zeros(3), net.zero_state())
        # biases are zero, so gates see zero pre-activations and tanh(0)=0
        assert np.allclose(h, 0.0)

    def test_hidden_stays_bounded_over_long_sequence(self):
        rng = np.random.default_rng(7)
        net = LSTM(rng, 2, hidden=10)
        state = net.zero_state()
        for _ in range(200):
            h, state = net.step(rng.standard_normal(2), state)
        assert np.isfinite(h).all()
        assert np.abs(h).max() <= 1.0  # tanh-bounded output

    def test_gradcheck_through_three_steps(self):
        rng = np.random.default_rng(8)
        net = LSTM(rng, 2, hidden=4, layers=2)
        xs = rng.standard_normal((3, 2))

        def loss_value():
            # steps again at every perturbation, so the backward is checked
            # against the forward whose activations it reads
            states = step_states(net, net.zero_state(), xs)
            return 0.3 * sum(state[-1][0].sum() for state in states[1:])

        net.backward(step_states(net, net.zero_state(), xs), xs, np.full((3, 4), 0.3))
        for p in net.params():
            def f(arr, p=p):
                saved = p.data
                p.data = arr
                out = loss_value()
                p.data = saved
                return out

            assert_grad_close(p.grad, numeric_grad(f, p.data.copy()), rtol=1e-4)


class TestAugment:
    def test_concatenates(self):
        out = augment_input(np.array([0.5, 0.25]), np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(out, [0.5, 0.25, 1.0, 0.0, 0.0])


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        g = Grounder(rng, 2, 5)
        named = {f"g{i}": p for i, p in enumerate(g.params())}
        path = tmp_path / "ckpt.npz"
        save_params(path, named, meta={"kind": "grounder", "symbols": 5})
        arrays, meta = load_params(path)
        assert meta["kind"] == "grounder"
        g2 = Grounder(np.random.default_rng(11), 2, 5)
        named2 = {f"g{i}": p for i, p in enumerate(g2.params())}
        assign_params(named2, arrays)
        x = rng.random((3, 2))
        assert np.allclose(g(x), g2(x))

    def test_writes_the_path_it_is_given(self, tmp_path):
        g = Grounder(np.random.default_rng(10), 2, 5)
        save_params(tmp_path / "ckpt", {"g0": g.params()[0]})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
        assert list(load_params(tmp_path / "ckpt")[0]) == ["g0"]
