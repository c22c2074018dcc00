import hashlib

import numpy as np
import pytest

from helpers import (
    assert_grad_close,
    chained_a2c_losses,
    make_oracle_grounder,
    numeric_grad,
)
from rmkit.diffkit import Value
from rmkit.errors import FormulaSyntaxError, InputError, NumericsError
from rmkit.gridworld import DEFAULT_CONFIG, GridWorld, EpisodeTrace
from rmkit.networks import augment_input
from rmkit.nrm import MachineStateTracker, params_from_machine
from rmkit.training import (
    COEF_CRITIC,
    ActorCriticNets,
    GrounderBuffer,
    TrainConfig,
    a2c_losses,
    n_step_returns,
    resolve_task,
    returns_to_csv,
    run_experiment,
    run_files,
    run_single,
    sample_action,
    smoothed,
    summary_to_csv,
)


class TestConfig:
    def test_defaults_match_training_setup(self):
        cfg = TrainConfig()
        assert cfg.episodes == 10000
        assert cfg.seeds == (0, 1, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            TrainConfig(episodes=0)

    @pytest.mark.parametrize("seeds", [(), (0, 0), (2, 1, 2), (-1,)])
    def test_rejects_invalid_seeds(self, seeds):
        with pytest.raises(InputError):
            TrainConfig(seeds=seeds)


class TestAugmentedState:
    def test_rm_fresh_episode_appends_initial_onehot(self, task_machines):
        env = GridWorld(DEFAULT_CONFIG, task_machines[1])
        obs = env.reset()
        x = augment_input(obs, env.machine_state_onehot)
        assert x.shape == (2 + task_machines[1].n_states,)
        assert x[2 + task_machines[1].initial] == 1.0

    def test_nrm_features_are_distribution(self, task_machines):
        m = task_machines[1]
        rng = np.random.default_rng(0)
        from rmkit.networks import Grounder

        tracker = MachineStateTracker(params_from_machine(m), Grounder(rng, 2, 5))
        tracker.reset()
        feat = tracker.step(np.array([0.5, 0.5]))
        assert np.isclose(feat.sum(), 1.0, atol=1e-9)

    def test_oracle_grounder_matches_exact_machine_states(self, task_machines):
        # with ground-truth symbol probabilities, the probabilistic state
        # equals the exact one-hot state at every step of any action sequence
        m = task_machines[1]
        env = GridWorld(DEFAULT_CONFIG, m)
        tracker = MachineStateTracker(params_from_machine(m), make_oracle_grounder(DEFAULT_CONFIG))
        obs = env.reset()
        tracker.reset()
        rng = np.random.default_rng(3)
        while not env.done:
            obs, _, _, _ = env.step(int(rng.integers(0, 4)))
            feat = tracker.step(obs)
            assert np.array_equal(feat, env.machine_state_onehot)


class TestTrackerMemo:
    def test_one_grounder_call_per_observation_between_refits(self, task_machines, monkeypatch):
        """Random walks through two refit periods: the tracker runs the grounder once per
        distinct observation, and after each refit it steps as a fresh tracker does."""
        from rmkit import networks, training

        m = task_machines[1]
        env = GridWorld(DEFAULT_CONFIG, m)
        grounder = networks.Grounder(np.random.default_rng(4), 2, len(m.alphabet))
        tracker = MachineStateTracker(params_from_machine(m), grounder)
        refit = training._grounder_refit(DEFAULT_CONFIG, tracker, np.random.default_rng(5))
        calls, call = [], networks.Grounder.__call__
        monkeypatch.setattr(networks.Grounder, "__call__",
                            lambda self, x: calls.append(1) or call(self, x))
        rng = np.random.default_rng(6)
        seen, walks = set(), []
        for episode in range(2 * training.GROUNDER_PERIOD):
            tracker.reset()
            env.reset()
            steps, obs_seq = [], []
            while not env.done:
                obs, reward, cls, _ = env.step(int(rng.integers(0, 4)))
                tracker.step(obs)
                seen.add(obs.tobytes())
                steps.append((env.cell, cls, reward))
                obs_seq.append(obs)
            walks.append(obs_seq)
            if (episode + 1) % training.GROUNDER_PERIOD == 0:
                assert len(calls) == len(seen) == len(tracker.rows)
                calls.clear()
                seen.clear()
            refit(episode, steps, sum(r for _, _, r in steps))
            if (episode + 1) % training.GROUNDER_PERIOD == 0:
                assert not tracker.rows
                fresh = MachineStateTracker(tracker.params, grounder)
                for obs_seq in walks[-3:]:
                    tracker.reset()
                    fresh.reset()
                    for obs in obs_seq:
                        assert np.array_equal(tracker.step(obs), fresh.step(obs))
                tracker.rows.clear()
                calls.clear()


class TestA2cPieces:
    def test_n_step_returns(self):
        r = n_step_returns([1.0, 2.0, 3.0], bootstrap=10.0, gamma=0.5)
        assert np.allclose(r, [1 + 0.5 * (2 + 0.5 * (3 + 5.0)), 2 + 0.5 * (3 + 5.0), 3 + 5.0])

    def test_zero_advantage_zeroes_policy_term(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 3))
        values = np.array([1.0, 2.0, 3.0, 4.0])
        parts = a2c_losses(logits, values, [0, 1, 2, 0], values.copy())[3]
        assert abs(parts["policy"]) < 1e-12

    def test_entropy_of_uniform_policy(self):
        parts = a2c_losses(np.zeros((2, 4)), np.zeros(2), [0, 1], [0.0, 0.0])[3]
        assert np.isclose(parts["entropy"], np.log(4.0))

    @pytest.mark.parametrize("t_len", [1, 2, 3, 5])
    def test_matches_chained_losses_bitwise(self, t_len):
        rng = np.random.default_rng(t_len)
        for _ in range(20):
            arrays = (rng.standard_normal((t_len, 4)) * 3, rng.standard_normal(t_len))
            actions, returns = rng.integers(0, 4, size=t_len), rng.standard_normal(t_len)
            total, g_logits, g_values, parts = a2c_losses(*arrays, actions, returns)
            chain_leaves = [Value(a.copy()) for a in arrays]
            chained, chain_parts = chained_a2c_losses(*chain_leaves, actions, returns)
            chained.backward()
            assert total == chained.item()
            assert parts == chain_parts
            assert np.array_equal(g_logits, chain_leaves[0].grad)
            assert np.array_equal(g_values, chain_leaves[1].grad)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        logits, values = rng.standard_normal((5, 4)), rng.standard_normal(5)
        actions, returns = [0, 3, 1, 1, 2], rng.standard_normal(5)
        _, g_logits, g_values, _ = a2c_losses(logits, values, actions, returns)

        def total(arr):
            return a2c_losses(arr, values, actions, returns)[0]

        def critic_term(arr):  # advantages are detached: only this term reaches values
            return COEF_CRITIC * a2c_losses(logits, arr, actions, returns)[3]["value"]

        assert_grad_close(g_logits, numeric_grad(total, logits.copy()), rtol=1e-4)
        assert_grad_close(g_values, numeric_grad(critic_term, values.copy()), rtol=1e-4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_raises(self, bad):
        with pytest.raises(NumericsError):
            a2c_losses(np.zeros((2, 4)), np.zeros(2), [0, 1], [0.0, bad])

    def test_value_loss_decreases_on_fixed_target(self):
        rng = np.random.default_rng(2)
        nets = ActorCriticNets(rng, 4, 3)
        batch = np.tile([0.1, 0.2, 0.3, 0.4], (5, 1))
        losses = []
        for _ in range(50):
            parts = nets.update(batch, [0] * 5, [10.0] * 5, _NoFeatures())
            losses.append(parts["value"])
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_return_raises_before_adam_moves(self, bad):
        nets = ActorCriticNets(np.random.default_rng(4), 4, 3)
        batch = np.random.default_rng(5).standard_normal((3, 4))
        nets.update(batch, [0, 1, 2], [1.0, 2.0, 3.0], _NoFeatures())
        before = [a.copy() for a in (nets.optimizer.data, nets.optimizer.m, nets.optimizer.v)]
        with pytest.raises(NumericsError):
            nets.update(batch, [0, 1, 2], [1.0, bad, 3.0], _NoFeatures())
        assert nets.optimizer.step_count == 1
        after = (nets.optimizer.data, nets.optimizer.m, nets.optimizer.v)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_head_row_alone_leaves_lstm_grads_zero(self):
        from rmkit.training import _LSTMFeatures

        rng = np.random.default_rng(7)
        features = _LSTMFeatures(np.random.default_rng(8))
        nets = ActorCriticNets(np.random.default_rng(9), features.dim, 4, features.params)
        xs = [features.reset(rng.random(2))] + [features.step(rng.random(2)) for _ in range(2)]
        nets.update(np.stack(xs[:2]), [1, 3], [2.0, 1.0], features)  # from the zero state
        assert all(p.grad.any() for p in features.params)
        features.cut()
        nets.update(np.stack(xs[2:]), [1], [2.0], features)  # the detached head row only
        assert not any(p.grad.any() for p in features.params)
        assert all(p.grad.any() for p in nets.actor.params())


class _NoFeatures:
    """Features with no parameters: the batch adjoint goes nowhere."""

    def backward(self, g):
        pass


class TestGrounderBuffer:
    def _trace(self, ret):
        return EpisodeTrace(
            cells=np.zeros((1, 2), dtype=np.int64),
            states=np.zeros((1, 2)),
            reward_classes=np.zeros(1, dtype=np.int64),
            scalar_rewards=np.array([ret]),
            symbols=np.zeros(1, dtype=np.int64),
            episode_return=ret,
        )

    def test_single_episode(self):
        buf = GrounderBuffer()
        buf.add(0, self._trace(1.0))
        assert len(buf.dataset()) == 1

    def test_capacity_bound(self):
        rng = np.random.default_rng(3)
        buf = GrounderBuffer(60, 60)
        for i in range(500):
            buf.add(i, self._trace(float(rng.integers(0, 100))))
        assert len(buf.dataset()) <= 120

    def test_best_episode_always_kept(self):
        buf = GrounderBuffer(5, 5)
        buf.add(0, self._trace(1000.0))
        for i in range(1, 200):
            buf.add(i, self._trace(float(i % 50)))
        assert any(t.episode_return == 1000.0 for t in buf.dataset())


class TestResolveTask:
    def test_by_id(self):
        text, machine = resolve_task(1)
        assert text == "F(a) & F(b)"
        assert machine.n_states == 4

    def test_by_formula(self):
        _, machine = resolve_task("F(a)")
        assert machine.n_states == 2

    def test_bad_id(self):
        with pytest.raises(InputError):
            resolve_task(9)

    # "²" and "١" are digits to str.isdigit, and int() reads "١" as 1
    @pytest.mark.parametrize("text", ["²", "\u0661"])
    def test_an_id_is_ascii_digits_only(self, text):
        with pytest.raises(InputError, match="unexpected character"):
            resolve_task(text)


class TestRuns:
    def test_bit_reproducible_curves(self):
        cfg = TrainConfig(episodes=40, seeds=(0,))
        a = run_single(1, "rm", cfg, DEFAULT_CONFIG, seed=0)
        b = run_single(1, "rm", cfg, DEFAULT_CONFIG, seed=0)
        assert returns_to_csv(a) == returns_to_csv(b)

    def test_nrm_reproducible_including_grounder_updates(self):
        cfg = TrainConfig(episodes=130, seeds=(0,))
        a = run_single(1, "nrm", cfg, DEFAULT_CONFIG, seed=1)
        b = run_single(1, "nrm", cfg, DEFAULT_CONFIG, seed=1)
        assert returns_to_csv(a) == returns_to_csv(b)

    def test_rnn_runs_and_is_reproducible(self):
        cfg = TrainConfig(episodes=12, seeds=(0,))
        a = run_single(1, "rnn", cfg, DEFAULT_CONFIG, seed=0)
        b = run_single(1, "rnn", cfg, DEFAULT_CONFIG, seed=0)
        assert a == b

    @pytest.mark.parametrize("kind", ["rm", "nrm", "rnn"])
    def test_one_graph_free_update_per_window(self, kind, monkeypatch):
        from rmkit import networks, training

        counts = {"backward": 0, "update": 0, "windows": 0}
        seen = {}
        backward, update, lstm_step = Value.backward, ActorCriticNets.update, networks.LSTM.step
        env_step = training.GridWorld.step

        def counting_backward(self):
            counts["backward"] += 1
            return backward(self)

        def counting_update(self, xs, actions, returns, features):
            seen["nets"] = self
            counts["update"] += 1
            return update(self, xs, actions, returns, features)

        def recording_step(self, x, state):
            seen["lstm"] = self
            return lstm_step(self, x, state)

        def counting_env_step(self, action):
            out = env_step(self, action)
            counts["windows"] += bool(out[3] or self.t % training.N_STEP == 0)
            return out

        monkeypatch.setattr(Value, "backward", counting_backward)
        monkeypatch.setattr(training.ActorCriticNets, "update", counting_update)
        monkeypatch.setattr(networks.LSTM, "step", recording_step)
        monkeypatch.setattr(training.GridWorld, "step", counting_env_step)
        run_single(1, kind, TrainConfig(episodes=3, seeds=(0,)), DEFAULT_CONFIG, seed=0)
        assert counts["backward"] == 0
        assert counts["update"] == counts["windows"] > 0
        if kind == "rnn":
            held = {id(p) for p in seen["nets"].optimizer.params}
            assert all(id(p) in held for p in seen["lstm"].params())

    def test_nrm_refit_runs_no_graph(self, monkeypatch):
        """The refit grounds through nrm._GroupFit: no forward_batch, no graph backward."""
        from rmkit import nrm, training

        counts = {"refit": 0, "forward_batch": 0, "backward": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(nrm, "train_grounder", counting("refit", nrm.train_grounder))
        monkeypatch.setattr(nrm, "forward_batch", counting("forward_batch", nrm.forward_batch))
        monkeypatch.setattr(Value, "backward", counting("backward", Value.backward))
        cfg = TrainConfig(episodes=training.GROUNDER_PERIOD, seeds=(0,))
        run_single(1, "nrm", cfg, DEFAULT_CONFIG, seed=0)
        assert counts == {"refit": 1, "forward_batch": 0, "backward": 0}

    def test_unknown_agent(self):
        with pytest.raises(InputError):
            run_single(1, "dqn", TrainConfig(episodes=1), DEFAULT_CONFIG, 0)

    def test_experiment_writes_deterministic_csvs(self):
        cfg = TrainConfig(episodes=25, seeds=(0, 1))
        files1, files2 = (run_files(1, "rm", run_experiment(1, "rm", cfg, DEFAULT_CONFIG)["curves"])
                          for _ in range(2))
        assert [name for name, _ in files1] == ["1_rm_seed0.csv", "1_rm_seed1.csv", "1_rm_summary.csv"]
        assert files1 == files2

    def test_parallel_jobs_match_sequential(self, tmp_path):
        cfg = TrainConfig(episodes=20, seeds=(0, 1))
        seq = run_experiment(1, "rm", cfg, DEFAULT_CONFIG)
        par = run_experiment(1, "rm", cfg, DEFAULT_CONFIG, jobs=2)
        assert seq["curves"] == par["curves"]

    def test_a_worker_error_reaches_the_caller(self):
        with pytest.raises(FormulaSyntaxError):
            run_experiment("F(", "rm", TrainConfig(episodes=1, seeds=(0, 1)), DEFAULT_CONFIG, jobs=2)


class TestSmoothing:
    def test_window_mean(self):
        values = [0.0, 10.0, 20.0, 30.0]
        sm = smoothed(values, window=2)
        assert np.allclose(sm, [0.0, 5.0, 15.0, 25.0])

    def test_matches_the_per_element_loop_bitwise(self):
        def loop(values, window):
            csum = np.cumsum(values)
            out = np.empty_like(values)
            for i in range(len(values)):
                lo = max(0, i - window + 1)
                out[i] = (csum[i] - (csum[lo - 1] if lo > 0 else 0.0)) / (i - lo + 1)
            return out

        rng = np.random.default_rng(3)
        for _ in range(150):
            values = rng.normal(0.0, 50.0, int(rng.integers(0, 3001)))
            window = int(rng.integers(1, 5001))
            assert np.array_equal(smoothed(values, window), loop(values, window))

    def test_a_window_past_the_series_is_its_length(self):
        values = np.random.default_rng(4).normal(0.0, 50.0, 9)
        assert np.array_equal(smoothed(values, 10**20), smoothed(values, 9))

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, window):
        with pytest.raises(InputError):
            smoothed([1.0, 2.0], window)

    def test_summary_csv_shape(self):
        curves = {0: [1.0, 2.0, 3.0], 1: [3.0, 2.0, 1.0]}
        text = summary_to_csv(curves, window=2)
        lines = text.strip().splitlines()
        assert lines[0] == "episode,mean,min,max"
        assert len(lines) == 4
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert rows == [[0.0, 2.0, 1.0, 3.0], [1.0, 2.0, 1.5, 2.5], [2.0, 2.0, 1.5, 2.5]]


class TestSampleAction:
    def test_same_draws_as_generator_choice(self):
        probs_rng = np.random.default_rng(5)
        ours, theirs = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(10_000):
            probs = probs_rng.dirichlet(np.full(4, 0.3))
            assert sample_action(probs, ours) == theirs.choice(4, p=probs)
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probabilities_raise(self, bad):
        with pytest.raises(NumericsError):
            sample_action(np.array([0.25, bad, 0.25, 0.25]), np.random.default_rng(0))


class TestTrainingBits:
    # sha256 of the float64 returns, recorded before the A2C update and the
    # grounder refit became fused diffkit nodes; 125 episodes include one refit
    PINNED = {
        "rm": "85ac8f51978b684011075e172d27b088606c06f2a3b40a4ab758303169ceecc5",
        "nrm": "a262a4bd4e1cc7fe4428d0e7de86d954a92ad43ac763aa4a40c21f86fbf959e7",
        "rnn": "fe858990404c6a110980b55e522f3b20186d0aeecbda33f0ac9958dc91b0a3dc",
    }

    @pytest.mark.parametrize("kind", ["rm", "nrm", "rnn"])
    def test_returns_are_pinned(self, kind):
        returns = run_single(1, kind, TrainConfig(episodes=125), DEFAULT_CONFIG, 0)
        digest = hashlib.sha256(np.asarray(returns, dtype=np.float64).tobytes()).hexdigest()
        assert digest == self.PINNED[kind]
