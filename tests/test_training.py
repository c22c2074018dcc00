import numpy as np
import pytest

from rmkit.diffkit import Value
from rmkit.errors import InputError
from rmkit.gridworld import DEFAULT_CONFIG, GridWorld, EpisodeTrace
from rmkit.networks import augment_input
from rmkit.nrm import MachineStateTracker, params_from_machine
from rmkit.training import (
    ActorCriticNets,
    GrounderBuffer,
    TrainConfig,
    a2c_losses,
    make_oracle_grounder,
    n_step_returns,
    resolve_task,
    returns_to_csv,
    run_experiment,
    run_single,
    smoothed,
    summary_to_csv,
)


class TestConfig:
    def test_defaults_match_training_setup(self):
        cfg = TrainConfig()
        assert cfg.episodes == 10000
        assert cfg.n_step == 5
        assert cfg.lr == 4e-4
        assert (cfg.coef_actor, cfg.coef_critic, cfg.coef_entropy) == (0.3, 0.5, 1e-4)
        assert cfg.grounder_period == 120
        assert cfg.grounder_epochs == 100
        assert cfg.window == 100

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            TrainConfig(episodes=0)

    @pytest.mark.parametrize("bad", [
        {"buffer_recent": -3},
        {"buffer_elite": -1},
        {"buffer_recent": 0, "buffer_elite": 0},
        {"grounder_hidden": 0},
        {"grounder_lr": 0.0},
        {"grounder_lr": -1e-3},
        {"grounder_lr": float("nan")},
        {"seeds": ()},
    ])
    def test_rejects_invalid_grounder_and_seed_settings(self, bad):
        with pytest.raises(InputError):
            TrainConfig(**bad)

    def test_one_empty_buffer_is_allowed(self):
        assert TrainConfig(buffer_recent=0).buffer_elite == 60


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


class TestA2cPieces:
    def test_n_step_returns(self):
        r = n_step_returns([1.0, 2.0, 3.0], bootstrap=10.0, gamma=0.5)
        assert np.allclose(r, [1 + 0.5 * (2 + 0.5 * (3 + 5.0)), 2 + 0.5 * (3 + 5.0), 3 + 5.0])

    def test_zero_advantage_zeroes_policy_term(self):
        cfg = TrainConfig()
        rng = np.random.default_rng(1)
        logits = Value(rng.standard_normal((4, 3)))
        values = Value(np.array([1.0, 2.0, 3.0, 4.0]))
        _, parts = a2c_losses(logits, values, [0, 1, 2, 0], values.data.copy(), cfg)
        assert abs(parts["policy"]) < 1e-12

    def test_entropy_of_uniform_policy(self):
        cfg = TrainConfig()
        logits = Value(np.zeros((2, 4)))
        values = Value(np.zeros(2))
        _, parts = a2c_losses(logits, values, [0, 1], [0.0, 0.0], cfg)
        assert np.isclose(parts["entropy"], np.log(4.0))

    def test_value_loss_decreases_on_fixed_target(self):
        cfg = TrainConfig(lr=3e-3)
        rng = np.random.default_rng(2)
        nets = ActorCriticNets(rng, 4, 3, cfg)
        x = [np.array([0.1, 0.2, 0.3, 0.4])] * 5
        losses = []
        for _ in range(50):
            parts = nets.update(x, [0] * 5, [10.0] * 5)
            losses.append(parts["value"])
        assert losses[-1] < losses[0]


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
        assert len(buf) == 1

    def test_capacity_bound(self):
        rng = np.random.default_rng(3)
        buf = GrounderBuffer(60, 60)
        for i in range(500):
            buf.add(i, self._trace(float(rng.integers(0, 100))))
        assert len(buf) <= 120

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


class TestRuns:
    def test_bit_reproducible_curves(self):
        cfg = TrainConfig(episodes=40, seeds=(0,))
        a = run_single(1, "rm", cfg, DEFAULT_CONFIG, seed=0)
        b = run_single(1, "rm", cfg, DEFAULT_CONFIG, seed=0)
        assert returns_to_csv(a) == returns_to_csv(b)

    def test_nrm_reproducible_including_grounder_updates(self):
        cfg = TrainConfig(episodes=130, seeds=(0,), grounder_epochs=5)
        a = run_single(1, "nrm", cfg, DEFAULT_CONFIG, seed=1)
        b = run_single(1, "nrm", cfg, DEFAULT_CONFIG, seed=1)
        assert returns_to_csv(a) == returns_to_csv(b)

    def test_rnn_runs_and_is_reproducible(self):
        cfg = TrainConfig(episodes=12, seeds=(0,))
        a = run_single(1, "rnn", cfg, DEFAULT_CONFIG, seed=0)
        b = run_single(1, "rnn", cfg, DEFAULT_CONFIG, seed=0)
        assert a == b

    def test_unknown_agent(self):
        with pytest.raises(InputError):
            run_single(1, "dqn", TrainConfig(episodes=1), DEFAULT_CONFIG, 0)

    def test_experiment_writes_deterministic_csvs(self, tmp_path):
        cfg = TrainConfig(episodes=25, seeds=(0, 1))
        res1 = run_experiment(1, "rm", cfg, DEFAULT_CONFIG, out_dir=tmp_path / "a")
        res2 = run_experiment(1, "rm", cfg, DEFAULT_CONFIG, out_dir=tmp_path / "b")
        for p1, p2 in zip(res1["paths"], res2["paths"]):
            assert open(p1).read() == open(p2).read()

    def test_parallel_jobs_match_sequential(self, tmp_path):
        cfg = TrainConfig(episodes=20, seeds=(0, 1))
        seq = run_experiment(1, "rm", cfg, DEFAULT_CONFIG)
        par = run_experiment(1, "rm", cfg, DEFAULT_CONFIG, jobs=2)
        assert seq["curves"] == par["curves"]


class TestSmoothing:
    def test_window_mean(self):
        values = [0.0, 10.0, 20.0, 30.0]
        sm = smoothed(values, window=2)
        assert np.allclose(sm, [0.0, 5.0, 15.0, 25.0])

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
