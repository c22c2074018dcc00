"""Advantage actor-critic training of the three agent kinds.

All agents optimize the same shaped reward with the same A2C machinery and
network shapes; they differ only in what history feature augments the raw
observation:

* ``rm``  - the exact machine state (one-hot), via the ground-truth labeler;
  the upper bound.
* ``nrm`` - the probabilistic machine state computed by a learned grounder
  against the frozen task machine; every ``grounder_period`` episodes the
  grounder is refit on a curated buffer of recorded episodes (recent ones
  plus the best seen), using reward classes as the only supervision.
* ``rnn`` - no machine knowledge at all; a stacked LSTM summarizes the
  observation history and the actor/critic read its hidden state.

Updates run every ``n_step`` environment steps on n-step advantage targets;
seeds are independent workers, and a fixed seed reproduces a run bitwise.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import diffkit as dk
from .automata import MooreMachine
from .diffkit import Adam, Value, clip_grad_norm, spawn_rngs
from .errors import InputError
from .formulas import TASK_ALPHABET, TASK_FORMULAS, compile_formula
from .gridworld import DEFAULT_CONFIG, EpisodeTrace, GridConfig, GridWorld
from .networks import LSTM, MLP, Grounder, augment_input
from .nrm import MachineStateTracker, params_from_machine, train_grounder

AGENT_KINDS = ("rm", "nrm", "rnn")


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 10000
    n_step: int = 5
    lr: float = 4e-4
    coef_actor: float = 0.3
    coef_critic: float = 0.5
    coef_entropy: float = 1e-4
    grounder_period: int = 120
    grounder_epochs: int = 100
    gamma: float = 0.99
    seeds: tuple[int, ...] = (0, 1, 2)
    window: int = 100
    grad_clip: float = 5.0
    buffer_recent: int = 60
    buffer_elite: int = 60
    grounder_hidden: int = 64
    grounder_lr: float = 4e-4

    def __post_init__(self):
        numeric = (self.episodes, self.n_step, self.lr, self.coef_actor, self.coef_critic,
                   self.coef_entropy, self.grounder_period, self.grounder_epochs, self.gamma,
                   self.window, self.grad_clip)
        if not all(0 < v < np.inf for v in numeric):
            raise InputError("training settings must all be positive and finite")
        if self.gamma > 1:
            raise InputError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.buffer_recent < 0 or self.buffer_elite < 0:
            raise InputError("buffer_recent and buffer_elite must not be negative")
        if self.buffer_recent + self.buffer_elite == 0:
            raise InputError("buffer_recent + buffer_elite must be at least 1")
        if self.grounder_hidden < 1:
            raise InputError("grounder_hidden must be at least 1")
        if not 0 < self.grounder_lr < np.inf:
            raise InputError("grounder_lr must be positive and finite")
        if not self.seeds:
            raise InputError("seeds must name at least one seed")


def n_step_returns(rewards, bootstrap: float, gamma: float) -> np.ndarray:
    """Discounted suffix sums with a terminal bootstrap value."""
    out = np.empty(len(rewards))
    acc = bootstrap
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


def a2c_losses(logits: Value, values: Value, actions, returns, config: TrainConfig):
    """Combined actor-critic loss plus its components (as floats).

    Advantages are detached: the policy term moves only the actor, the
    squared error only the critic, and the entropy bonus keeps the policy
    from collapsing.
    """
    actions = np.asarray(actions, dtype=np.int64)
    returns = np.asarray(returns, dtype=np.float64)
    logp = dk.log_softmax(logits, axis=-1)
    onehot = np.zeros(logits.data.shape)
    onehot[np.arange(len(actions)), actions] = 1.0
    chosen = dk.vsum(dk.mul(logp, onehot), axis=-1)
    advantages = returns - values.data
    policy_loss = -dk.vmean(dk.mul(chosen, advantages))
    err = values - returns
    value_loss = dk.vmean(dk.mul(err, err))
    probs = dk.softmax(logits, axis=-1)
    entropy = -dk.vmean(dk.vsum(dk.mul(probs, logp), axis=-1))
    total = (config.coef_actor * policy_loss + config.coef_critic * value_loss
             - config.coef_entropy * entropy)
    return total, {
        "policy": policy_loss.item(),
        "value": value_loss.item(),
        "entropy": entropy.item(),
    }


class ActorCriticNets:
    """Shared actor/critic stack over a fixed-size input vector."""

    def __init__(self, rng, in_dim: int, n_actions: int, config: TrainConfig):
        self.actor = MLP(rng, (in_dim, 120, 120, n_actions))
        self.critic = MLP(rng, (in_dim, 120, 120, 1))
        self.config = config
        self.params = self.actor.params() + self.critic.params()
        self.optimizer = Adam(self.params, lr=config.lr)

    def action_probs(self, x: np.ndarray) -> np.ndarray:
        return dk.softmax(self.actor.forward_numpy(x))

    def state_value(self, x: np.ndarray) -> float:
        return float(self.critic.forward_numpy(x)[0])

    def update(self, xs, actions, returns) -> dict:
        batch = np.stack(xs)
        logits = self.actor(Value(batch))
        values = dk.reshape(self.critic(Value(batch)), (len(xs),))
        total, parts = a2c_losses(logits, values, actions, returns, self.config)
        self.optimizer.zero_grad()
        total.backward()
        clip_grad_norm(self.params, self.config.grad_clip)
        self.optimizer.step()
        return parts


class GrounderBuffer:
    """Recent episodes plus the best-return episodes seen so far, deduplicated."""

    def __init__(self, n_recent: int = 60, n_elite: int = 60):
        self.n_recent = n_recent
        self.n_elite = n_elite
        self.recent: list[tuple[int, EpisodeTrace]] = []
        self.elite: list[tuple[int, EpisodeTrace]] = []

    def add(self, episode_id: int, trace: EpisodeTrace):
        self.recent.append((episode_id, trace))
        if len(self.recent) > self.n_recent:
            self.recent.pop(0)
        self.elite.append((episode_id, trace))
        self.elite.sort(key=lambda item: (-item[1].episode_return, item[0]))
        del self.elite[self.n_elite:]

    def dataset(self) -> list[EpisodeTrace]:
        seen = {}
        for episode_id, trace in self.recent + self.elite:
            seen.setdefault(episode_id, trace)
        return [seen[k] for k in sorted(seen)]

    def __len__(self):
        return len(self.dataset())


# ---------------------------------------------------------------------------
# single-seed runs, one per agent kind


def _mlp_agent_run(env: GridWorld, machine_features, record_traces: bool,
                   config: TrainConfig, rng_weights, rng_actions, rng_grounder,
                   grounder=None, grounder_params=None):
    """Shared episode loop for the rm and nrm agents.

    ``machine_features`` gives, on ``reset()`` and on ``step(obs)``, the
    machine-state vector appended to the observation: the exact state for
    the rm agent, a :class:`MachineStateTracker` for the nrm agent.
    """
    in_dim = 2 + env.machine.n_states
    nets = ActorCriticNets(rng_weights, in_dim, 4, config)
    buffer = GrounderBuffer(config.buffer_recent, config.buffer_elite)
    grounder_opt = Adam(grounder.params(), lr=config.grounder_lr) if grounder is not None else None
    returns = []
    for episode in range(config.episodes):
        obs = env.reset()
        feat = machine_features.reset()
        xs, acts, rews = [], [], []
        ep_cells, ep_classes, ep_scalars, ep_symbols = [], [], [], []
        total = 0.0
        while not env.done:
            x = augment_input(obs, feat)
            probs = nets.action_probs(x)
            action = int(rng_actions.choice(len(probs), p=probs))
            obs, reward, cls, done = env.step(action)
            feat = machine_features.step(obs)
            total += reward
            xs.append(x)
            acts.append(action)
            rews.append(reward)
            if record_traces:
                ep_cells.append(env.cell)
                ep_classes.append(cls)
                ep_scalars.append(reward)
                ep_symbols.append(env.config.label(env.cell))
            if len(xs) == config.n_step or done:
                bootstrap = 0.0 if done else nets.state_value(augment_input(obs, feat))
                nets.update(xs, acts, n_step_returns(rews, bootstrap, config.gamma))
                xs, acts, rews = [], [], []
        returns.append(total)
        if record_traces:
            cells = np.array(ep_cells, dtype=np.int64)
            trace = EpisodeTrace(
                cells=cells,
                states=np.array([env.config.encode(tuple(c)) for c in cells]),
                reward_classes=np.array(ep_classes, dtype=np.int64),
                scalar_rewards=np.array(ep_scalars),
                symbols=np.array(ep_symbols, dtype=np.int64),
                episode_return=total,
            )
            buffer.add(episode, trace)
            if (episode + 1) % config.grounder_period == 0:
                train_grounder(grounder_params, grounder, buffer.dataset(),
                               epochs=config.grounder_epochs, optimizer=grounder_opt,
                               rng=rng_grounder)
    return returns


class _ExactFeatures:
    """Ground-truth machine state, one-hot; readable only by the rm agent."""

    def __init__(self, env: GridWorld):
        self.env = env

    def reset(self):
        return self.env.machine_state_onehot

    def step(self, obs):
        return self.env.machine_state_onehot


def _rnn_agent_run(env: GridWorld, config: TrainConfig, rng_weights, rng_actions):
    lstm = LSTM(rng_weights, 2, hidden=50, layers=2)
    actor_head = MLP(rng_weights, (50, 120, 120, 4))
    critic_head = MLP(rng_weights, (50, 120, 120, 1))
    params = lstm.params() + actor_head.params() + critic_head.params()
    optimizer = Adam(params, lr=config.lr)
    returns = []
    for _ in range(config.episodes):
        obs = env.reset()
        state = lstm.zero_state()
        h, state = lstm.step(Value(np.asarray(obs, float)), state)
        hs, acts, rews = [], [], []
        total = 0.0
        while not env.done:
            probs = dk.softmax(actor_head.forward_numpy(h.data))
            action = int(rng_actions.choice(len(probs), p=probs))
            obs, reward, _, done = env.step(action)
            total += reward
            hs.append(h)
            acts.append(action)
            rews.append(reward)
            h, state = lstm.step(Value(np.asarray(obs, float)), state)
            if len(hs) == config.n_step or done:
                bootstrap = 0.0 if done else float(critic_head.forward_numpy(h.data)[0])
                batch = dk.stack(hs)
                logits = actor_head(batch)
                values = dk.reshape(critic_head(batch), (len(hs),))
                total_loss, _ = a2c_losses(logits, values, acts,
                                           n_step_returns(rews, bootstrap, config.gamma), config)
                optimizer.zero_grad()
                total_loss.backward()
                clip_grad_norm(params, config.grad_clip)
                optimizer.step()
                # cut the recurrent graph at the update boundary
                h = h.detach()
                state = LSTM.detach_state(state)
                hs, acts, rews = [], [], []
        returns.append(total)
    return returns


def resolve_task(task) -> tuple[str, MooreMachine]:
    """Accept a task id (1..8) or formula text; returns (formula, machine)."""
    if isinstance(task, int) or (isinstance(task, str) and task.isdigit()):
        tid = int(task)
        if tid not in TASK_FORMULAS:
            raise InputError(f"task id must be 1..{len(TASK_FORMULAS)}, got {tid}")
        text = TASK_FORMULAS[tid]
    else:
        text = task
    return text, compile_formula(text, TASK_ALPHABET)


def run_single(task, agent_kind: str, config: TrainConfig, grid_config: GridConfig,
               seed: int) -> list[float]:
    """One deterministic training run; returns per-episode returns."""
    if agent_kind not in AGENT_KINDS:
        raise InputError(f"agent kind must be one of {AGENT_KINDS}")
    _, machine = resolve_task(task)
    env = GridWorld(grid_config, machine)
    rng_weights, rng_actions, rng_grounder = spawn_rngs(seed, 3)
    if agent_kind == "rm":
        return _mlp_agent_run(env, _ExactFeatures(env), False, config,
                              rng_weights, rng_actions, rng_grounder)
    if agent_kind == "rnn":
        return _rnn_agent_run(env, config, rng_weights, rng_actions)
    grounder = Grounder(rng_weights, 2, len(machine.alphabet), hidden=config.grounder_hidden)
    params = params_from_machine(machine)
    return _mlp_agent_run(env, MachineStateTracker(params, grounder), True, config,
                          rng_weights, rng_actions, rng_grounder,
                          grounder=grounder, grounder_params=params)


# ---------------------------------------------------------------------------
# experiment orchestration


def smoothed(values, window: int) -> np.ndarray:
    """Trailing-window running mean (window shrinks at the start)."""
    if window < 1:
        raise InputError(f"smoothing window must be at least 1, got {window}")
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    csum = np.cumsum(values)
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        total = csum[i] - (csum[lo - 1] if lo > 0 else 0.0)
        out[i] = total / (i - lo + 1)
    return out


def returns_to_csv(returns) -> str:
    lines = ["episode,return"]
    for i, r in enumerate(returns):
        lines.append(f"{i},{float(r)!r}")
    return "\n".join(lines) + "\n"


def summary_to_csv(curves: dict[int, list[float]], window: int) -> str:
    """Across-seed smoothed mean and range per episode."""
    seeds = sorted(curves)
    sm = np.stack([smoothed(curves[s], window) for s in seeds])
    lines = ["episode,mean,min,max"]
    for i in range(sm.shape[1]):
        lines.append(f"{i},{sm[:, i].mean()!r},{sm[:, i].min()!r},{sm[:, i].max()!r}")
    return "\n".join(lines) + "\n"


def run_experiment(task, agent_kind: str, config: TrainConfig, grid_config: GridConfig = DEFAULT_CONFIG,
                   out_dir=None, jobs: int = 1) -> dict:
    """Train one agent kind over the configured seeds; optionally write CSVs.

    Returns {"curves": {seed: returns}, "final": {seed: final smoothed mean},
    "paths": [...]} with deterministic file contents for fixed seeds.
    """
    seeds = list(config.seeds)
    if jobs > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
            results = list(pool.map(run_single, [task] * len(seeds), [agent_kind] * len(seeds),
                                    [config] * len(seeds), [grid_config] * len(seeds), seeds))
    else:
        results = [run_single(task, agent_kind, config, grid_config, s) for s in seeds]
    curves = {s: r for s, r in zip(seeds, results)}
    final = {s: float(smoothed(r, config.window)[-1]) for s, r in curves.items()}
    paths = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        task_tag = str(task).replace(" ", "")
        for s in seeds:
            path = os.path.join(out_dir, f"{_slug(task_tag)}_{agent_kind}_seed{s}.csv")
            with open(path, "w") as fh:
                fh.write(returns_to_csv(curves[s]))
            paths.append(path)
        summary_path = os.path.join(out_dir, f"{_slug(task_tag)}_{agent_kind}_summary.csv")
        with open(summary_path, "w") as fh:
            fh.write(summary_to_csv(curves, config.window))
        paths.append(summary_path)
    return {"curves": curves, "final": final, "paths": paths}


def _slug(text: str) -> str:
    keep = [ch if ch.isalnum() else "-" for ch in text]
    slug = "".join(keep).strip("-")
    while "--" in slug:
        slug = slug.replace("--", "-")
    return slug or "task"


def short_config(config: TrainConfig, episodes: int, seeds=(0, 1, 2)) -> TrainConfig:
    """Convenience override for desk-scale runs."""
    return replace(config, episodes=episodes, seeds=tuple(seeds))
