"""Advantage actor-critic training of the three agent kinds.

All agents optimize the same shaped reward with one A2C episode loop, one
update and the same network shapes; they differ only in the feature vector
that the actor and critic read:

* ``rm``  - the exact machine state (one-hot), via the ground-truth labeler;
  the upper bound.
* ``nrm`` - the probabilistic machine state that a :class:`MachineStateTracker`
  computes through a learned grounder against the frozen task machine; every
  ``GROUNDER_PERIOD`` episodes the tracker refits the grounder on a buffer of
  recent and best-return episodes, with reward classes as the only supervision.
* ``rnn`` - no machine knowledge at all; a stacked LSTM summarizes the
  observation history and the actor/critic read its hidden state.

Updates run every ``N_STEP`` environment steps on n-step advantage targets
and backprop on plain arrays, through both heads into the features.
The A2C and grounding settings are the module constants below, the same for
every run; a :class:`TrainConfig` names only the episode count and the seeds.
Seeds are independent workers, and a fixed seed reproduces a run bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffkit as dk
from .automata import MooreMachine
from .diffkit import Adam, clip_grad_norm, spawn_rngs
from .errors import InputError, NumericsError
from .formulas import TASK_ALPHABET, TASK_FORMULAS, compile_formula
from .gridworld import ACTIONS, DEFAULT_CONFIG, EpisodeTrace, GridConfig, GridWorld
from .networks import LSTM, MLP, Grounder, augment_input
from .nrm import MachineStateTracker, params_from_machine

AGENT_KINDS = ("rm", "nrm", "rnn")

# The one A2C and grounding setup every agent kind trains under.
N_STEP = 5  # environment steps per update
GAMMA = 0.99
COEF_ACTOR, COEF_CRITIC, COEF_ENTROPY = 0.3, 0.5, 1e-4
GRAD_CLIP = 5.0
GROUNDER_PERIOD = 120  # episodes between nrm grounder refits
WINDOW = 100  # trailing episodes averaged into the final return


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 10000
    seeds: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        if self.episodes < 1:
            raise InputError("training settings must all be positive, "
                             f"got episodes = {self.episodes}")
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise InputError("seeds must name at least one seed, none negative or repeated")


def n_step_returns(rewards, bootstrap: float, gamma: float) -> np.ndarray:
    """Discounted suffix sums with a terminal bootstrap value."""
    out = np.empty(len(rewards))
    acc = bootstrap
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


def a2c_losses(logits: np.ndarray, values: np.ndarray, actions, returns):
    """Combined actor-critic loss of ``[T, A]`` logits and ``[T]`` values; returns
    it, its grads over both and its components (as floats).

    Advantages are detached: the policy term moves only the actor, the
    squared error only the critic, and the entropy bonus keeps the policy
    from collapsing.  The values and grads are those of the diffkit op chain
    for the same loss, bit for bit.  A non-finite loss raises NumericsError.
    """
    rows, actions = np.arange(len(values)), np.asarray(actions, dtype=np.int64)
    returns, inv_t = np.asarray(returns, dtype=np.float64), 1.0 / values.size
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    e_sum = e.sum(axis=-1, keepdims=True)
    logp = shifted - np.log(e_sum)
    probs = e / e_sum
    advantages = returns - values
    policy_loss = -((logp[rows, actions] * advantages).sum() * inv_t)
    err = values - returns
    value_loss = (err * err).sum() * inv_t
    entropy = -((probs * logp).sum(axis=-1).sum() * inv_t)
    total = policy_loss * COEF_ACTOR + value_loss * COEF_CRITIC - entropy * COEF_ENTROPY
    if not np.isfinite(total):
        raise NumericsError("non-finite loss")
    g_entropy = COEF_ENTROPY * inv_t  # dtotal/d(probs * logp)
    g_probs = g_entropy * logp
    g_logp = g_entropy * probs
    g_logp[rows, actions] += -(COEF_ACTOR * inv_t) * advantages
    g_logits = ((g_logp - np.exp(logp) * g_logp.sum(axis=-1, keepdims=True))
                + probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True)))
    parts = {"policy": float(policy_loss), "value": float(value_loss), "entropy": float(entropy)}
    return float(total), g_logits, 2.0 * COEF_CRITIC * inv_t * err, parts


def sample_action(probs: np.ndarray, rng: np.random.Generator) -> int:
    """``rng.choice(len(probs), p=probs)``: the same steps, draw and action, minus its checks."""
    cdf = np.cumsum(probs)
    if not np.isfinite(cdf[-1]):
        raise NumericsError("non-finite action probabilities")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


class ActorCriticNets:
    """Actor and critic MLPs over a feature vector, trained with one optimizer.

    ``encoder_params`` are those of whatever computes the features (the rnn
    agent's LSTM); they are optimized and clipped together with the heads.
    """

    def __init__(self, rng, in_dim: int, n_actions: int, encoder_params=()):
        self.actor = MLP(rng, (in_dim, 120, 120, n_actions))
        self.critic = MLP(rng, (in_dim, 120, 120, 1))
        self.optimizer = Adam(list(encoder_params) + self.actor.params() + self.critic.params())

    def action_probs(self, x: np.ndarray) -> np.ndarray:
        return dk.softmax(self.actor.forward_numpy(x))

    def state_value(self, x: np.ndarray) -> float:
        return float(self.critic.forward_numpy(x)[0])

    def update(self, xs: np.ndarray, actions, returns, features) -> dict:
        """One A2C step on a ``[T, d]`` batch of features; ``features.backward``
        gets the batch's adjoint."""
        actor, critic = self.actor, self.critic
        hs_a = dk.mlp_forward(xs, actor.layers, actor.acts)
        hs_c = dk.mlp_forward(xs, critic.layers, critic.acts)
        _, g_logits, g_values, parts = a2c_losses(hs_a[-1], hs_c[-1][:, 0], actions, returns)
        self.optimizer.zero_grad()
        g = dk.mlp_backward(g_logits, hs_a, actor.layers, actor.acts)
        g += dk.mlp_backward(g_values[:, None], hs_c, critic.layers, critic.acts)
        features.backward(g)
        clip_grad_norm(self.optimizer.grad, GRAD_CLIP)
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


# ---------------------------------------------------------------------------
# single-seed runs: one episode loop, agents differ in their features


class _MachineFeatures:
    """The observation plus the exact one-hot machine state (rm, no tracker) or
    a :class:`MachineStateTracker`'s probabilistic state (nrm)."""

    params = ()

    def __init__(self, env: GridWorld, tracker=None):
        self.env = env
        self.tracker = tracker
        self.dim = 2 + env.machine.n_states

    def reset(self, obs) -> np.ndarray:
        q = self.env.machine_state_onehot if self.tracker is None else self.tracker.reset()
        return augment_input(obs, q)

    def step(self, obs) -> np.ndarray:
        q = self.env.machine_state_onehot if self.tracker is None else self.tracker.step(obs)
        return augment_input(obs, q)

    def backward(self, g):
        pass

    def cut(self):
        pass


class _LSTMFeatures:
    """rnn: the hidden state of a stacked LSTM run over the observations.

    Acting steps the LSTM on plain arrays and keeps the states since the
    last cut.  An update backprops through the window's observations and
    those states, so backprop is truncated at each update and nothing runs
    forward twice.  After a cut the window's first row is the detached ``h``
    the last update bootstrapped from.
    """

    dim = 50

    def __init__(self, rng):
        self.lstm = LSTM(rng, 2, hidden=self.dim, layers=2)
        self.params = self.lstm.params()

    def reset(self, obs) -> np.ndarray:
        # states from the last cut, observations since, detached rows leading the window
        self.states, self.obs, self.head = [self.lstm.zero_state()], [], 0
        return self.step(obs)

    def step(self, obs) -> np.ndarray:
        obs = np.asarray(obs, float)
        self.obs.append(obs)
        h, state = self.lstm.step(obs, self.states[-1])
        self.states.append(state)
        return h

    def backward(self, g):
        """Backprop the window's adjoint ``g`` into the LSTM, past the detached head row."""
        t_len = len(g) - self.head
        if t_len:
            self.lstm.backward(self.states[:t_len + 1], np.stack(self.obs[:t_len]), g[self.head:])

    def cut(self):
        """Start a new window at the current state."""
        self.states, self.obs, self.head = self.states[-1:], [], 1


def _grounder_refit(grid: GridConfig, tracker: MachineStateTracker, rng):
    """The nrm agent's end-of-episode hook: buffer the episode and refit the
    tracker's grounder every ``GROUNDER_PERIOD`` episodes."""
    buffer, optimizer = GrounderBuffer(), Adam(tracker.grounder.params())

    def end_episode(episode: int, steps, total: float):
        cells, classes, rewards = zip(*steps)
        buffer.add(episode, EpisodeTrace.from_steps(grid, cells, classes, rewards, total))
        if (episode + 1) % GROUNDER_PERIOD == 0:
            tracker.refit(buffer.dataset(), optimizer, rng)

    return end_episode


def _agent_run(env: GridWorld, features, config: TrainConfig, rng_weights, rng_actions,
               end_episode=None) -> list[float]:
    """The A2C episode loop of every agent kind; returns per-episode returns.

    ``features`` turns observations into the arrays the nets read (``reset``,
    ``step``), backprops an update window's adjoint (``backward``), starts a
    new window after each update (``cut``) and has ``params`` to train;
    ``end_episode(episode, steps, total)`` gets (cell, class, reward) steps.
    """
    nets = ActorCriticNets(rng_weights, features.dim, len(ACTIONS), features.params)
    returns = []
    for episode in range(config.episodes):
        x = features.reset(env.reset())
        xs, acts, rews, steps = [], [], [], []
        total = 0.0
        while not env.done:
            action = sample_action(nets.action_probs(x), rng_actions)
            obs, reward, cls, done = env.step(action)
            total += reward
            xs.append(x)
            acts.append(action)
            rews.append(reward)
            steps.append((env.cell, cls, reward))
            x = features.step(obs)
            if len(xs) == N_STEP or done:
                bootstrap = 0.0 if done else nets.state_value(x)
                nets.update(np.stack(xs), acts, n_step_returns(rews, bootstrap, GAMMA), features)
                features.cut()
                xs, acts, rews = [], [], []
        returns.append(total)
        if end_episode is not None:
            end_episode(episode, steps, total)
    return returns


def resolve_task(task) -> tuple[str, MooreMachine]:
    """Accept a task id (1..8, an int or ASCII digits) or formula text; returns (formula, machine)."""
    if isinstance(task, int) or (isinstance(task, str) and task.isascii() and task.isdecimal()):
        # int() refuses a string of over 4300 digits, which names no task either
        text = TASK_FORMULAS.get(int(task) if len(str(task)) < 100 else None)
        if text is None:
            raise InputError(f"task id must be 1..{len(TASK_FORMULAS)}, got {task}")
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
        return _agent_run(env, _MachineFeatures(env), config, rng_weights, rng_actions)
    if agent_kind == "rnn":
        return _agent_run(env, _LSTMFeatures(rng_weights), config, rng_weights, rng_actions)
    tracker = MachineStateTracker(params_from_machine(machine),
                                  Grounder(rng_weights, 2, len(machine.alphabet)))
    return _agent_run(env, _MachineFeatures(env, tracker), config, rng_weights, rng_actions,
                      end_episode=_grounder_refit(grid_config, tracker, rng_grounder))


# ---------------------------------------------------------------------------
# experiment orchestration


def smoothed(values, window: int) -> np.ndarray:
    """Trailing-window running mean (window shrinks at the start)."""
    if window < 1:
        raise InputError(f"smoothing window must be at least 1, got {window}")
    csum = np.cumsum(np.asarray(values, dtype=np.float64))
    i = np.arange(len(csum))
    window = min(window, len(csum))  # a longer window averages the same prefixes
    lo = np.maximum(0, i - window + 1)
    return (csum - np.where(lo > 0, csum[lo - 1], 0.0)) / (i - lo + 1)


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
        col = sm[:, i]
        lines.append(f"{i},{float(col.mean())!r},{float(col.min())!r},{float(col.max())!r}")
    return "\n".join(lines) + "\n"


def run_experiment(task, agent_kind: str, config: TrainConfig, grid_config: GridConfig = DEFAULT_CONFIG,
                   jobs: int = 1) -> dict:
    """Train one agent kind over the configured seeds.

    Returns {"curves": {seed: returns}, "final": {seed: final smoothed mean}},
    the same for fixed seeds whatever ``jobs`` is.
    """
    seeds = list(config.seeds)
    if jobs > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing only when used

        with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
            results = list(pool.map(run_single, [task] * len(seeds), [agent_kind] * len(seeds),
                                    [config] * len(seeds), [grid_config] * len(seeds), seeds))
    else:
        results = [run_single(task, agent_kind, config, grid_config, s) for s in seeds]
    curves = {s: r for s, r in zip(seeds, results)}
    final = {s: float(smoothed(r, WINDOW)[-1]) for s, r in curves.items()}
    return {"curves": curves, "final": final}


def run_files(task, agent_kind: str, curves: dict[int, list[float]]) -> list[tuple[str, str]]:
    """An experiment's output files as (name, text): each seed's returns CSV, then the
    across-seed summary CSV; the names start with ``_slug(str(task))``."""
    stem = f"{_slug(str(task))}_{agent_kind}"
    files = [(f"{stem}_seed{s}.csv", returns_to_csv(r)) for s, r in curves.items()]
    return files + [(f"{stem}_summary.csv", summary_to_csv(curves, WINDOW))]


def _slug(text: str) -> str:
    keep = [ch if ch.isalnum() else "-" for ch in text]
    slug = "".join(keep).strip("-")
    while "--" in slug:
        slug = slug.replace("--", "-")
    return slug or "task"
