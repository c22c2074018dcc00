"""Item-collection gridworld with machine-shaped non-Markovian rewards.

The agent walks a small grid whose cells may hold one item each; stepping
onto a cell makes that cell's symbol true for the step (empty cells emit
the dedicated empty symbol).  A reward Moore machine consumes the symbol
stream and the agent receives the change in the machine state's potential
level, scaled so that reaching acceptance from the start accumulates
exactly 100 regardless of the path.  The raw observation is only the
agent's normalized (x, y) position, so the task reward is genuinely
non-Markovian in the observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automata import MooreMachine
from .errors import InputError, MachineFormatError, UsageError

MAP_HEADER = "gridmap v1"

# action order: up, down, left, right
ACTIONS = ((0, -1), (0, 1), (-1, 0), (1, 0))
ACTION_NAMES = ("up", "down", "left", "right")


@dataclass(frozen=True)
class GridConfig:
    width: int = 5
    height: int = 5
    items: tuple[tuple[tuple[int, int], str], ...] = (
        ((2, 0), "a"),
        ((4, 1), "b"),
        ((2, 2), "c"),
        ((0, 3), "d"),
    )
    start: tuple[int, int] = (0, 0)
    t_max: int = 60
    alphabet: tuple[str, ...] = ("a", "b", "c", "d", "e")
    empty_symbol: str = "e"

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise InputError("grid must be at least 2x2")
        cells = [cell for cell, _ in self.items]
        if len(set(cells)) != len(cells):
            raise InputError("at most one item per cell")
        for (x, y), symbol in self.items:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise InputError(f"item cell {(x, y)} out of bounds")
            if symbol not in self.alphabet or symbol == self.empty_symbol:
                raise InputError(f"item symbol {symbol!r} must be a non-empty alphabet symbol")
        if self.empty_symbol not in self.alphabet:
            raise InputError("alphabet must include the empty symbol")
        sx, sy = self.start
        if not (0 <= sx < self.width and 0 <= sy < self.height):
            raise InputError("start cell out of bounds")
        if self.start in set(cells):
            raise InputError("start cell must be empty")
        # label() runs on every env step: a [y][x] table of symbol indices
        items = self.item_map
        symbols = [[items.get((x, y), self.empty_symbol) for x in range(self.width)]
                   for y in range(self.height)]
        labels = tuple(tuple(self.alphabet.index(s) for s in row) for row in symbols)
        object.__setattr__(self, "_labels", labels)

    @property
    def item_map(self) -> dict[tuple[int, int], str]:
        return dict(self.items)

    def label(self, cell: tuple[int, int]) -> int:
        """Ground-truth symbol index of a cell."""
        x, y = cell
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise InputError(f"cell {cell} out of bounds")
        return self._labels[y][x]

    def encode(self, cell: tuple[int, int]) -> np.ndarray:
        """Normalized (x, y) in the unit square."""
        x, y = cell
        return np.array([x / (self.width - 1), y / (self.height - 1)])

    def all_cells(self):
        return [(x, y) for y in range(self.height) for x in range(self.width)]


DEFAULT_CONFIG = GridConfig()


@dataclass
class EpisodeTrace:
    """Aligned per-step records of one episode."""

    cells: np.ndarray  # [T, 2] raw grid coordinates
    states: np.ndarray  # [T, 2] normalized encodings (grounder input)
    reward_classes: np.ndarray  # [T] class indices into the machine's output classes
    scalar_rewards: np.ndarray  # [T] shaped rewards
    symbols: np.ndarray  # [T] ground-truth symbol indices (diagnostics only)
    episode_return: float

    def __len__(self):
        return len(self.reward_classes)


class GridWorld:
    """Deterministic grid simulator driving a ground-truth reward machine."""

    def __init__(self, config: GridConfig, machine: MooreMachine):
        if tuple(machine.alphabet) != tuple(config.alphabet):
            raise InputError("machine and grid must share an alphabet")
        placed = {symbol for _, symbol in config.items} | {config.empty_symbol}
        relevant = {
            machine.alphabet[p]
            for q in machine.states
            for p in range(len(machine.alphabet))
            if machine.transitions[q][p] != q
        }
        missing = relevant - placed
        if missing:
            raise InputError(f"task-relevant symbols {sorted(missing)} not placed on the grid")
        self.config = config
        self.machine = machine
        levels = [machine.label_of(q) for q in machine.states]
        self._pot = levels
        pot_start = levels[machine.initial]
        pot_best = max(levels)
        if pot_best <= pot_start:
            raise InputError("machine's start state already sits on the top potential level")
        self._scale = 100.0 / (pot_best - pot_start)
        self._pot_best = pot_best
        self.reset()

    def reset(self, seed: int | None = None) -> np.ndarray:
        """Start a fresh episode; returns the encoded observation."""
        del seed  # dynamics are deterministic; the argument mirrors the step API
        self.cell = self.config.start
        self.q = self.machine.initial
        self.t = 0
        self.done = False
        return self.config.encode(self.cell)

    @property
    def machine_state_onehot(self) -> np.ndarray:
        onehot = np.zeros(self.machine.n_states)
        onehot[self.q] = 1.0
        return onehot

    def step(self, action: int):
        """Move, feed the new cell's symbol to the machine, emit shaped reward.

        Returns (encoded state, scalar reward, reward-class index, done).
        """
        if self.done:
            raise UsageError("step() after the episode finished")
        if not 0 <= action < len(ACTIONS):
            raise InputError(f"action must be in [0, {len(ACTIONS)})")
        dx, dy = ACTIONS[action]
        x = min(max(self.cell[0] + dx, 0), self.config.width - 1)
        y = min(max(self.cell[1] + dy, 0), self.config.height - 1)
        self.cell = (x, y)
        symbol = self.config.label(self.cell)
        q_prev = self.q
        self.q = self.machine.transitions[q_prev][symbol]
        reward = (self._pot[self.q] - self._pot[q_prev]) * self._scale
        self.t += 1
        accepted = self._pot[self.q] == self._pot_best
        dead = self._pot[self.q] < 0
        self.done = accepted or dead or self.t >= self.config.t_max
        return self.config.encode(self.cell), reward, self.machine.outputs[self.q], self.done


def run_episode(env: GridWorld, policy, rng: np.random.Generator) -> EpisodeTrace:
    """Roll one episode under ``policy(cell, machine_state, rng) -> action``."""
    env.reset()
    cells, classes, scalars, symbols = [], [], [], []
    while not env.done:
        action = policy(env.cell, env.q, rng)
        _, reward, cls, _ = env.step(action)
        cells.append(env.cell)
        classes.append(cls)
        scalars.append(reward)
        symbols.append(env.config.label(env.cell))
    cells = np.array(cells, dtype=np.int64)
    states = np.array([env.config.encode(tuple(c)) for c in cells])
    scalars = np.array(scalars)
    return EpisodeTrace(
        cells=cells,
        states=states,
        reward_classes=np.array(classes, dtype=np.int64),
        scalar_rewards=scalars,
        symbols=np.array(symbols, dtype=np.int64),
        episode_return=float(scalars.sum()),
    )


# ---------------------------------------------------------------------------
# planning (for synthetic near-optimal rollouts)


def product_distances(config: GridConfig, machine: MooreMachine) -> dict:
    """BFS steps-to-acceptance over (cell, machine state) pairs."""
    from collections import deque

    top = max(machine.label_of(q) for q in machine.states)
    nodes = [(cell, q) for cell in config.all_cells() for q in machine.states]
    preds: dict[tuple, list] = {node: [] for node in nodes}
    for cell, q in nodes:
        if machine.label_of(q) == top or machine.label_of(q) < 0:
            continue  # absorbing for planning purposes
        for action in range(len(ACTIONS)):
            dx, dy = ACTIONS[action]
            x = min(max(cell[0] + dx, 0), config.width - 1)
            y = min(max(cell[1] + dy, 0), config.height - 1)
            q_next = machine.transitions[q][config.label((x, y))]
            preds[((x, y), q_next)].append((cell, q))
    dist = {}
    queue = deque()
    for node in nodes:
        if machine.label_of(node[1]) == top:
            dist[node] = 0
            queue.append(node)
    while queue:
        node = queue.popleft()
        for prev in preds[node]:
            if prev not in dist:
                dist[prev] = dist[node] + 1
                queue.append(prev)
    return dist


def random_policy(cell, q, rng: np.random.Generator) -> int:
    return int(rng.integers(0, len(ACTIONS)))


def make_eps_optimal_policy(config: GridConfig, machine: MooreMachine, eps: float = 0.2):
    """Greedy shortest-path-to-acceptance moves with epsilon exploration."""
    dist = product_distances(config, machine)

    def policy(cell, q, rng: np.random.Generator) -> int:
        if rng.random() < eps:
            return int(rng.integers(0, len(ACTIONS)))
        best_action, best_d = 0, np.inf
        for action in range(len(ACTIONS)):
            dx, dy = ACTIONS[action]
            x = min(max(cell[0] + dx, 0), config.width - 1)
            y = min(max(cell[1] + dy, 0), config.height - 1)
            q_next = machine.transitions[q][config.label((x, y))]
            d = dist.get(((x, y), q_next), np.inf)
            if d < best_d:
                best_d, best_action = d, action
        return best_action

    return policy


def synth_dataset(config: GridConfig, machine: MooreMachine, policy: str = "mixture",
                  n: int = 500, seed: int = 0, eps: float = 0.2) -> list[EpisodeTrace]:
    """Generate episodes under a named policy: random, eps-optimal, or mixture."""
    if policy not in ("random", "eps-optimal", "mixture"):
        raise InputError(f"unknown policy {policy!r}")
    rng = np.random.default_rng(seed)
    env = GridWorld(config, machine)
    greedy = make_eps_optimal_policy(config, machine, eps) if policy != "random" else None
    traces = []
    for i in range(n):
        if policy == "random" or (policy == "mixture" and i % 2 == 0):
            traces.append(run_episode(env, random_policy, rng))
        else:
            traces.append(run_episode(env, greedy, rng))
    return traces


def reconstruct_reward_classes(scalar_rewards, machine: MooreMachine) -> np.ndarray:
    """Recover per-step reward classes from cumulative shaped reward.

    The scalar stream telescopes the potential, so the running sum pins the
    level at every step; the machine's class list maps levels to indices.
    """
    levels = [machine.label_of(q) for q in machine.states]
    pot_start = levels[machine.initial]
    scale = 100.0 / (max(levels) - pot_start)
    level_index = {lv: machine.output_classes.index(lv) for lv in set(levels)}
    cumulative = np.cumsum(np.asarray(scalar_rewards, dtype=np.float64))
    recovered = np.rint(cumulative / scale + pot_start).astype(np.int64)
    return np.array([level_index[int(lv)] for lv in recovered], dtype=np.int64)


# ---------------------------------------------------------------------------
# text formats


def write_map(config: GridConfig) -> str:
    """Character-per-cell map: '.' empty, 'S' start, letters for items."""
    items = config.item_map
    rows = [MAP_HEADER]
    for y in range(config.height):
        row = []
        for x in range(config.width):
            if (x, y) == config.start:
                row.append("S")
            else:
                row.append(items.get((x, y), "."))
        rows.append("".join(row))
    return "\n".join(rows) + "\n"


def parse_map(text: str, alphabet=("a", "b", "c", "d", "e"), empty_symbol="e",
              t_max: int = 60) -> GridConfig:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != MAP_HEADER:
        raise MachineFormatError(f"expected header {MAP_HEADER!r}")
    rows = lines[1:]
    if not rows or len({len(r) for r in rows}) != 1:
        raise MachineFormatError("map rows must be nonempty and equal length")
    start = None
    items = []
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch == ".":
                continue
            if ch == "S":
                if start is not None:
                    raise MachineFormatError("map declares two start cells")
                start = (x, y)
            elif ch in alphabet and ch != empty_symbol:
                items.append(((x, y), ch))
            else:
                raise MachineFormatError(f"unknown map character {ch!r}")
    if start is None:
        raise MachineFormatError("map declares no start cell")
    try:
        return GridConfig(width=len(rows[0]), height=len(rows), items=tuple(items),
                          start=start, t_max=t_max, alphabet=tuple(alphabet),
                          empty_symbol=empty_symbol)
    except InputError as exc:
        raise MachineFormatError(str(exc)) from exc


def traces_to_csv(traces) -> str:
    """One row per step: episode id, t, x, y, reward-class index, scalar reward."""
    lines = ["episode,t,x,y,reward_class,scalar_reward"]
    for ep, trace in enumerate(traces):
        for t in range(len(trace)):
            x, y = trace.cells[t]
            lines.append(
                f"{ep},{t},{x},{y},{int(trace.reward_classes[t])},{float(trace.scalar_rewards[t])!r}"
            )
    return "\n".join(lines) + "\n"


def traces_from_csv(text: str, config: GridConfig,
                    n_classes: int | None = None) -> list[EpisodeTrace]:
    """Parse :func:`traces_to_csv` output; ``n_classes`` bounds ``reward_class``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "episode,t,x,y,reward_class,scalar_reward":
        raise MachineFormatError("bad trace CSV header")
    episodes: dict[int, list] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 6:
            raise MachineFormatError(f"bad trace row: {ln!r}")
        try:
            ep, t, x, y, cls = (int(v) for v in parts[:5])
            reward = float(parts[5])
        except ValueError as exc:
            raise MachineFormatError(f"bad trace row: {ln!r}") from exc
        if cls < 0 or (n_classes is not None and cls >= n_classes):
            limit = "" if n_classes is None else f" (the machine has {n_classes} classes)"
            raise InputError(f"episode {ep}, t {t}: reward_class {cls} out of range{limit}")
        episodes.setdefault(ep, []).append((t, (x, y), cls, reward))
    traces = []
    for ep in sorted(episodes):
        rows = sorted(episodes[ep])
        cells = np.array([cell for _, cell, _, _ in rows], dtype=np.int64)
        traces.append(
            EpisodeTrace(
                cells=cells,
                states=np.array([config.encode(tuple(c)) for c in cells]),
                reward_classes=np.array([cls for _, _, cls, _ in rows], dtype=np.int64),
                scalar_rewards=np.array([r for _, _, _, r in rows]),
                symbols=np.array([config.label(tuple(c)) for c in cells], dtype=np.int64),
                episode_return=float(sum(r for _, _, _, r in rows)),
            )
        )
    return traces
