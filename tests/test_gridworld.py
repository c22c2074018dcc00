import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import TASK_ALPHABET, TASK_FORMULAS, grid_configs, reconstruct_reward_classes
from rmkit.errors import InputError, MachineFormatError, UsageError
from rmkit.formulas import compile_formula
from rmkit.gridworld import (
    DEFAULT_CONFIG,
    MAX_CELLS,
    EpisodeTrace,
    GridConfig,
    GridWorld,
    make_eps_optimal_policy,
    parse_map,
    product_distances,
    random_policy,
    run_episode,
    synth_dataset,
    traces_from_csv,
    traces_to_csv,
    write_map,
)


def drive_optimal(env, max_steps=200):
    policy = make_eps_optimal_policy(env.config, env.machine, eps=0.0)
    rng = np.random.default_rng(0)
    env.reset()
    total = 0.0
    while not env.done and env.t < max_steps:
        _, r, _, _ = env.step(policy(env.cell, env.q, rng))
        total += r
    return total


class TestLabel:
    def test_item_cells(self):
        assert DEFAULT_CONFIG.label((2, 0)) == TASK_ALPHABET.index("a")
        assert DEFAULT_CONFIG.label((4, 1)) == TASK_ALPHABET.index("b")

    def test_empty_cell(self):
        assert DEFAULT_CONFIG.label((1, 1)) == TASK_ALPHABET.index("e")

    def test_alphabet_comes_from_the_tasks_not_the_fields(self):
        # every task compiles over TASK_ALPHABET, so the grid cannot set its own
        assert GridConfig.alphabet == TASK_ALPHABET
        assert GridConfig.empty_symbol == TASK_ALPHABET[-1]
        names = {f.name for f in dataclasses.fields(GridConfig)}
        assert names == {"width", "height", "items", "start", "t_max"}

    def test_out_of_bounds(self):
        with pytest.raises(InputError):
            DEFAULT_CONFIG.label((9, 0))
        with pytest.raises(InputError):
            DEFAULT_CONFIG.label((0, -1))

    @pytest.mark.parametrize("config", [
        DEFAULT_CONFIG,
        parse_map("gridmap v1\n..a...\nS...d.\n.c....\n...b..\n"),
    ])
    def test_table_matches_item_lookup_on_every_cell(self, config):
        items = config.item_map
        for cell in config.all_cells():
            expected = config.alphabet.index(items.get(cell, config.empty_symbol))
            assert config.label(cell) == expected
            assert config.label(np.array(cell, dtype=np.int64)) == expected


class TestConfigValidation:
    def test_two_items_one_cell(self):
        with pytest.raises(InputError):
            GridConfig(items=(((1, 1), "a"), ((1, 1), "b")))

    def test_start_on_item(self):
        with pytest.raises(InputError):
            GridConfig(items=(((0, 0), "a"),))

    @pytest.mark.parametrize("t_max", [0, -1])
    def test_horizon_below_one(self, t_max):
        with pytest.raises(InputError, match="t_max"):
            GridConfig(t_max=t_max)

    @pytest.mark.parametrize("width, height", [(1 << 20, 2), (60000, 60000)])
    def test_over_the_cell_cap(self, width, height):
        with pytest.raises(InputError, match=f"over {MAX_CELLS} cells"):
            GridConfig(width=width, height=height)

    def test_missing_relevant_symbol(self):
        m = compile_formula("F(a) & F(b)", TASK_ALPHABET)
        config = GridConfig(items=(((2, 0), "a"),))
        with pytest.raises(InputError):
            GridWorld(config, m)


class TestStepDynamics:
    def test_walls_clip_movement(self, task_machines):
        env = GridWorld(DEFAULT_CONFIG, task_machines[1])
        env.reset()
        env.step(0)  # up from (0,0) stays
        assert env.cell == (0, 0)
        env.step(2)  # left stays
        assert env.cell == (0, 0)

    # action order: up, down, left, right; the grid is 6 wide and 4 high
    @pytest.mark.parametrize("cell, action, inside, away", [
        ((3, 0), 0, (3, 1), 1),  # top wall
        ((3, 3), 1, (3, 2), 0),  # bottom wall
        ((0, 2), 2, (1, 2), 3),  # left wall
        ((5, 2), 3, (4, 2), 2),  # right wall
    ])
    def test_each_wall_clamps(self, cell, action, inside, away):
        config = parse_map("gridmap v1\n..a...\nS...d.\n.c....\n...b..\n")
        assert config.move(cell, action) == cell
        assert config.move(cell, away) == inside
        assert config.move(inside, action) == cell

    def test_standing_on_empty_cells_gives_zero(self, task_machines):
        env = GridWorld(DEFAULT_CONFIG, task_machines[1])
        env.reset()
        for action in (1, 0, 1, 0):  # bounce between empty cells
            _, r, cls, _ = env.step(action)
            assert r == 0.0
            assert env.machine.output_classes[cls] == 0
        assert env.t == 4

    def test_step_after_done_raises(self, task_machines):
        env = GridWorld(DEFAULT_CONFIG, task_machines[1])
        env.reset()
        drive_optimal(env)
        assert env.done
        with pytest.raises(UsageError):
            env.step(0)

    def test_horizon_terminates(self, task_machines):
        config = GridConfig(t_max=7)
        env = GridWorld(config, task_machines[1])
        env.reset()
        for _ in range(7):
            env.step(0)
        assert env.done and env.t == 7

    def test_entering_lava_kills_with_negative_reward(self, task_machines):
        m = task_machines[5]  # avoid c at (2,2)
        env = GridWorld(DEFAULT_CONFIG, m)
        env.reset()
        # walk to (2,2): right, right, down, down
        rewards = [env.step(a)[1] for a in (3, 3, 1, 1)]
        assert env.done
        assert rewards[-1] < 0
        assert env.machine.label_of(env.q) == -1

    def test_machine_state_onehot(self, task_machines):
        env = GridWorld(DEFAULT_CONFIG, task_machines[1])
        env.reset()
        onehot = env.machine_state_onehot
        assert onehot[env.machine.initial] == 1.0 and onehot.sum() == 1.0


class TestRewardScaling:
    @pytest.mark.parametrize("tid", sorted(TASK_FORMULAS))
    def test_optimal_trajectory_accumulates_exactly_100(self, tid, task_machines):
        env = GridWorld(DEFAULT_CONFIG, task_machines[tid])
        total = drive_optimal(env)
        assert env.done
        assert abs(total - 100.0) <= 1e-9

    def test_reward_class_reconstruction(self, task_machines):
        m = task_machines[5]
        traces = synth_dataset(DEFAULT_CONFIG, m, policy="mixture", n=40, seed=3)
        for trace in traces:
            recovered = reconstruct_reward_classes(trace.scalar_rewards, m)
            assert np.array_equal(recovered, trace.reward_classes)


class TestNonMarkovity:
    def test_same_final_cell_different_class(self, task_machines):
        # the same observation can carry different reward classes depending on history
        m = task_machines[1]
        env = GridWorld(DEFAULT_CONFIG, m)
        env.reset()
        env.step(3)  # (1,0) empty
        cls_before = env.machine.outputs[env.q]
        env.step(3)  # (2,0) = a
        env.step(2)  # back to (1,0)
        cls_after = env.machine.outputs[env.q]
        assert cls_before != cls_after


class TestDeterminism:
    def test_identical_seeds_identical_traces(self, task_machines):
        a = synth_dataset(DEFAULT_CONFIG, task_machines[1], policy="mixture", n=20, seed=11)
        b = synth_dataset(DEFAULT_CONFIG, task_machines[1], policy="mixture", n=20, seed=11)
        assert traces_to_csv(a) == traces_to_csv(b)

    def test_action_sequence_replay(self, task_machines):
        env = GridWorld(DEFAULT_CONFIG, task_machines[1])
        actions = [3, 3, 1, 0, 3, 1, 1, 2]
        env.reset()
        first = [env.step(a) for a in actions]
        env.reset()
        second = [env.step(a) for a in actions]
        for (s1, r1, c1, d1), (s2, r2, c2, d2) in zip(first, second):
            assert np.array_equal(s1, s2) and r1 == r2 and c1 == c2 and d1 == d2


class TestSynthDataset:
    def test_empty(self, task_machines):
        assert synth_dataset(DEFAULT_CONFIG, task_machines[1], n=0) == []

    def test_unknown_policy(self, task_machines):
        with pytest.raises(InputError):
            synth_dataset(DEFAULT_CONFIG, task_machines[1], policy="optimal")

    def test_random_covers_every_reward_class(self, task_machines):
        m = task_machines[1]
        traces = synth_dataset(DEFAULT_CONFIG, m, policy="random", n=500, seed=5)
        seen = set()
        for trace in traces:
            seen.update(int(c) for c in trace.reward_classes)
        assert seen == set(range(len(m.output_classes)))

    def test_mixture_reaches_acceptance_often(self, task_machines):
        m = task_machines[1]
        traces = synth_dataset(DEFAULT_CONFIG, m, policy="mixture", n=200, seed=7)
        accepted = sum(1 for t in traces if abs(t.episode_return - 100.0) < 1e-9)
        assert accepted / len(traces) >= 0.30

    def test_planner_distances_cover_live_states(self, task_machines):
        m = task_machines[1]
        dist = product_distances(DEFAULT_CONFIG, m)
        assert dist[(DEFAULT_CONFIG.start, m.initial)] > 0


class TestTextFormats:
    def test_map_round_trip(self):
        text = write_map(DEFAULT_CONFIG)
        parsed = parse_map(text)
        assert parsed == DEFAULT_CONFIG

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(grid_configs())
    def test_map_round_trip_hypothesis(self, config):
        assert dataclasses.replace(parse_map(write_map(config)), t_max=config.t_max) == config

    def test_map_requires_header(self):
        with pytest.raises(MachineFormatError):
            parse_map("S....\n.....\n")

    def test_map_rejects_unknown_chars(self):
        with pytest.raises(MachineFormatError):
            parse_map(f"gridmap v1\nS?...\n.....\n")

    @pytest.mark.parametrize("rows, message", [
        ("S..\n..S", "two start cells"),
        ("...\n...", "no start cell"),
        ("S..\n..", "nonempty and equal length"),
        ("", "nonempty and equal length"),
    ])
    def test_map_rejects_bad_layouts(self, rows, message):
        with pytest.raises(MachineFormatError, match=message):
            parse_map(f"gridmap v1\n{rows}\n")

    def test_map_skips_blank_lines(self):
        assert parse_map("\n" + write_map(DEFAULT_CONFIG).replace("\n", "\n  \n")) == DEFAULT_CONFIG

    def test_map_over_the_cell_cap_is_a_format_error(self):
        with pytest.raises(MachineFormatError, match="has over"):
            parse_map("gridmap v1\nS" + "." * 1024 + "\n" + ("." * 1025 + "\n") * 1023)

    def test_trace_csv_round_trip(self, task_machines):
        traces = synth_dataset(DEFAULT_CONFIG, task_machines[1], policy="mixture", n=10, seed=13)
        text = traces_to_csv(traces)
        back = traces_from_csv(text, DEFAULT_CONFIG)
        assert len(back) == len(traces)
        for t1, t2 in zip(traces, back):
            assert np.array_equal(t1.cells, t2.cells)
            assert np.array_equal(t1.reward_classes, t2.reward_classes)
            assert np.array_equal(t1.scalar_rewards, t2.scalar_rewards)
            assert np.allclose(t1.states, t2.states)

    def test_from_steps_matches_run_episode_and_csv_field_for_field(self, task_machines):
        env = GridWorld(DEFAULT_CONFIG, task_machines[1])
        rng = np.random.default_rng(17)
        env.reset()
        cells, classes, rewards, states, symbols = [], [], [], [], []
        while not env.done:
            obs, reward, cls, _ = env.step(random_policy(env.cell, env.q, rng))
            cells.append(env.cell)
            classes.append(cls)
            rewards.append(reward)
            states.append(obs)
            symbols.append(DEFAULT_CONFIG.label(env.cell))
        built = EpisodeTrace.from_steps(DEFAULT_CONFIG, cells, classes, rewards, sum(rewards))
        rolled = run_episode(env, random_policy, np.random.default_rng(17))
        parsed, = traces_from_csv(traces_to_csv([rolled]), DEFAULT_CONFIG)
        assert np.array_equal(built.states, np.array(states))
        assert built.symbols.tolist() == symbols
        for other in (rolled, parsed):
            for field in ("cells", "states", "reward_classes", "scalar_rewards", "symbols"):
                mine, theirs = getattr(built, field), getattr(other, field)
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), field
            assert other.episode_return == built.episode_return

    def test_trace_csv_class_bound(self, task_machines):
        traces = synth_dataset(DEFAULT_CONFIG, task_machines[1], policy="random", n=2, seed=13)
        text = traces_to_csv(traces)
        n = len(task_machines[1].output_classes)
        assert len(traces_from_csv(text, DEFAULT_CONFIG, n_classes=n)) == 2
        lines = text.splitlines()
        parts = lines[3].split(",")
        parts[4] = str(n)
        lines[3] = ",".join(parts)
        with pytest.raises(InputError, match=f"episode {parts[0]}, t {parts[1]}"):
            traces_from_csv("\n".join(lines), DEFAULT_CONFIG, n_classes=n)

    def test_trace_csv_non_numeric_field(self):
        text = "episode,t,x,y,reward_class,scalar_reward\n0,0,1,x,0,0.0\n"
        with pytest.raises(MachineFormatError):
            traces_from_csv(text, DEFAULT_CONFIG)

    def test_trace_csv_bad_header(self):
        with pytest.raises(MachineFormatError):
            traces_from_csv("nope\n", DEFAULT_CONFIG)

    def test_trace_csv_duplicate_row(self):
        row = "0,0,1,0,0,0.0\n"
        text = "episode,t,x,y,reward_class,scalar_reward\n" + row + row
        with pytest.raises(MachineFormatError, match="episode 0, t 0: duplicate row"):
            traces_from_csv(text, DEFAULT_CONFIG)

    @pytest.mark.parametrize("reward", ["nan", "inf", "-inf"])
    def test_trace_csv_non_finite_reward(self, reward):
        text = f"episode,t,x,y,reward_class,scalar_reward\n3,0,1,0,0,0.0\n3,1,2,0,0,{reward}\n"
        with pytest.raises(MachineFormatError, match="episode 3, t 1: scalar_reward"):
            traces_from_csv(text, DEFAULT_CONFIG)

    def test_trace_csv_rows_in_any_order(self, task_machines):
        traces = synth_dataset(DEFAULT_CONFIG, task_machines[1], policy="random", n=3, seed=5)
        header, *rows = traces_to_csv(traces).splitlines()
        back = traces_from_csv("\n".join([header, *reversed(rows)]), DEFAULT_CONFIG)
        for t1, t2 in zip(traces, back, strict=True):
            assert np.array_equal(t1.cells, t2.cells)
            assert np.array_equal(t1.reward_classes, t2.reward_classes)

    @pytest.mark.parametrize("ts, message", [
        ((0, 1, 5), "episode 0, t 2: missing row"),
        ((3, -2), "episode 0, t 0: missing row"),
        ((1,), "episode 0, t 0: missing row"),
    ])
    def test_trace_csv_gap_in_t_is_missing_row(self, ts, message):
        rows = "".join(f"0,{t},1,0,0,0.0\n" for t in ts)
        with pytest.raises(MachineFormatError, match=message):
            traces_from_csv("episode,t,x,y,reward_class,scalar_reward\n" + rows, DEFAULT_CONFIG)

    def test_trace_csv_same_t_in_other_episodes(self):
        text = "episode,t,x,y,reward_class,scalar_reward\n0,0,1,0,0,0.0\n1,0,1,0,0,0.0\n"
        assert [len(tr.cells) for tr in traces_from_csv(text, DEFAULT_CONFIG)] == [1, 1]
