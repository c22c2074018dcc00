import numpy as np
import pytest

from rmkit import automata, gridworld
from rmkit.cli import main
from rmkit.config import format_experiment_config, parse_experiment_config
from rmkit.errors import MachineFormatError
from rmkit.formulas import compile_formula
from rmkit.gridworld import DEFAULT_CONFIG, synth_dataset, traces_to_csv
from rmkit.training import TrainConfig


@pytest.fixture
def task1_machine_file(tmp_path, task_machines):
    path = tmp_path / "task1.mm"
    path.write_text(automata.serialize(task_machines[1]))
    return path


class TestCompile:
    def test_writes_dot_and_machine(self, tmp_path):
        dot = tmp_path / "out.dot"
        mm = tmp_path / "out.mm"
        code = main(["compile", "--formula", "F(a)&F(b)", "--alphabet", "a,b,c,d,e",
                     "--dot", str(dot), "--machine", str(mm)])
        assert code == 0
        assert dot.read_text().startswith("digraph moore")
        parsed = automata.deserialize(mm.read_text())
        assert parsed == compile_formula("F(a)&F(b)", ("a", "b", "c", "d", "e"))

    def test_golden_dot_for_single_visit(self, tmp_path):
        dot = tmp_path / "fa.dot"
        assert main(["compile", "--formula", "F(a)", "--alphabet", "a,b",
                     "--dot", str(dot)]) == 0
        expected = (
            "digraph moore {\n"
            "  rankdir=LR;\n"
            '  start [shape=point, label=""];\n'
            '  q0 [shape=circle, label="0:0"];\n'
            '  q1 [shape=doublecircle, label="1:1"];\n'
            "  start -> q0;\n"
            '  q0 -> q0 [label="b"];\n'
            '  q0 -> q1 [label="a"];\n'
            '  q1 -> q1 [label="a,b"];\n'
            "}\n"
        )
        assert dot.read_text() == expected

    def test_fragment_violation_is_data_error(self, capsys):
        assert main(["compile", "--formula", "G(a)", "--alphabet", "a,b"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["compile", "--formula", "F(a)", "--frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1


class TestUrs:
    def test_report_with_exact_oracle(self, tmp_path, task1_machine_file, capsys):
        out = tmp_path / "report.csv"
        code = main(["urs", "--machine", str(task1_machine_file), "--oracle", "exact",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[-1].startswith("TOTAL,54,")
        assert "agreement: True" in capsys.readouterr().out
        timings = (tmp_path / "report.csv.timings.txt").read_text()
        assert "oracle_agrees = True" in timings

    def test_bounded_oracle_spec(self, tmp_path, task1_machine_file):
        out = tmp_path / "report.csv"
        assert main(["urs", "--machine", str(task1_machine_file), "--oracle", "bounded:2",
                     "--out", str(out)]) == 0

    def test_bad_oracle_spec(self, tmp_path, task1_machine_file):
        out = tmp_path / "report.csv"
        assert main(["urs", "--machine", str(task1_machine_file), "--oracle", "sometimes",
                     "--out", str(out)]) == 1

    def test_deterministic_csv(self, tmp_path, task1_machine_file):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        main(["urs", "--machine", str(task1_machine_file), "--out", str(out1)])
        main(["urs", "--machine", str(task1_machine_file), "--jobs", "2", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_machine_file(self, tmp_path):
        bad = tmp_path / "bad.mm"
        bad.write_text("mooremachine v1\nalphabet a b\nclasses 0 1\ninitial 0\nstates 1\n"
                       "state 0 class 7 next 0 0\n")
        assert main(["urs", "--machine", str(bad), "--out", str(tmp_path / "r.csv")]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["urs", "--machine", str(tmp_path / "nope.mm"),
                     "--out", str(tmp_path / "r.csv")]) == 2


class TestGround:
    def test_trains_and_saves_checkpoint(self, tmp_path, task1_machine_file, task_machines):
        traces = synth_dataset(DEFAULT_CONFIG, task_machines[1], policy="mixture", n=40, seed=2)
        trace_file = tmp_path / "traces.csv"
        trace_file.write_text(traces_to_csv(traces))
        ckpt = tmp_path / "grounder.npz"
        code = main(["ground", "--machine", str(task1_machine_file), "--traces", str(trace_file),
                     "--epochs", "3", "--out", str(ckpt)])
        assert code == 0
        from rmkit.networks import load_params

        arrays, meta = load_params(ckpt)
        assert meta["kind"] == "grounder"
        assert len(arrays) == 6

    def test_empty_traces_is_data_error(self, tmp_path, task1_machine_file):
        trace_file = tmp_path / "traces.csv"
        trace_file.write_text("episode,t,x,y,reward_class,scalar_reward\n")
        assert main(["ground", "--machine", str(task1_machine_file), "--traces",
                     str(trace_file), "--out", str(tmp_path / "g.npz")]) == 2

    @pytest.mark.parametrize("bad_class", ["9", "-1"])
    def test_out_of_range_reward_class_is_data_error(self, tmp_path, task1_machine_file,
                                                     task_machines, capsys, bad_class):
        traces = synth_dataset(DEFAULT_CONFIG, task_machines[1], policy="mixture", n=4, seed=2)
        lines = traces_to_csv(traces).splitlines()
        ep, t, x, y, _, reward = lines[5].split(",")
        lines[5] = ",".join([ep, t, x, y, bad_class, reward])
        trace_file = tmp_path / "traces.csv"
        trace_file.write_text("\n".join(lines) + "\n")
        assert main(["ground", "--machine", str(task1_machine_file), "--traces",
                     str(trace_file), "--epochs", "1", "--out", str(tmp_path / "g.npz")]) == 2
        err = capsys.readouterr().err
        assert f"episode {ep}, t {t}: reward_class {bad_class}" in err
        assert not (tmp_path / "g.npz").exists()


class TestTrain:
    def test_writes_outputs_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code = main(["train", "--task", "1", "--agent", "rm", "--seeds", "0",
                         "--episodes", "30", "--out", str(out)])
            assert code == 0
        f1 = out1 / "1_rm_seed0.csv"
        f2 = out2 / "1_rm_seed0.csv"
        assert f1.read_bytes() == f2.read_bytes()
        assert (out1 / "1_rm_summary.csv").exists()
        assert (out1 / "1_rm_curve.svg").read_text().startswith("<svg")

    def test_config_file_drives_run(self, tmp_path):
        cfg_text = format_experiment_config("F(a)", "rm",
                                            TrainConfig(episodes=10, seeds=(0,)),
                                            gridworld.GridConfig())
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(cfg_text)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_missing_task_is_usage_error(self, tmp_path):
        assert main(["train", "--agent", "rm", "--out", str(tmp_path / "o")]) == 1


class TestPlot:
    def test_single_csv_single_line(self, tmp_path):
        csv = tmp_path / "r.csv"
        csv.write_text("episode,return\n" + "".join(f"{i},{float(i)!r}\n" for i in range(50)))
        out = tmp_path / "p.svg"
        assert main(["plot", str(csv), "--window", "10", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("<polyline") == 1  # one curve
        assert "<polygon" not in text  # no band for one series

    def test_three_seeds_mean_and_band(self, tmp_path):
        paths = []
        rng = np.random.default_rng(5)
        for s in range(3):
            p = tmp_path / f"s{s}.csv"
            rows = "".join(f"{i},{float(rng.integers(0, 100))!r}\n" for i in range(60))
            p.write_text("episode,return\n" + rows)
            paths.append(str(p))
        out = tmp_path / "p.svg"
        assert main(["plot", *paths, "--out", str(out)]) == 0
        assert "<polygon" in out.read_text()

    def test_empty_csv_is_data_error(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        assert main(["plot", str(csv), "--out", str(tmp_path / "p.svg")]) == 2

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_window_below_one_is_usage_error(self, tmp_path, window):
        csv = tmp_path / "r.csv"
        csv.write_text("episode,return\n0,0.0\n1,50.0\n")
        out = tmp_path / "p.svg"
        assert main(["plot", str(csv), "--window", window, "--out", str(out)]) == 1
        assert not out.exists()

    def test_golden_svg(self, tmp_path):
        csv = tmp_path / "r.csv"
        csv.write_text("episode,return\n0,0.0\n1,50.0\n2,100.0\n")
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["plot", str(csv), "--window", "1", "--out", str(out1)])
        main(["plot", str(csv), "--window", "1", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        # the ramp from 0 to 100 spans the frame, pinned to exact pixel coords
        assert 'points="56.00,344.91 340.00,194.00 624.00,43.09"' in out1.read_text()


class TestExperimentConfig:
    def test_round_trip(self):
        train = TrainConfig(episodes=500, seeds=(3, 4), lr=1e-3)
        grid = gridworld.GridConfig(t_max=40)
        text = format_experiment_config(2, "nrm", train, grid)
        parsed = parse_experiment_config(text)
        assert parsed["task"] == "2"
        assert parsed["agent"] == "nrm"
        assert parsed["train"] == train
        assert parsed["grid"] == grid

    def test_missing_header(self):
        with pytest.raises(MachineFormatError):
            parse_experiment_config("task = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(MachineFormatError):
            parse_experiment_config("experiment v1\n[train]\nepisoods = 10\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(MachineFormatError):
            parse_experiment_config("experiment v1\n[misc]\nx = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(MachineFormatError):
            parse_experiment_config("experiment v1\ntask = 1\ntask = 2\n")

    def test_comments_ignored(self):
        parsed = parse_experiment_config("experiment v1\n# a comment\ntask = 3\n")
        assert parsed["task"] == "3"
