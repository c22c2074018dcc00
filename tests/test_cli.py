import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_configs, load_params, machines
from rmkit import automata, gridworld, plotting
from rmkit.cli import main
from rmkit.errors import InputError
from rmkit.formulas import compile_formula
from rmkit.gridworld import DEFAULT_CONFIG, synth_dataset, traces_to_csv


@pytest.fixture
def task1_machine_file(tmp_path, task_machines):
    path = tmp_path / "task1.mm"
    path.write_text(automata.serialize(task_machines[1]))
    return path


def _svg_texts(path) -> list[str]:
    """The text of every <text> element of an SVG file, which must parse as XML."""
    return [el.text for el in ET.parse(path).iter("{http://www.w3.org/2000/svg}text")]


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

    def test_no_skips_flag_is_gone(self, tmp_path, task1_machine_file, capsys):
        out = tmp_path / "report.csv"
        assert main(["urs", "--machine", str(task1_machine_file), "--no-skips",
                     "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_csv(self, tmp_path, task1_machine_file):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        main(["urs", "--machine", str(task1_machine_file), "--out", str(out1)])
        main(["urs", "--machine", str(task1_machine_file), "--jobs", "2", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_lists_the_level1_product_only(self, tmp_path, compile_formula):
        # task 1 over a..h: 8**8 renamings, of which 186,624 pass level 1
        mm, out = tmp_path / "t1h.mm", tmp_path / "r.csv"
        mm.write_text(automata.serialize(compile_formula("F(a) & F(b)", tuple("abcdefgh"))))
        assert main(["urs", "--machine", str(mm), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("\n") == 186_626
        assert text.startswith("alpha,survived,iterations\n")
        assert text.splitlines()[-1].startswith("TOTAL,93312,")

    def test_malformed_machine_file(self, tmp_path):
        bad = tmp_path / "bad.mm"
        bad.write_text("mooremachine v1\nalphabet a b\nclasses 0 1\ninitial 0\nstates 1\n"
                       "state 0 class 7 next 0 0\n")
        assert main(["urs", "--machine", str(bad), "--out", str(tmp_path / "r.csv")]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["urs", "--machine", str(tmp_path / "nope.mm"),
                     "--out", str(tmp_path / "r.csv")]) == 2


class TestGround:
    def test_trains_and_saves_checkpoint(self, tmp_path, task1_machine_file, task_machines,
                                         capsys):
        traces = synth_dataset(DEFAULT_CONFIG, task_machines[1], policy="mixture", n=40, seed=2)
        trace_file = tmp_path / "traces.csv"
        trace_file.write_text(traces_to_csv(traces))
        ckpt = tmp_path / "grounder.npz"
        code = main(["ground", "--machine", str(task1_machine_file), "--traces", str(trace_file),
                     "--epochs", "3", "--out", str(ckpt)])
        assert code == 0
        assert "trained on 40 episodes in 3 epochs; final loss" in capsys.readouterr().out
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


    @pytest.mark.parametrize("rows, message", [
        ("0,0,1,0,0,0.0\n0,0,1,0,0,0.0\n", "episode 0, t 0: duplicate row"),
        ("0,0,1,0,0,0.0\n0,1,2,0,0,nan\n", "episode 0, t 1: scalar_reward 'nan' is not finite"),
    ])
    def test_bad_trace_rows_are_data_errors(self, tmp_path, task1_machine_file, capsys,
                                            rows, message):
        trace_file = tmp_path / "traces.csv"
        trace_file.write_text("episode,t,x,y,reward_class,scalar_reward\n" + rows)
        assert main(["ground", "--machine", str(task1_machine_file), "--traces",
                     str(trace_file), "--epochs", "1", "--out", str(tmp_path / "g.npz")]) == 2
        assert message in capsys.readouterr().err
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

    def test_missing_task_is_usage_error(self, tmp_path):
        assert main(["train", "--agent", "rm", "--out", str(tmp_path / "o")]) == 1

    # the A2C and grounding constants, the grid's alphabet and t_max are not settable
    # from the command line, and the experiment config file is gone
    @pytest.mark.parametrize("key", [
        "n_step", "lr", "coef_actor", "coef_critic", "coef_entropy", "grounder_period",
        "grounder_epochs", "gamma", "window", "grad_clip", "buffer_recent", "buffer_elite",
        "grounder_hidden", "grounder_lr", "alphabet", "empty_symbol", "t_max", "config"])
    def test_settings_outside_the_flags_are_usage_errors(self, tmp_path, capsys, key):
        assert main(["train", "--task", "1", "--agent", "rm", "--episodes", "1",
                     f"--{key}", "1", "--out", str(tmp_path / "o")]) == 1
        assert f"unrecognized arguments: --{key} 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_formula_title_is_escaped_in_the_svg(self, tmp_path):
        out = tmp_path / "r"
        assert main(["train", "--task", "F(a) & F(b)", "--agent", "rm", "--seeds", "0",
                     "--episodes", "2", "--out", str(out)]) == 0
        (svg,) = out.glob("*_curve.svg")
        assert "F(a) & F(b)" in _svg_texts(svg)


class TestBadArguments:
    """Flag values and output paths that must end in exit 1 or 2 with a message."""

    @pytest.fixture
    def files(self, tmp_path, task1_machine_file, task_machines):
        traces = tmp_path / "traces.csv"
        traces.write_text(traces_to_csv(synth_dataset(DEFAULT_CONFIG, task_machines[1], n=2)))
        (tmp_path / "afile").write_text("")
        (tmp_path / "latin1").write_bytes(b"mooremachine v1\n\xff\n")
        (tmp_path / "huge.map").write_text("gridmap v1\nS" + "." * 1024 + "\n"
                                           + ("." * 1025 + "\n") * 1023)
        for name, rows in (("two", "S..\n..S"), ("nostart", "...\n..."), ("ragged", "S..\n..")):
            (tmp_path / f"{name}.map").write_text(f"gridmap v1\n{rows}\n")
        no_b = [item for item in DEFAULT_CONFIG.items if item[1] != "b"]
        (tmp_path / "noB.map").write_text(
            gridworld.write_map(gridworld.GridConfig(items=tuple(no_b))))
        for name, row in (("abc", "0,abc"), ("short", "0"), ("nan", "0,nan"), ("ep", "x,1.0")):
            (tmp_path / f"{name}.csv").write_text(f"episode,return\n0,1.0\n\n{row}\n")
        for name, steps in (("gap", ((0, 0), (0, 1), (0, 5))), ("neg", ((0, 0), (1, 3), (1, -2)))):
            rows = "".join(f"{ep},{t},1,0,0,0.0\n" for ep, t in steps)
            (tmp_path / f"{name}.csv").write_text("episode,t,x,y,reward_class,scalar_reward\n" + rows)
        (tmp_path / "ok.csv").write_text("episode,return\n0,1.0\n")
        (tmp_path / "off.csv").write_text("episode,t,x,y,reward_class,scalar_reward\n0,0,99,-3,0,0.0\n")
        return {"tmp": tmp_path, "mm": task1_machine_file, "traces": traces}

    _TRAIN = "train --task 1 --agent rm --episodes 1 --out {tmp}/o"
    _GROUND = "ground --machine {mm} --traces {traces} --epochs 1"
    _BAD_ROW = "{tmp}/%s.csv, line 4: want 'episode,<finite float>', got '%s'"

    @pytest.mark.parametrize("argv, code, message", [
        (_TRAIN + " --seeds a", 1, "--seeds wants comma-separated integers, got 'a'"),
        (_TRAIN + " --seeds 0,,1", 1, "--seeds wants comma-separated integers, got '0,,1'"),
        (_TRAIN + " --seeds=", 1, "--seeds wants comma-separated integers, got ''"),
        (_TRAIN + " --seeds=-1", 2, "none negative"),
        ("train --task 1 --agent rm --episodes 0 --out {tmp}/o", 2, "must all be positive"),
        ("train --task 1 --agent rm --episodes=-1 --out {tmp}/o", 2,
         "must all be positive, got episodes = -1"),
        ("train --task 1 --agent rm --episodes abc --out {tmp}/o", 1,
         "argument --episodes: invalid int value: 'abc'"),
        ("train --task 1 --agent rm --episodes 2.5 --out {tmp}/o", 1,
         "argument --episodes: invalid int value: '2.5'"),
        (_TRAIN + " --seeds 0,x", 1, "--seeds wants comma-separated integers, got '0,x'"),
        (_TRAIN + " --jobs x", 1, "argument --jobs: invalid int value: 'x'"),
        ("train --task 1 --agent rm --episodes 1 --seeds 0 --out {tmp}/afile/o", 2,
         "cannot write {tmp}/afile/o: Not a directory"),
        (_GROUND + " --hidden 64 --out {tmp}/g.npz", 1, "unrecognized arguments: --hidden 64"),
        (_GROUND + " --seed=-1 --out {tmp}/g.npz", 1, "--seed >= 0"),
        ("ground --machine {mm} --traces {traces} --epochs 0 --out {tmp}/g.npz", 1, "--epochs >= 1"),
        ("ground --machine {mm} --traces {traces} --epochs=-3 --out {tmp}/g.npz", 1,
         "--epochs >= 1"),
        ("ground --machine {mm} --traces {tmp}/gap.csv --out {tmp}/o", 2,
         "episode 0, t 2: missing row"),
        ("ground --machine {mm} --traces {tmp}/neg.csv --out {tmp}/o", 2,
         "episode 1, t 0: missing row"),
        ("ground --machine {mm} --traces {tmp}/off.csv --out {tmp}/o", 2,
         "episode 0, t 0: cell (99, -3) is outside the 5x5 grid"),
        (_TRAIN + " --seeds 0,0", 2, "none negative or repeated"),
        (_TRAIN + " --jobs 0", 1, "--jobs must be at least 1, got 0"),
        (_TRAIN + " --jobs=-1", 1, "--jobs must be at least 1, got -1"),
        ("urs --machine {mm} --jobs 0 --out {tmp}/o", 1, "--jobs must be at least 1, got 0"),
        ("urs --machine {mm} --jobs=-5 --out {tmp}/o", 1, "--jobs must be at least 1, got -5"),
        (_GROUND + " --out {tmp}/missing/g.npz", 2, "cannot write {tmp}/missing/g.npz"),
        ("urs --machine {mm} --out {tmp}/missing/r.csv", 2, "cannot write {tmp}/missing/r.csv"),
        ("compile --formula F(a) --machine {tmp}/missing/m.mm", 2,
         "cannot write {tmp}/missing/m.mm: No such file or directory"),
        # a non-UTF-8 alphabet byte, which no machine file can hold, printed or written
        ("compile --formula F(a) --alphabet a,\udcff --machine {tmp}/o", 2,
         "symbol names must be non-empty UTF-8 free of whitespace, got '\\udcff'"),
        ("compile --formula F(a) --alphabet a,\udcff", 2,
         "symbol names must be non-empty UTF-8 free of whitespace, got '\\udcff'"),
        ("plot {tmp}/abc.csv --out {tmp}/o", 2, _BAD_ROW % ("abc", "0,abc")),
        ("plot {tmp}/short.csv --out {tmp}/o", 2, _BAD_ROW % ("short", "0")),
        ("plot {tmp}/nan.csv --out {tmp}/o", 2, _BAD_ROW % ("nan", "0,nan")),
        ("plot {tmp}/ep.csv --out {tmp}/o", 2, _BAD_ROW % ("ep", "x,1.0")),
        # a non-UTF-8 argument byte arrives as a lone surrogate
        ("plot {tmp}/ok.csv --title a\udcffb --out {tmp}/o", 1, "--title holds U+DCFF"),
        ("plot {tmp}/ok.csv --title a\x01b --out {tmp}/o", 1, "--title holds U+0001"),
        ("urs --machine {mm} --oracle bounded: --out {tmp}/o", 1, "bad oracle spec 'bounded:'"),
        ("urs --machine {mm} --oracle nope --out {tmp}/o", 1, "bad oracle spec 'nope'"),
        ("urs --machine {mm} --oracle bounded:0 --out {tmp}/o", 1, "bounded:<L> with L >= 1"),
        ("urs --machine {mm} --oracle bounded:-3 --out {tmp}/o", 1, "bounded:<L> with L >= 1"),
        ("urs --machine {tmp}/nope.mm --oracle bounded:x --out {tmp}/o", 1, "bad oracle spec"),
        ("compile --formula " + "F(" * 500 + "a" + ")" * 500, 2, "nested more than 100 deep"),
        ("compile --formula " + "F(a&" * 400 + "F(b)" + ")" * 400, 2, "nested more than 100 deep"),
        ("train --task " + "F(" * 500 + "a" + ")" * 500 + " --agent rm --episodes 1 --out {tmp}/o",
         2, "nested more than 100 deep"),
        ("train --task 9 --agent rm --episodes 1 --out {tmp}/o", 2, "task id must be 1..8, got 9"),
        ("train --task 1 --episodes 1 --out {tmp}/o", 1,
         "the following arguments are required: --agent"),
        ("train --agent rm --episodes 1 --out {tmp}/o", 1,
         "the following arguments are required: --task"),
        ("train --task 1 --agent dqn --episodes 1 --out {tmp}/o", 1,
         "argument --agent: invalid choice: 'dqn'"),
        ("urs --machine {tmp}/latin1 --out {tmp}/o", 2, "cannot read {tmp}/latin1: not UTF-8 text"),
        ("ground --machine {mm} --traces {tmp}/latin1 --out {tmp}/o", 2,
         "cannot read {tmp}/latin1: not UTF-8 text"),
        ("ground --machine {mm} --traces {traces} --map {tmp}/latin1 --out {tmp}/o", 2,
         "cannot read {tmp}/latin1: not UTF-8 text"),
        (_TRAIN + " --map {tmp}/latin1", 2, "cannot read {tmp}/latin1: not UTF-8 text"),
        (_TRAIN + " --map {tmp}/huge.map", 2, "grid 1025x1024 has over 1048576 cells"),
        (_TRAIN + " --map {tmp}/two.map", 2, "map declares two start cells"),
        (_TRAIN + " --map {tmp}/nostart.map", 2, "map declares no start cell"),
        (_TRAIN + " --map {tmp}/ragged.map", 2, "map rows must be nonempty and equal length"),
        (_TRAIN + " --map {tmp}/noB.map", 2, "task-relevant symbols ['b'] not placed on the grid"),
        (_TRAIN + " --map {tmp}/noB.map --seeds 0,1 --jobs 2", 2,
         "task-relevant symbols ['b'] not placed on the grid"),
        ("train --task G(!a) --agent rm --episodes 1 --out {tmp}/o", 2,
         "start state already sits on the top potential level"),
        ("plot {tmp}/latin1 --out {tmp}/o", 2, "cannot read {tmp}/latin1: not UTF-8 text"),
    ])
    def test_exits_with_a_message(self, files, capsys, argv, code, message):
        assert main([arg.format(**files) for arg in argv.split()]) == code
        assert message.format(**files) in capsys.readouterr().err
        assert not (files["tmp"] / "o").exists()

    def test_compile_rejects_a_symbol_name_with_whitespace(self, tmp_path, capsys):
        out = tmp_path / "m.mm"
        argv = ["compile", "--formula", "F(a)", "--alphabet", "a,b c", "--machine", str(out)]
        assert main(argv) == 2
        assert "free of whitespace, got 'b c'" in capsys.readouterr().err
        assert not out.exists()

    def test_a_huge_oracle_bound_is_the_exact_oracle(self, tmp_path, task1_machine_file, capsys):
        out = tmp_path / "r.csv"
        assert main(["urs", "--machine", str(task1_machine_file), "--oracle", "bounded:99999999999",
                     "--out", str(out)]) == 0
        assert "54 maps" in capsys.readouterr().out
        assert "oracle_agrees = True" in (tmp_path / "r.csv.timings.txt").read_text()

    def test_oversized_urs_search_is_a_data_error(self, tmp_path, capsys):
        mm = tmp_path / "big.mm"
        machine = compile_formula("G(!s0)", tuple(f"s{i}" for i in range(12)))
        mm.write_text(automata.serialize(machine))
        assert main(["urs", "--machine", str(mm), "--out", str(tmp_path / "r.csv")]) == 2
        assert f"{11**11} renamings pass level 1" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


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

    def test_title_is_escaped(self, tmp_path):
        csv = tmp_path / "r.csv"
        csv.write_text("episode,return\n0,0.0\n1,50.0\n")
        out = tmp_path / "p.svg"
        assert main(["plot", str(csv), "--title", "<a & b>", "--out", str(out)]) == 0
        assert "<a & b>" in _svg_texts(out)

    def test_a_window_past_the_series_is_the_series_length(self, tmp_path):
        csv = tmp_path / "r.csv"
        csv.write_text("episode,return\n" + "".join(f"{i},{float(i * i)!r}\n" for i in range(7)))
        huge, full = tmp_path / "huge.svg", tmp_path / "full.svg"
        assert main(["plot", str(csv), "--window", "9" * 20, "--out", str(huge)]) == 0
        assert main(["plot", str(csv), "--window", "7", "--out", str(full)]) == 0
        assert huge.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("title, label, bad", [
        ("t\x01", "returns", "plot text 't\\x01' holds U+0001"),
        ("t\udcff", "returns", "holds U+DCFF"),
        ("t", "a\x1fb", "plot text 'a\\x1fb' holds U+001F"),
        ("t", "\ufffe", "holds U+FFFE"),
    ])
    def test_svg_curves_refuses_text_an_svg_cannot_carry(self, title, label, bad):
        with pytest.raises(InputError, match=re.escape(bad)):
            plotting.svg_curves([(label, [[0.0, 1.0]])], title=title)

    def test_svg_curves_carries_tabs_escapes_and_astral_text(self, tmp_path):
        svg = tmp_path / "p.svg"
        svg.write_text(plotting.svg_curves([("a\t<&>", [[0.0, 1.0]])], title="t\U0001f600\u00e9"),
                       encoding="utf-8")
        texts = _svg_texts(svg)
        assert "a\t<&>" in texts and "t\U0001f600\u00e9" in texts


# Fuzzing: any text in a trace file gives exit 0, 1 or 2, never a traceback.
# Values are mostly well formed, so that examples get past the first check.
_bad_tokens = st.sampled_from(["", "abc", "nan", "inf", "1.5", "1,2,3", "x@1,1"])
_small_ints = st.integers(-1, 6).map(str)

_trace_row = st.tuples(
    st.integers(0, 2), st.integers(-1, 4), st.integers(-1, 5), st.integers(-1, 5),
    st.integers(-1, 3), st.one_of(st.floats(-50, 50).map(repr), st.sampled_from(["nan", "-inf"])),
).map(lambda row: ",".join(str(v) for v in row))
_trace_line = st.one_of(_trace_row, _trace_row, _trace_row,
                        st.lists(st.one_of(_small_ints, _bad_tokens), min_size=5, max_size=7)
                        .map(",".join))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.lists(_trace_line, max_size=8))
def test_fuzz_trace_csv(rows):
    machine = compile_formula("F(a) & F(b)", ("a", "b", "c", "d", "e"))
    with tempfile.TemporaryDirectory() as tmp:
        mm, traces = Path(tmp) / "m.mm", Path(tmp) / "t.csv"
        mm.write_text(automata.serialize(machine))
        traces.write_text("\n".join(["episode,t,x,y,reward_class,scalar_reward", *rows]) + "\n")
        code = main(["ground", "--machine", str(mm), "--traces", str(traces), "--epochs", "1",
                     "--out", str(Path(tmp) / "g.npz")])
        assert code in (0, 1, 2)


def _mutate_tokens(text: str, pos: int, junk: str) -> str:
    """Replace the ``pos``-th (mod count) whitespace-separated token of ``text`` by ``junk``."""
    parts = re.split(r"(\s+)", text)
    words = [i for i, part in enumerate(parts) if part and not part.isspace()]
    parts[words[pos % len(words)]] = junk
    return "".join(parts)


_junk_tokens = st.sampled_from(["", "x", "-1", "99", "1.5", "nan", "state", "next", "0 0", "\n"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(machine=machines(), mutate=st.booleans(), pos=st.integers(0, 60), junk=_junk_tokens,
       oracle=st.sampled_from(["none", "exact", "bounded:3", "bounded:x", "nope"]),
       jobs=st.sampled_from(["1", "0", "-2", "abc"]))
def test_fuzz_machine_file(machine, mutate, pos, junk, oracle, jobs):
    text = automata.serialize(machine)
    if mutate:
        text = _mutate_tokens(text, pos, junk)
    with tempfile.TemporaryDirectory() as tmp:
        mm = Path(tmp) / "m.mm"
        mm.write_text(text)
        code = main(["urs", "--machine", str(mm), "--oracle", oracle, "--jobs", jobs,
                     "--out", str(Path(tmp) / "urs.csv")])
        assert code in (0, 1, 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config=grid_configs(), mutate=st.booleans(), pos=st.integers(0, 60),
       char=st.sampled_from(".SabceX? \n"),
       task=st.sampled_from(["1", "F(a)", "F(a) & F(b)", "F(e)"]),
       agent=st.sampled_from(["rm", "nrm", "rnn"]))
def test_fuzz_grid_map(config, mutate, pos, char, task, agent):
    text = gridworld.write_map(config)
    if mutate:
        pos %= len(text)
        text = text[:pos] + char + text[pos + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        grid = Path(tmp) / "grid.map"
        grid.write_text(text)
        code = main(["train", "--task", task, "--agent", agent, "--map", str(grid),
                     "--episodes", "1", "--seeds", "0", "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)


_formula_token = st.sampled_from(["F", "G", "X", "U", "(", ")", "&", "|", "!", "->", " ",
                                  "a", "b", "c", "e", "z", "s0", "true", "false", "F(", "1"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tokens=st.lists(_formula_token, max_size=12),
       alphabet=st.sampled_from(["a,b,c,d,e", "a", "a,b", "a,a", "", ",", "s0,s1", "a,,b"]))
def test_fuzz_compile_formula(tokens, alphabet):
    assert main(["compile", "--formula", "".join(tokens), "--alphabet", alphabet]) in (0, 1, 2)
