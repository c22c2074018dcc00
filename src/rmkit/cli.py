"""Command-line entry point wiring the five subcommands.

Exit codes: 0 success, 1 usage error, 2 data/spec error.  Every subcommand
is deterministic: fixed inputs and seeds give bit-identical output files
(wall-clock timings go to stdout and a sidecar file, never into the CSVs).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import automata, gridworld, nrm, plotting, shortcuts, training
from .config import parse_experiment_config
from .errors import InputError, MachineFormatError, NumericsError, SpecificationError, UsageError
from .formulas import TASK_ALPHABET, compile_formula
from .networks import Grounder, save_params

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="rmkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a formula into a reward machine")
    p_compile.add_argument("--formula", required=True)
    p_compile.add_argument("--alphabet", default=",".join(TASK_ALPHABET),
                           help="comma-separated symbol names")
    p_compile.add_argument("--machine", help="write the machine text format here")
    p_compile.add_argument("--dot", help="write a DOT rendering here")

    p_urs = sub.add_parser("urs", help="find unremovable reasoning shortcuts")
    p_urs.add_argument("--machine", required=True)
    p_urs.add_argument("--oracle", default="none",
                       help="cross-check: exact, bounded:<L>, or none")
    p_urs.add_argument("--jobs", type=int, default=1)
    p_urs.add_argument("--no-skips", action="store_true",
                       help="disable the absorbing/self-loop pruning (same result, slower)")
    p_urs.add_argument("--out", required=True, help="report CSV path")

    p_ground = sub.add_parser("ground", help="train a symbol grounder from recorded traces")
    p_ground.add_argument("--machine", required=True)
    p_ground.add_argument("--traces", required=True, help="trace CSV path")
    p_ground.add_argument("--map", help="grid map file (defaults to the standard grid)")
    p_ground.add_argument("--epochs", type=int, default=100)
    p_ground.add_argument("--hidden", type=int, default=64)
    p_ground.add_argument("--seed", type=int, default=0)
    p_ground.add_argument("--out", required=True, help="checkpoint path (.npz)")

    p_train = sub.add_parser("train", help="run A2C training for one agent kind")
    p_train.add_argument("--task", help="task id 1..8 or formula text")
    p_train.add_argument("--agent", choices=training.AGENT_KINDS)
    p_train.add_argument("--config", help="experiment config file")
    p_train.add_argument("--episodes", type=int)
    p_train.add_argument("--seeds", help="comma-separated seeds")
    p_train.add_argument("--map", help="grid map file")
    p_train.add_argument("--jobs", type=int, default=1)
    p_train.add_argument("--out", required=True, help="output directory")

    p_plot = sub.add_parser("plot", help="smoothed learning curves from return CSVs")
    p_plot.add_argument("csv", nargs="+", help="per-seed return CSVs (episode,return)")
    p_plot.add_argument("--window", type=int, default=100)
    p_plot.add_argument("--title", default="")
    p_plot.add_argument("--out", required=True, help="SVG path")

    return parser


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _load_grid(args) -> gridworld.GridConfig:
    if getattr(args, "map", None):
        return gridworld.parse_map(_read(args.map))
    return gridworld.DEFAULT_CONFIG


def cmd_compile(args) -> int:
    alphabet = tuple(s for s in args.alphabet.split(",") if s)
    machine = compile_formula(args.formula, alphabet)
    print(f"states: {machine.n_states}")
    print(f"reward levels: {' '.join(str(c) for c in machine.output_classes)}")
    if args.machine:
        _write(args.machine, automata.serialize(machine))
        print(f"machine -> {args.machine}")
    if args.dot:
        _write(args.dot, automata.export_dot(machine))
        print(f"dot -> {args.dot}")
    if not args.machine and not args.dot:
        sys.stdout.write(automata.serialize(machine))
    return EXIT_OK


def cmd_urs(args) -> int:
    machine = automata.deserialize(_read(args.machine))
    report = shortcuts.find_urs(machine, skip_absorbing=not args.no_skips,
                                skip_selfloop=not args.no_skips, jobs=args.jobs)
    _write(args.out, shortcuts.report_to_csv(report))
    timing_lines = [
        f"algorithm_seconds = {report.timings['total']:.6f}",
        f"search_levels = {report.levels}",
        f"count = {report.count}",
    ]
    print(f"unremovable shortcuts: {report.count} of {len(report.candidates)} candidates")
    print(f"algorithm time: {report.timings['total']:.4f}s over {report.levels} levels")

    oracle_spec = args.oracle.strip().lower()
    if oracle_spec != "none":
        t0 = time.perf_counter()
        if oracle_spec == "exact":
            oracle_set = shortcuts.urs_oracle_exact(machine)
        elif oracle_spec.startswith("bounded:"):
            try:
                bound = int(oracle_spec.split(":", 1)[1])
            except ValueError:
                raise UsageError(f"bad oracle spec {args.oracle!r}")
            oracle_set = shortcuts.urs_oracle_bounded(machine, bound)
        else:
            raise UsageError(f"bad oracle spec {args.oracle!r} (want exact, bounded:<L>, none)")
        oracle_seconds = time.perf_counter() - t0
        agrees = oracle_set == report.survivor_set()
        timing_lines += [
            f"oracle = {oracle_spec}",
            f"oracle_seconds = {oracle_seconds:.6f}",
            f"oracle_count = {len(oracle_set)}",
            f"oracle_agrees = {agrees}",
        ]
        print(f"oracle ({oracle_spec}): {len(oracle_set)} maps in {oracle_seconds:.4f}s; "
              f"agreement: {agrees}")
        if not agrees:
            _write(args.out + ".timings.txt", "\n".join(timing_lines) + "\n")
            print("oracle disagreement: investigate before trusting the report", file=sys.stderr)
            return EXIT_DATA
    _write(args.out + ".timings.txt", "\n".join(timing_lines) + "\n")
    print(f"report -> {args.out}")
    return EXIT_OK


def cmd_ground(args) -> int:
    machine = automata.deserialize(_read(args.machine))
    grid = _load_grid(args)
    traces = gridworld.traces_from_csv(_read(args.traces), grid,
                                       n_classes=len(machine.output_classes))
    if not traces:
        raise InputError("trace file holds no episodes")
    params = nrm.params_from_machine(machine)
    rng = np.random.default_rng(args.seed)
    grounder = Grounder(rng, 2, len(machine.alphabet), hidden=args.hidden)
    nrm.train_grounder(params, grounder, traces, epochs=args.epochs, rng=rng)
    named = {f"p{i}": p for i, p in enumerate(grounder.params())}
    save_params(args.out, named, meta={
        "kind": "grounder",
        "hidden": args.hidden,
        "symbols": len(machine.alphabet),
        "seed": args.seed,
    })
    print(f"trained on {len(traces)} episodes; final loss "
          f"{nrm.evaluate_loss(params, grounder, traces):.4f}")
    print(f"checkpoint -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    task, agent = args.task, args.agent
    train_cfg = training.TrainConfig()
    grid = _load_grid(args)
    if args.config:
        parsed = parse_experiment_config(_read(args.config))
        task = task or parsed["task"]
        agent = agent or parsed["agent"]
        train_cfg = parsed["train"]
        if not getattr(args, "map", None):
            grid = parsed["grid"]
    if not task or not agent:
        raise UsageError("train needs --task and --agent (flags or config file)")
    if args.episodes:
        train_cfg = training.short_config(train_cfg, args.episodes, train_cfg.seeds)
    if args.seeds:
        seeds = tuple(int(s) for s in args.seeds.split(","))
        train_cfg = training.short_config(train_cfg, train_cfg.episodes, seeds)
    result = training.run_experiment(task, agent, train_cfg, grid, out_dir=args.out,
                                     jobs=args.jobs)
    curves = result["curves"]
    svg = plotting.svg_curves([(agent, list(curves.values()))], title=str(task),
                              window=train_cfg.window)
    svg_path = f"{args.out.rstrip('/')}/{training._slug(str(task))}_{agent}_curve.svg"
    _write(svg_path, svg)
    for seed, final in sorted(result["final"].items()):
        print(f"seed {seed}: final smoothed return {final:.2f}")
    print(f"outputs -> {args.out}")
    return EXIT_OK


def cmd_plot(args) -> int:
    if args.window < 1:
        raise UsageError(f"--window must be at least 1, got {args.window}")
    series = []
    for path in args.csv:
        text = _read(path)
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2 or lines[0] != "episode,return":
            raise InputError(f"{path}: expected an 'episode,return' CSV with data rows")
        series.append([float(ln.split(",")[1]) for ln in lines[1:]])
    svg = plotting.svg_curves([("returns", series)], title=args.title, window=args.window)
    _write(args.out, svg)
    print(f"plot -> {args.out}")
    return EXIT_OK


_HANDLERS = {
    "compile": cmd_compile,
    "urs": cmd_urs,
    "ground": cmd_ground,
    "train": cmd_train,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, SpecificationError, MachineFormatError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
