"""Command-line entry point wiring the five subcommands.

Exit codes: 0 success, 1 usage error, 2 data/spec error.  Every subcommand
is deterministic: fixed inputs and seeds give bit-identical output files
(wall-clock timings go to stdout and a sidecar file, never into the CSVs).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import automata, gridworld, nrm, plotting, shortcuts, training
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
    p_urs.add_argument("--jobs", type=int, default=1,
                       help="at least 1; ignored, the search runs in one process")
    p_urs.add_argument("--out", required=True, help="report CSV path")

    p_ground = sub.add_parser("ground", help="train a symbol grounder from recorded traces")
    p_ground.add_argument("--machine", required=True)
    p_ground.add_argument("--traces", required=True, help="trace CSV path")
    p_ground.add_argument("--map", help="grid map file (defaults to the standard grid)")
    p_ground.add_argument("--epochs", type=int, default=100)
    p_ground.add_argument("--seed", type=int, default=0)
    p_ground.add_argument("--out", required=True, help="checkpoint path (.npz)")

    p_train = sub.add_parser("train", help="run A2C training for one agent kind")
    p_train.add_argument("--task", required=True, help="task id 1..8 or formula text")
    p_train.add_argument("--agent", required=True, choices=training.AGENT_KINDS)
    p_train.add_argument("--episodes", type=int,
                         help=f"episodes per seed (default {training.TrainConfig.episodes})")
    p_train.add_argument("--seeds", help="comma-separated seeds (default "
                         + ",".join(map(str, training.TrainConfig.seeds)) + ")")
    p_train.add_argument("--map", help="grid map file (defaults to the standard grid)")
    p_train.add_argument("--jobs", type=int, default=1)
    p_train.add_argument("--out", required=True, help="output directory")

    p_plot = sub.add_parser("plot", help="smoothed learning curves from return CSVs")
    p_plot.add_argument("csv", nargs="+", help="per-seed return CSVs (episode,return)")
    p_plot.add_argument("--window", type=int, default=100)
    p_plot.add_argument("--title", default="")
    p_plot.add_argument("--out", required=True, help="SVG path")

    return parser


@contextlib.contextmanager
def _file_errors(path: str, verb: str):
    """Report a failure to read or write ``path`` as a data error."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot {verb} {path}: {exc.strerror}") from exc


def _read(path: str) -> str:
    with _file_errors(path, "read"), open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise InputError(f"cannot read {path}: not UTF-8 text") from None


def _write(path: str, text: str):
    with _file_errors(path, "write"), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_grid(args) -> gridworld.GridConfig:
    if args.map:
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


def _oracle(spec: str):
    """The ``--oracle`` spec as None or a function of the machine; checked before any search."""
    name, _, bound = spec.strip().lower().partition(":")
    if (name, bound) == ("none", ""):
        return None
    if (name, bound) == ("exact", ""):
        return shortcuts.urs_oracle_exact
    if name == "bounded" and bound.strip().isdecimal() and int(bound) >= 1:
        return lambda m: shortcuts.urs_oracle_bounded(m, int(bound))
    raise UsageError(f"bad oracle spec {spec!r} (want exact, bounded:<L> with L >= 1, or none)")


def _check_jobs(jobs: int):
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")


def cmd_urs(args) -> int:
    _check_jobs(args.jobs)
    oracle = _oracle(args.oracle)
    machine = automata.deserialize(_read(args.machine))
    report = shortcuts.find_urs(machine)
    with _file_errors(args.out, "write"), open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(shortcuts.iter_report_csv(report))
    timing_lines = [
        f"algorithm_seconds = {report.timings['total']:.6f}",
        f"search_levels = {report.levels}",
        f"count = {report.count}",
    ]
    k = len(machine.alphabet)
    print(f"unremovable shortcuts: {report.count} of {k**k} candidates")
    print(f"algorithm time: {report.timings['total']:.4f}s over {report.levels} levels")

    oracle_spec = args.oracle.strip().lower()
    agrees = True
    if oracle is not None:
        t0 = time.perf_counter()
        oracle_set = oracle(machine)
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
    _write(args.out + ".timings.txt", "\n".join(timing_lines) + "\n")
    if not agrees:
        print("oracle disagreement: investigate before trusting the report", file=sys.stderr)
        return EXIT_DATA
    print(f"report -> {args.out}")
    return EXIT_OK


def cmd_ground(args) -> int:
    if args.seed < 0 or args.epochs < 1:
        raise UsageError("ground needs --seed >= 0 and --epochs >= 1")
    machine = automata.deserialize(_read(args.machine))
    grid = _load_grid(args)
    traces = gridworld.traces_from_csv(_read(args.traces), grid,
                                       n_classes=len(machine.output_classes))
    if not traces:
        raise InputError("trace file holds no episodes")
    params = nrm.params_from_machine(machine)
    rng = np.random.default_rng(args.seed)
    grounder = Grounder(rng, 2, len(machine.alphabet))
    epochs = nrm.train_grounder(params, grounder, traces, epochs=args.epochs, rng=rng)
    named = {f"p{i}": p for i, p in enumerate(grounder.params())}
    with _file_errors(args.out, "write"):
        save_params(args.out, named, meta={
            "kind": "grounder",
            "hidden": grounder.hidden,
            "symbols": len(machine.alphabet),
            "seed": args.seed,
        })
    print(f"trained on {len(traces)} episodes in {epochs} epochs; final loss "
          f"{nrm.dataset_loss(params, grounder, traces):.4f}")
    print(f"checkpoint -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    _check_jobs(args.jobs)
    task, agent = args.task, args.agent
    train_cfg = training.TrainConfig()
    grid = _load_grid(args)
    if args.episodes is not None:
        train_cfg = dataclasses.replace(train_cfg, episodes=args.episodes)
    if args.seeds is not None:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            raise UsageError(f"--seeds wants comma-separated integers, got {args.seeds!r}") from None
        train_cfg = dataclasses.replace(train_cfg, seeds=seeds)
    # a task that does not compile, or does not fit the grid, leaves no --out behind
    gridworld.GridWorld(grid, training.resolve_task(task)[1])
    with _file_errors(args.out, "write"):
        os.makedirs(args.out, exist_ok=True)  # fails before training, not after it
        result = training.run_experiment(task, agent, train_cfg, grid, out_dir=args.out,
                                         jobs=args.jobs)
    curves = result["curves"]
    svg = plotting.svg_curves([(agent, list(curves.values()))], title=str(task),
                              window=training.WINDOW)
    svg_path = f"{args.out.rstrip('/')}/{training._slug(str(task))}_{agent}_curve.svg"
    _write(svg_path, svg)
    for seed, final in sorted(result["final"].items()):
        print(f"seed {seed}: final smoothed return {final:.2f}")
    print(f"outputs -> {args.out}")
    return EXIT_OK


def _read_returns(path: str) -> list[float]:
    """The return column of an ``episode,return`` CSV; any other data row is a data error."""
    rows = [(n, ln) for n, ln in enumerate(_read(path).splitlines(), 1) if ln.strip()]
    if len(rows) < 2 or rows[0][1] != "episode,return":
        raise InputError(f"{path}: expected an 'episode,return' CSV with data rows")
    returns = []
    for n, ln in rows[1:]:
        try:
            episode, value = ln.split(",")
            int(episode)
            value = float(value)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise InputError(f"{path}, line {n}: want 'episode,<finite float>', got {ln!r}")
        returns.append(value)
    return returns


def cmd_plot(args) -> int:
    if args.window < 1:
        raise UsageError(f"--window must be at least 1, got {args.window}")
    plotting.check_xml_text(args.title, "--title", UsageError)
    series = [_read_returns(path) for path in args.csv]
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
