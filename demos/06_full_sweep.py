#!/usr/bin/env python3
"""The full benchmark sweep: 8 tasks x 3 agents x 5 seeds x 10000 episodes.

This is the complete experimental grid behind the headline comparison.  It
is hours of compute (the recurrent baseline dominates), which is why the
test suite runs only the desk-scale ordering check; run this script when
you want the whole picture.

    python3 demos/06_full_sweep.py --out sweep/ [--jobs 5] [--episodes 10000]

Outputs, per task and agent: one CSV of per-episode returns per seed, a
summary CSV of the across-seed smoothed mean and range, and one SVG
overlaying the three agents.
"""

import argparse
import os

from rmkit.formulas import TASK_FORMULAS
from rmkit.gridworld import DEFAULT_CONFIG
from rmkit.plotting import svg_curves
from rmkit.training import AGENT_KINDS, WINDOW, TrainConfig, run_experiment, run_files

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--out", default="sweep")
parser.add_argument("--episodes", type=int, default=10000)
parser.add_argument("--seeds", default="0,1,2,3,4")
parser.add_argument("--jobs", type=int, default=5, help="parallel seed workers")
parser.add_argument("--tasks", default=",".join(str(t) for t in TASK_FORMULAS))
args = parser.parse_args()

seeds = tuple(int(s) for s in args.seeds.split(","))
config = TrainConfig(episodes=args.episodes, seeds=seeds)
os.makedirs(args.out, exist_ok=True)


def write(name, text):
    path = os.path.join(args.out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


for tid in (int(t) for t in args.tasks.split(",")):
    groups = []
    for kind in AGENT_KINDS:
        result = run_experiment(tid, kind, config, DEFAULT_CONFIG, jobs=args.jobs)
        for name, text in run_files(tid, kind, result["curves"]):
            write(name, text)
        mean_final = sum(result["final"].values()) / len(result["final"])
        print(f"task {tid} {kind:>4}: mean final smoothed return {mean_final:.1f}", flush=True)
        groups.append((kind, list(result["curves"].values())))
    svg_path = write(f"task{tid}_agents.svg",
                     svg_curves(groups, title=f"task {tid}: {TASK_FORMULAS[tid]}", window=WINDOW))
    print(f"task {tid}: curves -> {svg_path}", flush=True)
