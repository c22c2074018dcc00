#!/usr/bin/env python3
"""Compare the three agents on task 1 at desk scale.

* rm  - sees the exact machine state (needs the ground-truth labeler);
        the upper bound.
* nrm - same machine knowledge but no labeler; a grounder learned from
        reward sequences provides a probabilistic machine state.
* rnn - no task knowledge; an LSTM summarizes observation history.

This is a shortened run (800 episodes, 2 seeds) so it finishes in a couple
of minutes; see 06_full_sweep.py for the complete configuration.  The
expected picture: rm converges fastest, nrm tracks it closely once the
grounder locks in, and the plain rnn lags or plateaus on a local optimum.
"""

from rmkit.gridworld import DEFAULT_CONFIG
from rmkit.plotting import svg_curves
from rmkit.training import WINDOW, TrainConfig, run_experiment

config = TrainConfig(episodes=800, seeds=(0, 1))
groups = []
for kind in ("rm", "nrm", "rnn"):
    result = run_experiment(1, kind, config, DEFAULT_CONFIG, jobs=2)
    finals = {s: round(v, 1) for s, v in result["final"].items()}
    print(f"{kind:>4}: final smoothed returns per seed {finals}")
    groups.append((kind, list(result["curves"].values())))

with open("agent_comparison.svg", "w") as fh:
    fh.write(svg_curves(groups, title="task 1: F(a) & F(b)", window=WINDOW))
print("\nlearning curves written to agent_comparison.svg")
