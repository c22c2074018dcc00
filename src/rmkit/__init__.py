"""Reward-machine toolkit for non-Markovian RL.

Compiles temporal task patterns into reward-emitting Moore machines,
searches for unremovable reasoning shortcuts of a specification, and trains
differentiable probabilistic machines whose symbol grounder is learned from
reward sequences alone.
"""

__version__ = "0.1.0"

from .automata import (
    MooreMachine,
    absorbing_states,
    deserialize,
    equivalent,
    export_dot,
    minimize,
    product_conjunction,
    relabel,
    run_string,
    serialize,
    shape_rewards,
)
from .formulas import TASK_ALPHABET, TASK_FORMULAS, compile_formula, parse
from .gridworld import GridConfig, GridWorld, synth_dataset
from .nrm import (
    extract_machine,
    forward,
    params_from_machine,
    pure_learning,
    train_grounder,
    urs_corrected_accuracy,
)
from .shortcuts import enumerate_maps, find_urs, urs_oracle_bounded, urs_oracle_exact
from .training import TrainConfig, run_experiment

__all__ = [
    "MooreMachine",
    "absorbing_states",
    "deserialize",
    "equivalent",
    "export_dot",
    "minimize",
    "product_conjunction",
    "relabel",
    "run_string",
    "serialize",
    "shape_rewards",
    "TASK_ALPHABET",
    "TASK_FORMULAS",
    "compile_formula",
    "parse",
    "GridConfig",
    "GridWorld",
    "synth_dataset",
    "extract_machine",
    "forward",
    "params_from_machine",
    "pure_learning",
    "train_grounder",
    "urs_corrected_accuracy",
    "enumerate_maps",
    "find_urs",
    "urs_oracle_bounded",
    "urs_oracle_exact",
    "TrainConfig",
    "run_experiment",
]
