#!/usr/bin/env python3
"""Compile the eight benchmark tasks into reward machines.

Each temporal formula becomes a minimal Moore machine whose states carry
potential levels: the accepting states sit on the top level, every step
toward acceptance climbs one level, and avoidance violations fall into a
dedicated dead level below zero.
"""

from rmkit.automata import export_dot, serialize
from rmkit.formulas import TASK_ALPHABET, TASK_FORMULAS, compile_formula

print(f"alphabet: {', '.join(TASK_ALPHABET)} ('e' marks the empty cell)\n")
print(f"{'task':>4}  {'formula':<32} {'states':>6}  levels")
for tid, text in TASK_FORMULAS.items():
    machine = compile_formula(text, TASK_ALPHABET)
    levels = " ".join(str(c) for c in machine.output_classes)
    print(f"{tid:>4}  {text:<32} {machine.n_states:>6}  {levels}")

task1 = compile_formula(TASK_FORMULAS[1], TASK_ALPHABET)
print("\ntask 1 in the machine text format:\n")
print(serialize(task1))
with open("task1.dot", "w") as fh:
    fh.write(export_dot(task1))
print("DOT rendering written to task1.dot (render with `dot -Tsvg task1.dot`)")
