#!/usr/bin/env python3
"""Count the unremovable reasoning shortcuts of each task.

A shortcut is a symbol renaming the machine cannot distinguish from the
identity on any input string.  Shortcuts bound what reward-driven symbol
grounding can ever recover: a grounder trained only on reward sequences is
at best correct up to one of them.  The pruned search visits each
candidate's reachable state pairs once, and only for one candidate per
column class: symbols that move every state alike (here the no-op symbols
past a task's own) are interchangeable as images, so task 1's 108
level-1 candidates share 4 searches.  The brute-force baseline instead
materializes the whole bounded string support per candidate, which is what
makes the speedup three orders of magnitude on the larger machines.
"""

import time

from rmkit.formulas import TASK_ALPHABET, TASK_FORMULAS, compile_formula
from rmkit.shortcuts import find_urs, format_map, urs_oracle_bounded, urs_oracle_exact

print(f"{'task':>4} {'|Q|':>4} {'shortcuts':>9} {'search':>9} {'brute force':>12} {'speedup':>8}")
for tid, text in TASK_FORMULAS.items():
    machine = compile_formula(text, TASK_ALPHABET)
    t0 = time.perf_counter()
    report = find_urs(machine)
    search_s = time.perf_counter() - t0
    bound = machine.n_states**2
    t0 = time.perf_counter()
    bounded = urs_oracle_bounded(machine, bound)
    brute_s = time.perf_counter() - t0
    assert bounded == report.survivor_set() == urs_oracle_exact(machine)
    print(f"{tid:>4} {machine.n_states:>4} {report.count:>9} {search_s*1e3:>7.1f}ms "
          f"{brute_s:>11.2f}s {brute_s/search_s:>7.0f}x")

print("\nthe 8 shortcuts of task 5 (F(a) & F(b) & G(!c)); identity first:")
machine = compile_formula(TASK_FORMULAS[5], TASK_ALPHABET)
for alpha in sorted(find_urs(machine).survivors(), key=lambda a: a != (0, 1, 2, 3, 4)):
    print("  ", format_map(alpha, TASK_ALPHABET))
print("\nreading: position i shows where symbol i goes, so 'bacde' swaps a and b.")
print("a/b are interchangeable (visits commute) and d/e are both no-ops, but c")
print("is pinned: it is the only symbol that kills the run.")
