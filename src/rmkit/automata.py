"""Exact Moore machines over a mutually-exclusive symbol alphabet.

Every time step consumes exactly one symbol, so the alphabet is a plain list
of symbol names rather than a set of proposition valuations.  States are
dense integers ``0..n-1`` and each state's output is an index into
``output_classes``, a sorted tuple of integer labels.  Two conventions are
used throughout the package:

* acceptors (boolean machines) have ``output_classes == (0, 1)`` with label
  1 marking accepting states;
* reward machines carry potential levels as labels, with dead states (no
  path to acceptance) on the dedicated label ``-1``.

Machines are immutable and all operations are pure: they return new
machines and never mutate their arguments, so values can be shared freely
between concurrent workers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InputError, MachineFormatError, SpecificationError

FORMAT_HEADER = "mooremachine v1"

ACCEPTOR_CLASSES = (0, 1)
DEAD_LEVEL = -1


@dataclass(frozen=True)
class MooreMachine:
    """Finite-state transducer (P, Q, O, q0, delta_t, delta_o).

    ``transitions[q][p]`` is the successor of state ``q`` on the ``p``-th
    alphabet symbol; ``outputs[q]`` indexes into ``output_classes``.
    """

    alphabet: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]
    outputs: tuple[int, ...]
    output_classes: tuple[int, ...]
    initial: int = 0
    _symbol_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, k = len(self.transitions), len(self.alphabet)
        if len(set(self.alphabet)) != k or k == 0:
            raise InputError("alphabet must be non-empty and duplicate-free")
        bad = [s for s in self.alphabet if s.split() != [s] or s != s.encode("utf-8", "replace").decode()]
        if bad:  # the text format is UTF-8, so it has no lone surrogate, and splits on whitespace
            raise InputError(f"symbol names must be non-empty UTF-8 free of whitespace, got {bad[0]!r}")
        if n == 0:
            raise InputError("machine needs at least one state")
        if not 0 <= self.initial < n:
            raise InputError(f"initial state {self.initial} out of range")
        for q, row in enumerate(self.transitions):
            if len(row) != k:
                raise InputError(f"state {q}: transition row must cover all {k} symbols")
            if any(not 0 <= t < n for t in row):
                raise InputError(f"state {q}: transition target out of range")
        if len(self.outputs) != n:
            raise InputError("outputs must be total over states")
        if any(not 0 <= o < len(self.output_classes) for o in self.outputs):
            raise InputError("output index out of range of output_classes")
        object.__setattr__(self, "_symbol_index", {s: i for i, s in enumerate(self.alphabet)})

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    @property
    def states(self) -> range:
        return range(self.n_states)

    def symbol_index(self, name: str) -> int:
        try:
            return self._symbol_index[name]
        except KeyError:
            raise InputError(f"symbol {name!r} not in alphabet {self.alphabet}") from None

    def encode(self, symbols: Iterable[str]) -> tuple[int, ...]:
        """Map an iterable of symbol names to a symbol-index trace."""
        return tuple(self.symbol_index(s) for s in symbols)

    def label_of(self, state: int) -> int:
        return self.output_classes[self.outputs[state]]

    @property
    def is_acceptor(self) -> bool:
        return self.output_classes == ACCEPTOR_CLASSES


def run_string(m: MooreMachine, x: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Run a symbol-index trace, returning (state trace, output trace).

    The state trace has length ``T+1`` and starts at the initial state; the
    output trace has length ``T`` and element ``t`` is the output index of
    the state reached after ``t+1`` symbols (the initial state's output is
    not emitted).  The empty trace yields ``([q0], [])``.
    """
    k = len(m.alphabet)
    states = [m.initial]
    outputs = []
    q = m.initial
    trans, outs = m.transitions, m.outputs
    for p in x:
        if not 0 <= p < k:
            raise InputError(f"symbol index {p} out of range for alphabet size {k}")
        q = trans[q][p]
        states.append(q)
        outputs.append(outs[q])
    return tuple(states), tuple(outputs)


def final_state(m: MooreMachine, x: Sequence[int]) -> int:
    """State reached after consuming ``x`` from the initial state."""
    q = m.initial
    trans = m.transitions
    for p in x:
        q = trans[q][p]
    return q


def relabel(m: MooreMachine, alpha: Sequence[int]) -> MooreMachine:
    """Compose the machine with a symbol renaming: delta'(q, p) = delta(q, alpha(p)).

    Outputs are unchanged, so running the result on ``x`` equals running
    ``m`` on ``alpha`` applied elementwise to ``x``.
    """
    k = len(m.alphabet)
    if len(alpha) != k or any(not 0 <= a < k for a in alpha):
        raise InputError(f"renaming must be total on the {k}-symbol alphabet")
    trans = tuple(tuple(row[alpha[p]] for p in range(k)) for row in m.transitions)
    return MooreMachine(m.alphabet, trans, m.outputs, m.output_classes, m.initial)


def equivalent(m1: MooreMachine, m2: MooreMachine) -> bool:
    """Output-sequence equivalence over a shared alphabet.

    Synchronized product reachability: true iff every state pair reached by
    some nonempty string carries the same output label.  Polynomial in
    |Q1|*|Q2| and exact, which makes it the ground-truth check for symbol
    renamings.
    """
    if m1.alphabet != m2.alphabet:
        raise InputError("machines must share an alphabet")
    lab1 = [m1.label_of(q) for q in m1.states]
    lab2 = [m2.label_of(q) for q in m2.states]
    start = (m1.initial, m2.initial)
    seen = {start}
    queue = deque([start])
    symbols = range(len(m1.alphabet))
    while queue:
        u, v = queue.popleft()
        for p in symbols:
            pair = (m1.transitions[u][p], m2.transitions[v][p])
            if lab1[pair[0]] != lab2[pair[1]]:
                return False
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def _reachable(m: MooreMachine) -> list[int]:
    """States reachable from the initial state, in BFS order (symbol order breaks ties)."""
    order = [m.initial]
    seen = {m.initial}
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for t in m.transitions[q]:
            if t not in seen:
                seen.add(t)
                order.append(t)
                queue.append(t)
    return order


def canonicalize(m: MooreMachine) -> MooreMachine:
    """Renumber states in BFS order from the initial state and sort output classes.

    Unreachable states are dropped.  Canonical machines serialize
    bit-identically, which keeps state counts and file diffs reproducible.
    """
    order = _reachable(m)
    rename = {old: new for new, old in enumerate(order)}
    classes = tuple(sorted(set(m.output_classes)))
    class_index = {c: i for i, c in enumerate(classes)}
    trans = tuple(tuple(rename[m.transitions[old][p]] for p in range(len(m.alphabet))) for old in order)
    outs = tuple(class_index[m.label_of(old)] for old in order)
    return MooreMachine(m.alphabet, trans, outs, classes, 0)


def minimize(m: MooreMachine) -> MooreMachine:
    """Smallest output-equivalent machine, in canonical (BFS-numbered) form.

    Partition refinement seeded by output classes: states start grouped by
    label and a group splits whenever two members disagree on the group of
    some successor.  The quotient machine is then canonicalized.
    """
    m = canonicalize(m)
    n, k = m.n_states, len(m.alphabet)
    block = list(m.outputs)
    while True:
        sigs: dict[tuple, int] = {}
        new_block = [0] * n
        for q in range(n):
            sig = (block[q],) + tuple(block[m.transitions[q][p]] for p in range(k))
            new_block[q] = sigs.setdefault(sig, len(sigs))
        if new_block == block:
            break
        block = new_block
    n_blocks = max(block) + 1
    rep = [-1] * n_blocks
    for q in range(n):
        if rep[block[q]] < 0:
            rep[block[q]] = q
    trans = tuple(
        tuple(block[m.transitions[rep[b]][p]] for p in range(k)) for b in range(n_blocks)
    )
    outs = tuple(m.outputs[rep[b]] for b in range(n_blocks))
    quotient = MooreMachine(m.alphabet, trans, outs, m.output_classes, block[m.initial])
    return canonicalize(quotient)


def product_conjunction(m1: MooreMachine, m2: MooreMachine) -> MooreMachine:
    """Reachable synchronized product of two acceptors; accepts iff both accept."""
    if m1.alphabet != m2.alphabet:
        raise InputError("machines must share an alphabet")
    if not (m1.is_acceptor and m2.is_acceptor):
        raise InputError("product_conjunction expects boolean-output machines")
    k = len(m1.alphabet)
    start = (m1.initial, m2.initial)
    index = {start: 0}
    order = [start]
    queue = deque([start])
    while queue:
        u, v = queue.popleft()
        for p in range(k):
            pair = (m1.transitions[u][p], m2.transitions[v][p])
            if pair not in index:
                index[pair] = len(order)
                order.append(pair)
                queue.append(pair)
    trans = tuple(
        tuple(index[(m1.transitions[u][p], m2.transitions[v][p])] for p in range(k))
        for u, v in order
    )
    outs = tuple(int(m1.outputs[u] == 1 and m2.outputs[v] == 1) for u, v in order)
    return MooreMachine(m1.alphabet, trans, outs, ACCEPTOR_CLASSES, 0)


def absorbing_states(m: MooreMachine) -> frozenset[int]:
    """States with a self-loop on every symbol."""
    return frozenset(q for q in m.states if all(t == q for t in m.transitions[q]))


def shape_rewards(m: MooreMachine) -> MooreMachine:
    """Turn an acceptor into a reward machine via distance-to-acceptance potentials.

    Each state at finite BFS distance ``d`` from the nearest accepting state
    (edges are any-symbol transitions) gets potential level ``Dmax - d``
    where ``Dmax`` is the largest finite distance, so accepting states sit
    on the top level.  Dead states, from which acceptance is unreachable,
    get the dedicated level ``-1`` below every live level.
    """
    if not m.is_acceptor:
        raise InputError("shape_rewards expects a boolean-output machine")
    accepting = [q for q in m.states if m.outputs[q] == 1]
    if not accepting:
        raise SpecificationError("machine has no accepting state")
    preds: list[list[int]] = [[] for _ in m.states]
    for q in m.states:
        for t in m.transitions[q]:
            preds[t].append(q)
    dist = {q: 0 for q in accepting}
    queue = deque(accepting)
    while queue:
        q = queue.popleft()
        for p in preds[q]:
            if p not in dist:
                dist[p] = dist[q] + 1
                queue.append(p)
    d_max = max(dist.values())
    levels = [d_max - dist[q] if q in dist else DEAD_LEVEL for q in m.states]
    classes = tuple(sorted(set(levels)))
    class_index = {c: i for i, c in enumerate(classes)}
    outs = tuple(class_index[lv] for lv in levels)
    return MooreMachine(m.alphabet, m.transitions, outs, classes, m.initial)


def serialize(m: MooreMachine) -> str:
    """Line-oriented text form with a versioned header; deterministic field order."""
    lines = [
        FORMAT_HEADER,
        "alphabet " + " ".join(m.alphabet),
        "classes " + " ".join(str(c) for c in m.output_classes),
        f"initial {m.initial}",
        f"states {m.n_states}",
    ]
    for q in m.states:
        succ = " ".join(str(t) for t in m.transitions[q])
        lines.append(f"state {q} class {m.label_of(q)} next {succ}")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> MooreMachine:
    """Parse the text form produced by :func:`serialize`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise MachineFormatError(f"expected header {FORMAT_HEADER!r}")

    def expect(i: int, key: str) -> list[str]:
        if i >= len(lines):
            raise MachineFormatError(f"missing {key!r} line")
        parts = lines[i].split()
        if not parts or parts[0] != key:
            raise MachineFormatError(f"line {i + 1}: expected {key!r}, got {lines[i]!r}")
        return parts[1:]

    try:
        alphabet = tuple(expect(1, "alphabet"))
        classes = tuple(int(c) for c in expect(2, "classes"))
        initial = int(expect(3, "initial")[0])
        n = int(expect(4, "states")[0])
    except (ValueError, IndexError) as exc:
        raise MachineFormatError(f"malformed header fields: {exc}") from exc
    if len(lines) != 5 + n:
        raise MachineFormatError(f"expected {n} state lines, found {len(lines) - 5}")
    class_index = {c: i for i, c in enumerate(classes)}
    trans = []
    outs = []
    for q in range(n):
        parts = lines[5 + q].split()
        if len(parts) != 5 + len(alphabet) or parts[0] != "state" or parts[2] != "class" or parts[4] != "next":
            raise MachineFormatError(f"malformed state line: {lines[5 + q]!r}")
        try:
            sid = int(parts[1])
            label = int(parts[3])
            succ = tuple(int(t) for t in parts[5:])
        except ValueError as exc:
            raise MachineFormatError(f"malformed state line: {lines[5 + q]!r}") from exc
        if sid != q:
            raise MachineFormatError(f"state lines out of order at {lines[5 + q]!r}")
        if label not in class_index:
            raise MachineFormatError(f"state {q}: label {label} not among classes {classes}")
        trans.append(succ)
        outs.append(class_index[label])
    try:
        return MooreMachine(alphabet, tuple(trans), tuple(outs), classes, initial)
    except InputError as exc:
        raise MachineFormatError(str(exc)) from exc


def export_dot(m: MooreMachine) -> str:
    """GraphViz rendering: one node per state (id:label), parallel edges merged."""
    top = len(m.output_classes) - 1
    lines = ["digraph moore {", "  rankdir=LR;", '  start [shape=point, label=""];']
    for q in m.states:
        shape = "doublecircle" if m.outputs[q] == top else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{q}:{m.label_of(q)}"];')
    lines.append(f"  start -> q{m.initial};")
    for q in m.states:
        by_target: dict[int, list[str]] = {}
        for p, t in enumerate(m.transitions[q]):
            by_target.setdefault(t, []).append(m.alphabet[p])
        for t in sorted(by_target):
            label = ",".join(by_target[t])
            lines.append(f'  q{q} -> q{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
