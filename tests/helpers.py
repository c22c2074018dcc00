"""Shared test fixtures: hand-built machines, random generators, enumeration oracles."""

from __future__ import annotations

import csv
import io
import itertools
import re
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from rmkit import diffkit as dk
from rmkit import shortcuts
from rmkit.automata import ACCEPTOR_CLASSES, MooreMachine, minimize, run_string, shape_rewards
from rmkit.diffkit import Value, _accum
from rmkit.errors import MachineFormatError, UnsupportedConstructError
from rmkit.formulas import (
    TASK_ALPHABET,
    TASK_FORMULAS,
    And,
    Atom,
    Eventually,
    Globally,
    Not,
    _check_alphabet,
    _top_terms,
    parse,
)
from rmkit.gridworld import GridConfig
from rmkit.networks import CKPT_VERSION, OneHotGrounder
from rmkit.nrm import ProbTraces, forward
from rmkit.training import COEF_ACTOR, COEF_CRITIC, COEF_ENTROPY

# published shortcut counts for the eight tasks, identity included
TASK_URS_COUNTS = {1: 54, 2: 24, 3: 27, 4: 4, 5: 8, 6: 8, 7: 4, 8: 4}


def visit_ab_machine() -> MooreMachine:
    """Hand-built subset acceptor for visiting both a and b, over a..e."""
    return MooreMachine(
        alphabet=TASK_ALPHABET,
        transitions=(
            (1, 2, 0, 0, 0),  # {}   : a -> {a}, b -> {b}
            (1, 3, 1, 1, 1),  # {a}  : b -> {a,b}
            (3, 2, 2, 2, 2),  # {b}  : a -> {a,b}
            (3, 3, 3, 3, 3),  # {a,b}: absorbing accept
        ),
        outputs=(0, 0, 0, 1),
        output_classes=(0, 1),
    )


def visit_a_machine(alphabet=("a", "b")) -> MooreMachine:
    """Acceptor for 'a occurs at least once'."""
    a = alphabet.index("a") if isinstance(alphabet, tuple) else 0
    k = len(alphabet)
    row0 = tuple(1 if p == a else 0 for p in range(k))
    return MooreMachine(
        alphabet=tuple(alphabet),
        transitions=(row0, tuple(1 for _ in range(k))),
        outputs=(0, 1),
        output_classes=(0, 1),
    )


def restrict_alphabet(m: MooreMachine, symbols) -> MooreMachine:
    """Project the machine onto a sub-alphabet (states unchanged)."""
    cols = [m.symbol_index(s) for s in symbols]
    trans = tuple(tuple(row[c] for c in cols) for row in m.transitions)
    return MooreMachine(tuple(symbols), trans, m.outputs, m.output_classes, m.initial)


def make_oracle_grounder(config):
    """Ground-truth lookup grounder over a grid's encoded coordinates."""
    k = len(config.alphabet)

    class OracleGrounder(OneHotGrounder):
        def __call__(self, x):
            if isinstance(x, Value):
                return Value(self(x.data))
            cols = np.rint(x[:, 0] * (config.width - 1)).astype(int)
            rows = np.rint(x[:, 1] * (config.height - 1)).astype(int)
            out = np.zeros((x.shape[0], k))
            for i, cell in enumerate(zip(cols, rows)):
                out[i, config.label(cell)] = 1.0
            return out

    return OracleGrounder(k)


@st.composite
def machines(draw, max_states=5, max_symbols=4):
    """Any valid machine: free symbol names, unsorted classes, any initial state."""
    k = draw(st.integers(1, max_symbols))
    n = draw(st.integers(1, max_states))
    names = st.text("abxyz_019", min_size=1, max_size=3)
    alphabet = tuple(draw(st.lists(names, min_size=k, max_size=k, unique=True)))
    classes = tuple(draw(st.lists(st.integers(-2, 5), min_size=1, max_size=3, unique=True)))
    rows = st.lists(st.integers(0, n - 1), min_size=k, max_size=k).map(tuple)
    trans = tuple(draw(st.lists(rows, min_size=n, max_size=n)))
    outs = tuple(draw(st.lists(st.integers(0, len(classes) - 1), min_size=n, max_size=n)))
    return MooreMachine(alphabet, trans, outs, classes, draw(st.integers(0, n - 1)))


@st.composite
def grid_configs(draw):
    """Valid grids up to 5x5 on the task alphabet, items listed row by row as parse_map does."""
    width, height = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    cells = [(x, y) for y in range(height) for x in range(width)]
    start = draw(st.sampled_from(cells))
    free = [c for c in cells if c != start]
    placed = draw(st.lists(st.sampled_from(free), unique=True, max_size=4))
    symbols = draw(st.lists(st.sampled_from("abcd"), min_size=len(placed), max_size=len(placed)))
    items = tuple(sorted(zip(placed, symbols), key=lambda item: (item[0][1], item[0][0])))
    return GridConfig(width, height, items, start, t_max=draw(st.integers(1, 60)))


def all_strings(n_symbols: int, max_len: int):
    """Every symbol-index string of length 1..max_len (plus the empty string)."""
    yield ()
    for length in range(1, max_len + 1):
        yield from itertools.product(range(n_symbols), repeat=length)


def outputs_on(m: MooreMachine, x) -> tuple[int, ...]:
    return run_string(m, x)[1]


def random_machine(rng: np.random.Generator, max_states=5, max_symbols=4, max_classes=3,
                   minimized=True) -> MooreMachine:
    """Random small machine; by default minimized so state counts are meaningful."""
    n = int(rng.integers(1, max_states + 1))
    k = int(rng.integers(1, max_symbols + 1))
    c = int(rng.integers(1, max_classes + 1))
    trans = tuple(tuple(int(rng.integers(0, n)) for _ in range(k)) for _ in range(n))
    outs = tuple(int(rng.integers(0, c)) for _ in range(n))
    classes = tuple(range(c))
    alphabet = tuple("abcdefgh"[:k])
    m = MooreMachine(alphabet, trans, outs, classes, 0)
    return minimize(m) if minimized else m


def repeated_column_machine(rng: np.random.Generator, max_states=5, max_symbols=5, max_classes=3,
                            minimized=True) -> MooreMachine:
    """Random machine whose k >= 3 symbols draw their columns delta(., p) from a
    pool of 2..k-1, so at least two symbols are interchangeable as images."""
    n = int(rng.integers(2, max_states + 1))
    k = int(rng.integers(3, max_symbols + 1))
    c = int(rng.integers(2, max_classes + 1))
    pool = rng.integers(0, n, size=(int(rng.integers(2, k)), n))
    # every pool column is drawn once, the rest of the k at random
    draws = np.r_[np.arange(len(pool)), rng.integers(0, len(pool), k - len(pool))]
    columns = pool[rng.permutation(draws)]
    trans = tuple(tuple(int(q) for q in row) for row in columns.T)
    outs = tuple(int(rng.integers(0, c)) for _ in range(n))
    m = MooreMachine(tuple("abcdefgh"[:k]), trans, outs, tuple(range(c)), int(rng.integers(0, n)))
    return minimize(m) if minimized else m


def random_string(rng: np.random.Generator, n_symbols: int, max_len=8) -> tuple[int, ...]:
    length = int(rng.integers(0, max_len + 1))
    return tuple(int(rng.integers(0, n_symbols)) for _ in range(length))


def numeric_grad(f, x: np.ndarray, h=1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued function of one array."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * h)
    return g


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rtol=1e-4):
    scale = np.maximum(np.abs(numeric), 1.0)
    err = np.abs(analytic - numeric) / scale
    assert err.max() <= rtol, f"gradient mismatch: max rel err {err.max():.2e}"


@dataclass
class RowReport:
    """A URS outcome with one row per level-1 renaming, in lexicographic order."""

    candidates: np.ndarray  # [N, P] int
    survived: np.ndarray  # [N] bool
    iterations: np.ndarray  # [N] int
    peak_pairs: np.ndarray  # [N] int
    levels: int

    def survivors(self) -> list[tuple[int, ...]]:
        return [tuple(row) for row in self.candidates[self.survived].tolist()]


def per_renaming(report: shortcuts.UrsReport) -> RowReport:
    """The class-row arrays of a find_urs report copied to every renaming of
    its level-1 product, through itertools rather than the report's blocks."""
    class_rows = itertools.product(*(range(max(c) + 1) for c in report.classes))
    position = {row: i for i, row in enumerate(class_rows)}
    index = [position[row] for row in itertools.product(*report.classes)]
    cand = np.array(list(itertools.product(*report.images)), dtype=np.int64).reshape(len(index), -1)
    return RowReport(cand, report.survived[index], report.iterations[index],
                     report.peak_pairs[index], report.levels)


def full_table_urs(m: MooreMachine, skip_absorbing=True,
                   skip_selfloop=True) -> tuple[RowReport, str]:
    """The per-renaming outcome and report CSV from the level loop run on every renaming itself.

    The reference for find_urs, which runs the loop once per column class
    row and gives each renaming its class row's outcome: here all |P|^|P|
    rows are filtered by their length-1 strings and every one of the rest
    enters the level loop.  The CSV lists in lexicographic order every
    renaming that did not die at level 1, each with its own verdict, through
    ``csv.writer``, which quotes an alpha field that holds ``,`` or ``"``.
    """
    cand = np.array(list(shortcuts.enumerate_maps(len(m.alphabet))), dtype=np.int64)
    # a renaming dies at level 1 when a symbol's first output differs from its image's
    first = np.array([m.outputs[q] for q in m.transitions[m.initial]])
    cand = cand[(first[cand] == first).all(axis=1)]
    alive, iterations, peak, levels = shortcuts._level_loop(m, cand, skip_absorbing, skip_selfloop)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["alpha", "survived", "iterations"])
    for alpha, ok, level in zip(cand, alive, iterations):
        writer.writerow([shortcuts.format_map(alpha, m.alphabet), int(ok), int(level)])
    writer.writerow(["TOTAL", int(alive.sum()), levels])
    return RowReport(cand, alive, iterations, peak, levels), text.getvalue()


# ---------------------------------------------------------------------------
# references and inverses that only tests need


_DOT_LINE = re.compile(r'  \w+(?: -> \w+)? \[(?:shape=\w+, )?label="((?:[^"\\]|\\.)*)"\];')


def dot_labels(dot: str) -> list[str]:
    """The unescaped label of every line of an ``export_dot`` text that has one.
    A label that is not one well-formed DOT quoted string fails an assertion."""
    labels = []
    for line in dot.splitlines():
        if "label=" in line:
            match = _DOT_LINE.fullmatch(line)
            assert match, f"malformed DOT label line {line!r}"
            labels.append(re.sub(r"\\(.)", r"\1", match.group(1)))
    return labels


def reconstruct_reward_classes(scalar_rewards, machine: MooreMachine) -> np.ndarray:
    """Recover per-step reward classes from cumulative shaped reward.

    The scalar stream telescopes the potential, so the running sum pins the
    level at every step; the machine's class list maps levels to indices.
    """
    levels = [machine.label_of(q) for q in machine.states]
    pot_start = levels[machine.initial]
    scale = 100.0 / (max(levels) - pot_start)
    level_index = {lv: machine.output_classes.index(lv) for lv in set(levels)}
    cumulative = np.cumsum(np.asarray(scalar_rewards, dtype=np.float64))
    recovered = np.rint(cumulative / scale + pot_start).astype(np.int64)
    return np.array([level_index[int(lv)] for lv in recovered], dtype=np.int64)


def load_params(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a :func:`rmkit.networks.save_params` checkpoint: arrays and meta."""
    with np.load(path, allow_pickle=False) as data:
        if "__version__" not in data or int(data["__version__"][0]) != CKPT_VERSION:
            raise MachineFormatError(f"unsupported checkpoint version in {path}")
        params = {
            key[len("param::"):]: data[key] for key in data.files if key.startswith("param::")
        }
        meta = dict(item.split("=", 1) for item in data["__meta__"].tolist())
    return params, meta


def assign_params(named_params: dict[str, Value], arrays: dict[str, np.ndarray]):
    for name, p in named_params.items():
        if name not in arrays:
            raise MachineFormatError(f"checkpoint missing parameter {name!r}")
        if arrays[name].shape != p.data.shape:
            raise MachineFormatError(f"checkpoint shape mismatch for {name!r}")
        p.data = arrays[name].astype(np.float64)


def sg_loss(params, grounder, trace) -> Value:
    """Mean per-step cross-entropy between predicted reward probabilities
    and the trace's observed reward-class indices."""
    traces = forward(params, grounder, trace.states)
    return dk.cross_entropy(traces.rewards, np.asarray(trace.reward_classes, dtype=np.int64))


def gather_rows(a: Value, index) -> Value:
    """Rows ``a[index]`` of a ``[U, k]`` Value; backward sums each source row's grads."""
    out = Value(a.data[index], (a,))

    def backward():
        rows = a.data.shape[0]
        _accum(a, np.stack([np.bincount(index, col, rows) for col in out.grad.T], axis=1))

    out._backward = backward
    return out


def graph_epoch(params, grounder, groups, order, optimizer=None) -> float:
    """The grounding loss on the diffkit graph over the ``(xs, ys)`` length ``groups``
    in ``order``; the mean per-step loss.  The bit reference for ``nrm._GroupFit``.

    Each group runs the grounder once per distinct row and gathers; with an
    ``optimizer`` it is then one zero_grad/backward/step.
    """
    total, steps = 0.0, 0
    for gi in order:
        xs, ys = groups[gi]
        b, t_len, d = xs.shape
        rows, inverse = np.unique(xs.reshape(-1, d), axis=0, return_inverse=True)
        mt, mr = params.machine_tensors()
        p = dk.reshape(gather_rows(grounder(Value(rows)), inverse.reshape(-1)), (b, t_len, -1))
        states = list_pmm_scan(np.broadcast_to(params.q0, (b, params.n_states)).copy(), p, mt)
        loss = dk.cross_entropy(ProbTraces(p, states, mr).rewards, ys)
        if optimizer is not None:
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        total += loss.item() * ys.size
        steps += ys.size
    return total / max(steps, 1)


def step_states(net, state, xs) -> list:
    """The ``T + 1`` states ``net.step`` makes from ``state`` over the rows of ``xs``."""
    states = [state]
    for x in np.asarray(xs, dtype=np.float64):
        states.append(net.step(x, states[-1])[1])
    return states


def chained_lstm_cell(cell, x: Value, state):
    """One LSTM step recorded op by op: the reference for ``dk.lstm_backward``."""
    h, c = state
    gates = dk.reshape(dk.matmul(x, cell.wx) + dk.matmul(h, cell.wh) + cell.b, (4, cell.hidden))
    i = dk.sigmoid(dk.take(gates, 0))
    f = dk.sigmoid(dk.take(gates, 1))
    g = dk.tanh(dk.take(gates, 2))
    o = dk.sigmoid(dk.take(gates, 3))
    c_new = f * c + i * g
    return o * dk.tanh(c_new), c_new


def chained_a2c_losses(logits: Value, values: Value, actions, returns):
    """The A2C loss recorded op by op: ``training.a2c_losses`` runs its expressions."""
    actions = np.asarray(actions, dtype=np.int64)
    returns = np.asarray(returns, dtype=np.float64)
    logp = dk.log_softmax(logits, axis=-1)
    onehot = np.zeros(logits.data.shape)
    onehot[np.arange(len(actions)), actions] = 1.0
    chosen = dk.vsum(dk.mul(logp, onehot), axis=-1)
    advantages = returns - values.data
    policy_loss = -dk.vmean(dk.mul(chosen, advantages))
    err = values - returns
    value_loss = dk.vmean(dk.mul(err, err))
    probs = dk.softmax(logits, axis=-1)
    entropy = -dk.vmean(dk.vsum(dk.mul(probs, logp), axis=-1))
    total = COEF_ACTOR * policy_loss + COEF_CRITIC * value_loss - COEF_ENTROPY * entropy
    return total, {
        "policy": policy_loss.item(),
        "value": value_loss.item(),
        "entropy": entropy.item(),
    }


def list_pmm_scan(q0, p, m) -> Value:
    """The probabilistic-machine recurrence as one node: the bit reference for ``nrm``.

    ``q(t) = q(t-1) @ A(t)`` from ``q(-1) = q0`` ``[B, Q]``, with every step's
    ``A(t) = sum_i p[:, t, i] * M[i]`` from one product of ``p`` ``[B, T, P]`` and
    ``m`` ``[P, Q, Q]`` (an array or a Value); the result is ``[B, T, Q]``.  Its
    forward has the bits of ``nrm.forward_batch`` and ``nrm._GroupFit``; its backward,
    the reverse recursion of HMM forward-backward, has ``_GroupFit``'s.
    """
    q0_val = q0 if isinstance(q0, Value) else None
    p_val = p if isinstance(p, Value) else None
    m_val = m if isinstance(m, Value) else None
    q0_data = np.asarray(q0.data if q0_val is not None else q0, dtype=np.float64)
    p_data = np.asarray(p.data if p_val is not None else p, dtype=np.float64)
    m_data = np.asarray(m.data if m_val is not None else m, dtype=np.float64)
    b, t_len, n_p = p_data.shape
    n_q = q0_data.shape[1]
    p_flat = p_data.reshape(b * t_len, n_p)
    m_flat = m_data.reshape(n_p, n_q * n_q)
    a = (p_flat @ m_flat).reshape(b, t_len, n_q, n_q)
    qs = [q0_data]
    for t in range(t_len):
        qs.append((qs[t][:, None] @ a[:, t])[:, 0])
    out = Value(np.stack(qs[1:], axis=1), tuple(v for v in (q0_val, p_val, m_val) if v is not None))

    def backward():
        g = out.grad
        gq = g[:, -1].copy()
        carried = [gq]
        for t in range(t_len - 1, 0, -1):
            gq = g[:, t - 1] + (a[:, t] @ gq[..., None])[..., 0]
            carried.append(gq)
        g_all = np.stack(carried[::-1], axis=1)
        q_prev = np.stack(qs[:-1], axis=1)
        g_a = (q_prev[..., :, None] * g_all[..., None, :]).reshape(b * t_len, n_q * n_q)
        if p_val is not None:
            _accum(p_val, (g_a @ m_flat.T).reshape(b, t_len, n_p))
        if m_val is not None:
            _accum(m_val, (p_flat.T @ g_a).reshape(m_data.shape))
        if q0_val is not None:
            _accum(q0_val, (a[:, 0] @ g_all[:, 0, :, None])[..., 0])

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# A second formula compiler: symbol-wise residual expansion, the
# independent cross-check of rmkit.formulas.compile_formula
#
# A residual is kept as a DNF over F/G base terms: a frozenset of clauses,
# each clause a frozenset of AST nodes.  TRUE is the singleton {empty
# clause}; FALSE the empty set.  Absorption keeps the representation
# canonical for the monotone combinations that derivatives generate.

_TRUE = frozenset({frozenset()})
_FALSE = frozenset()


def _absorb(clauses) -> frozenset:
    cl = sorted(set(clauses), key=len)
    kept = []
    for c in cl:
        if not any(k <= c for k in kept):
            kept.append(c)
    return frozenset(kept)


def _dnf_or(a: frozenset, b: frozenset) -> frozenset:
    return _absorb(a | b)


def _dnf_and(a: frozenset, b: frozenset) -> frozenset:
    return _absorb({ca | cb for ca in a for cb in b})


def _residual(node, symbol: str) -> frozenset:
    if isinstance(node, Atom):
        return _TRUE if node.name == symbol else _FALSE
    if isinstance(node, Not):
        return _FALSE if node.body.name == symbol else _TRUE
    if isinstance(node, And):
        out = _TRUE
        for item in node.items:
            out = _dnf_and(out, _residual(item, symbol))
        return out
    if isinstance(node, Eventually):
        return _dnf_or(_residual(node.body, symbol), frozenset({frozenset({node})}))
    if isinstance(node, Globally):
        return _dnf_and(_residual(node.body, symbol), frozenset({frozenset({node})}))
    raise UnsupportedConstructError(f"unsupported node: {node!r}")


def _state_residual(state: frozenset, symbol: str) -> frozenset:
    out = _FALSE
    for clause in state:
        r = _TRUE
        for term in clause:
            r = _dnf_and(r, _residual(term, symbol))
        out = _dnf_or(out, r)
    return out


def _accepting(state: frozenset) -> bool:
    # F obligations are unsatisfiable on the empty continuation; G terms are
    # vacuously true, so a clause with no F terms accepts.
    return any(all(not isinstance(t, Eventually) for t in clause) for clause in state)


def compile_via_derivatives(formula, alphabet) -> MooreMachine:
    """Residual-expansion compiler; must agree with :func:`rmkit.formulas.compile_formula`.

    Each machine state is a normalized residual of the formula.
    """
    if isinstance(formula, str):
        formula = parse(formula)
    alphabet = _check_alphabet(formula, alphabet)
    start = frozenset({frozenset(_top_terms(formula))})
    index = {start: 0}
    order = [start]
    trans_rows: list[list[int]] = []
    i = 0
    while i < len(order):
        state = order[i]
        row = []
        for symbol in alphabet:
            nxt = _state_residual(state, symbol)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        trans_rows.append(row)
        i += 1
    outputs = tuple(int(_accepting(s)) for s in order)
    acceptor = MooreMachine(alphabet, tuple(tuple(r) for r in trans_rows), outputs, ACCEPTOR_CLASSES)
    return minimize(shape_rewards(minimize(acceptor)))
