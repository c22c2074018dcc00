"""Shared test fixtures: hand-built machines, random generators, enumeration oracles."""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import strategies as st

from rmkit import shortcuts
from rmkit.automata import MooreMachine, minimize, run_string
from rmkit.diffkit import Value
from rmkit.formulas import TASK_ALPHABET, TASK_FORMULAS
from rmkit.gridworld import GridConfig
from rmkit.networks import OneHotGrounder

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


def full_table_urs(m: MooreMachine) -> tuple[list[tuple[int, ...]], str]:
    """Survivors and report CSV from the level loop run on every renaming.

    The reference for find_urs, which searches only the level-1 product:
    here all |P|^|P| rows enter level 1, and the CSV lists each in
    lexicographic order with its own verdict.
    """
    cand = np.array(list(shortcuts.enumerate_maps(len(m.alphabet))), dtype=np.int64)
    alive, iterations, _, levels = shortcuts._search_chunk(m, cand, True, True)
    survivors = [tuple(int(v) for v in row) for row in cand[alive]]
    lines = ["alpha,survived,iterations"]
    for i in np.lexsort(cand.T[::-1]):
        lines.append(f"{shortcuts.format_map(cand[i], m.alphabet)},{int(alive[i])},{int(iterations[i])}")
    lines.append(f"TOTAL,{len(survivors)},{levels}")
    return survivors, "\n".join(lines) + "\n"
