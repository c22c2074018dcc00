"""Search for unremovable reasoning shortcuts of a reward machine.

A reasoning shortcut is a symbol renaming ``alpha`` under which the machine
produces the same output sequence on ``alpha(x)`` as on ``x``.  Shortcuts
surviving every string (complete support) are *unremovable*: no dataset can
ever falsify them, so a symbol grounder trained on machine outputs alone
can at best be correct up to one of them.

Three routes are implemented:

* :func:`find_urs` - the pruned search.  Level 1 (every length-1 string)
  splits by symbol: ``alpha`` survives it exactly when each ``alpha(p)``
  leads from the initial state to a state with the same output as ``p``
  does.  So only the Cartesian product of those per-symbol image sets is
  built, never the |P|^|P| table.  Symbols with the same column
  ``delta(., r)`` are interchangeable as images: ``alpha`` reads
  ``alpha(p)`` only through that column.  So the search runs on the
  class rows, the product with each image set cut to one symbol per
  column class, and the report keeps one outcome per class row, which
  every renaming of the product takes.  Each class row keeps a frontier of
  (state-under-x, state-under-alpha(x)) pairs, deduplicated per row over
  its lifetime; extensions are skipped when both sides sit in absorbing
  states (suffixes can never diverge) or when a symbol self-loops both
  sides (pumping adds nothing).  Two loops run that search and give the
  same results: a class product of at most ``_PY_ROWS`` rows runs one row
  at a time on Python sets of state pairs (:func:`_row_loop`), where a
  numpy call would cost more than the work; a larger one advances the
  frontiers of all rows together as boolean arrays, one gather and one
  scatter per level (:func:`_level_loop`).
* :func:`urs_oracle_exact` - per-candidate machine equivalence via
  synchronized-product reachability; the ground truth.
* :func:`urs_oracle_bounded` - string-semantics brute force over all
  strings up to a length bound, kept naive on purpose: per level it
  materializes representative strings and re-checks complete output traces
  with :func:`is_working`.  At bound ``|Q|^2`` it is exact (any divergence
  shows up within the product state space) and serves as the timing
  baseline.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .automata import MooreMachine, absorbing_states, run_string
from .errors import InputError

__all__ = [
    "enumerate_maps",
    "apply_map",
    "format_map",
    "is_working",
    "find_urs",
    "urs_oracle_exact",
    "urs_oracle_bounded",
    "UrsReport",
    "iter_report_csv",
]


def apply_map(alpha: Sequence[int], x: Sequence[int]) -> tuple[int, ...]:
    return tuple(alpha[p] for p in x)


def format_map(alpha: Sequence[int], alphabet: Sequence[str]) -> str:
    """alpha's images by name: run together when every name in ``alphabet`` is one
    character, else comma-separated, so one alphabet always gives one form."""
    return _separator(alphabet).join(alphabet[a] for a in alpha)


def _separator(alphabet: Sequence[str]) -> str:
    return "" if all(len(n) == 1 for n in alphabet) else ","


def _csv_field(text: str) -> str:
    """``text`` as one RFC 4180 field: quoted, with ``"`` doubled, if it holds ``,`` or ``"``."""
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


def enumerate_maps(n_symbols: int) -> Iterator[tuple[int, ...]]:
    """All |P|^|P| renamings in lexicographic order."""
    if n_symbols < 1:
        raise InputError("alphabet must have at least one symbol")
    return itertools.product(range(n_symbols), repeat=n_symbols)


def is_working(m: MooreMachine, alpha: Sequence[int], dataset) -> bool:
    """True iff the machine's output trace on x matches the trace on alpha(x) for every x."""
    for x in dataset:
        if run_string(m, x)[1] != run_string(m, apply_map(alpha, x))[1]:
            return False
    return True


# ---------------------------------------------------------------------------
# Pruned search


@dataclass
class UrsReport:
    """Search outcome: surviving renamings plus per-class-row diagnostics.

    Only the product of ``images`` survives level 1.  Each renaming in it
    takes the outcome of its class row, the product of ``classes``.
    """

    alphabet: tuple[str, ...]
    images: tuple[tuple[int, ...], ...]  # images[p]: the alpha(p) that pass level 1, ascending
    classes: tuple[tuple[int, ...], ...]  # classes[p][i]: column class of images[p][i] among images[p]'s
    survived: np.ndarray  # [C] bool, per class row
    iterations: np.ndarray  # [C] int, level at which each class row resolved
    peak_pairs: np.ndarray  # [C] int, largest frontier reached per class row
    levels: int  # outer-loop iterations of the search
    timings: dict[str, float]

    @property
    def count(self) -> int:
        sizes = [np.bincount(c) for c in self.classes]  # per position, the size of each class
        return int(_product_array(sizes).prod(axis=1)[self.survived].sum())

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The level-1 product in blocks of ``_BLOCK_ROWS`` rows, each with its rows' class rows."""
        radix = [max(c) + 1 for c in self.classes]
        for lo in range(0, math.prod(len(a) for a in self.images), _BLOCK_ROWS):
            classes = _product_array(self.classes, lo, lo + _BLOCK_ROWS)
            yield _product_array(self.images, lo, lo + _BLOCK_ROWS), np.ravel_multi_index(classes.T, radix)

    def survivors(self) -> list[tuple[int, ...]]:
        return [tuple(int(v) for v in row)
                for rows, index in self.blocks() for row in rows[self.survived[index]]]

    def survivor_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.survivors())


def _machine_tables(m: MooreMachine):
    """The pair tables of the level loop, over pairs j = q1 * |Q| + q2.

    ``bad``: the pairs whose outputs differ.  ``ext_pair``: the pairs not
    absorbing on both sides.  ``target[(p * |P| + r) * |Q|^2 + j]``: the pair
    reached from j by reading p on the left and r on the right.
    """
    n = m.n_states
    delta = np.array(m.transitions, dtype=np.int64).T  # [P, Q]
    out = np.array(m.outputs, dtype=np.int64)
    bad = (out[:, np.newaxis] != out).reshape(-1)
    absorbing = np.zeros(n, dtype=bool)
    absorbing[list(absorbing_states(m))] = True
    ext_pair = ~(absorbing[:, np.newaxis] & absorbing).reshape(-1)
    target = (delta * n)[:, np.newaxis, :, np.newaxis] + delta[np.newaxis, :, np.newaxis, :]
    return bad, ext_pair, target.reshape(-1)


def _level1_images(m: MooreMachine) -> tuple[tuple[int, ...], ...]:
    """Per symbol p, every r whose first step matches p's output: alpha(p) must be one."""
    first = [m.outputs[q] for q in m.transitions[m.initial]]
    return tuple(tuple(r for r, o in enumerate(first) if o == first[p]) for p in range(len(first)))


def _column_reps(m: MooreMachine) -> list[int]:
    """rep[r]: the first symbol whose column delta(., r) equals r's."""
    first: dict[tuple[int, ...], int] = {}
    return [first.setdefault(col, r) for r, col in enumerate(zip(*m.transitions))]


def _product_array(images: Sequence[Sequence[int]], lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Rows ``lo``..``hi`` (cut to the end) of the product of ``images``, lexicographic if each is ascending."""
    sizes = [len(a) for a in images]
    total = math.prod(sizes)
    hi = total if hi is None else min(hi, total)
    # runs of span rows: columns q.. cycle through their whole product in each, columns ..q are constant
    q, span = len(sizes), 1
    while q and span * sizes[q - 1] <= hi - lo:
        q -= 1
        span *= sizes[q]
    runs = np.arange(lo // span, -(-hi // span))
    rows = np.empty((len(runs), span, len(sizes)), dtype=np.int64)
    for p, a in enumerate(np.array(a, dtype=np.int64) for a in images):
        inner = math.prod(sizes[p + 1:])  # rows per value of column p
        if p < q:
            rows[:, :, p] = a[runs // (inner // span) % sizes[p], np.newaxis]
        else:
            rows.reshape(len(runs), -1, sizes[p], inner, len(sizes))[..., p] = a[:, np.newaxis]
    return rows.reshape(-1, len(sizes))[lo % span:lo % span + hi - lo]


_BLOCK_ROWS = 1 << 16  # rows per scatter in the level loop and per block of the product
_MAX_ROWS = 1 << 22  # level-1 product cap: the report lists every row (task 1 over 9 symbols: 3.3M)


def _level_loop(m: MooreMachine, cand: np.ndarray, skip_absorbing: bool,
                skip_selfloop: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The search on the renamings in the rows of ``cand``: per row whether it
    survives, the level it resolved at and its largest frontier, then the
    number of levels run."""
    n, k = m.n_states, len(m.alphabet)
    bad, ext_pair, target = _machine_tables(m)
    big_n = cand.shape[0]
    pairs = n * n

    alive = np.ones(big_n, dtype=bool)
    iterations = np.zeros(big_n, dtype=np.int64)

    # base[i, p]: where row i's table for reading p starts in the flat target
    # table.  Level 1 reads every symbol from the initial pair (q0, q0); each
    # image set keeps those pairs good.
    base = (np.arange(k) * k + cand) * pairs
    act = np.arange(big_n)
    fr = np.zeros((big_n, pairs), dtype=bool)
    fr[act[:, np.newaxis], target[base + m.initial * (n + 1)]] = True
    peak = fr.sum(axis=1, dtype=np.int64)

    # rows advance level by level and drop out of the active set as soon as
    # they die or their frontier stops growing
    vis = fr.copy()
    level = 1
    cap = pairs + 1
    while act.size:
        level += 1
        if level > cap:
            raise RuntimeError("URS search exceeded the product-space iteration cap")
        ext = fr & ext_pair if skip_absorbing else fr
        # every frontier entry (row r, pair c) read with every symbol at once,
        # in blocks of rows that bound the [entries, P] temporaries
        nxt = np.zeros(fr.shape, dtype=bool)
        flat = nxt.reshape(-1)
        for lo in range(0, len(act), _BLOCK_ROWS):
            r, c = np.nonzero(ext[lo:lo + _BLOCK_ROWS])
            r += lo
            targ = target[base[r] + c[:, np.newaxis]]  # [E, P]
            hit = targ + (r * pairs)[:, np.newaxis]
            flat[hit[targ != c[:, np.newaxis]] if skip_selfloop else hit] = True
        new = nxt > vis
        vis |= new
        grown = new.sum(axis=1, dtype=np.int64)
        died = new @ bad
        resolved = died | (grown == 0)
        peak[act] = np.maximum(peak[act], grown)
        if not resolved.any():
            fr = new
            continue
        alive[act[died]] = False
        iterations[act[resolved]] = level
        keep = ~resolved
        act = act[keep]
        fr = new[keep]
        vis = vis[keep]
        base = base[keep]
    return alive, iterations, peak, level


# Class products up to this many rows run on Python sets (_row_loop), larger
# ones on numpy (_level_loop, with its _product_array).  The crossover lies
# between 16 and 27 rows; best of 200 on 2 cores, Python 3.11.7, numpy 2.4.6:
# 4 rows (task 8 over a..e) 80 -> 23 us, 16 rows (task 7 over a..f) 84 -> 72
# us, 27 rows (task 2 over a..e) 122 -> 160 us, 128 rows (task 4 over a..g)
# 170 -> 681 us.
_PY_ROWS = 16


def _row_loop(m: MooreMachine, cand: Iterable[Sequence[int]], skip_absorbing: bool,
              skip_selfloop: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """:func:`_level_loop` one row at a time on Python sets of state pairs.

    Same results, same order.  ``skip_selfloop`` is accepted for the same
    signature only: a pair that reads back into itself is in the frontier,
    so it was visited already and the set difference drops it anyway.
    """
    columns = tuple(zip(*m.transitions))  # columns[p][q]: the state q reads p into
    out = m.outputs
    absorbing = absorbing_states(m) if skip_absorbing else frozenset()
    q0 = m.initial
    alive, iterations, peak = [], [], []
    for alpha in cand:
        steps = tuple((columns[p], columns[r]) for p, r in enumerate(alpha))
        fr = {(left[q0], right[q0]) for left, right in steps}
        vis = set(fr)
        top, level = len(fr), 1
        while fr:  # each level visits a new pair, so this ends by level |Q|^2 + 1
            level += 1
            new = {(left[u], right[v]) for u, v in fr
                   if u not in absorbing or v not in absorbing for left, right in steps}
            new -= vis
            vis |= new
            top = max(top, len(new))
            if any(out[u] != out[v] for u, v in new):
                break  # died, with its frontier still full
            fr = new
        alive.append(not fr)
        iterations.append(level)
        peak.append(top)
    return (np.array(alive, dtype=bool), np.array(iterations, dtype=np.int64),
            np.array(peak, dtype=np.int64), max(iterations, default=1))


def find_urs(m: MooreMachine, skip_absorbing: bool = True, skip_selfloop: bool = True) -> UrsReport:
    """All renamings alpha with machine == machine-after-alpha, by pruned search.

    Exactly the set ``{alpha : equivalent(m, relabel(m, alpha))}``.  The level
    loop runs on the class rows only: the level-1 product with every image
    set cut to the first symbol of each column class (task 1 over ``a``..``h``:
    4 rows for the 186,624 of the product).  A renaming reads its images only
    through their columns, so it shares its class row's frontiers, verdict,
    level and peak.  A class product of at most ``_PY_ROWS`` rows runs on
    Python sets, one row at a time (:func:`_row_loop`); a larger one runs on
    numpy, all rows at once (:func:`_level_loop`).  Both give the same
    arrays and level count.  The two skips never change the result (they drop
    extensions covered by the absorbing-state and pumping arguments); they
    exist to be toggled off for the pruning-neutrality check.  A level-1
    product over ``_MAX_ROWS`` renamings raises :class:`InputError` before
    any product is built.
    """
    t0 = time.perf_counter()
    images = _level1_images(m)
    rows = math.prod(len(a) for a in images)
    if rows > _MAX_ROWS:
        raise InputError(f"{rows} renamings pass level 1, over the {_MAX_ROWS} the search can hold")
    rep = _column_reps(m)
    reps = tuple(tuple(r for r in a if rep[r] == r) for a in images)
    classes = tuple(tuple(b.index(rep[r]) for r in a) for a, b in zip(images, reps))
    t_init = time.perf_counter() - t0

    t1 = time.perf_counter()
    small = math.prod(len(a) for a in reps) <= _PY_ROWS
    loop, cand = (_row_loop, itertools.product(*reps)) if small else (_level_loop, _product_array(reps))
    alive, iterations, peak, levels = loop(m, cand, skip_absorbing, skip_selfloop)
    t_search = time.perf_counter() - t1

    return UrsReport(m.alphabet, images, classes, alive, iterations, peak, levels,
                     {"init": t_init, "search": t_search, "total": time.perf_counter() - t0})


# ---------------------------------------------------------------------------
# Brute-force oracles


def urs_oracle_exact(m: MooreMachine) -> frozenset[tuple[int, ...]]:
    """Ground truth: filter every renaming by exact machine equivalence."""
    from .automata import equivalent, relabel

    k = len(m.alphabet)
    return frozenset(alpha for alpha in enumerate_maps(k) if equivalent(m, relabel(m, alpha)))


def _bounded_support(m: MooreMachine, alpha: Sequence[int], max_len: int) -> list[tuple[int, ...]]:
    """Representative strings for every (length, state-pair) up to max_len.

    One string per pair per level decides the bounded check: a shortest
    diverging string first diverges at its final output, and any
    representative of its final state pair diverges there too.
    """
    k = len(m.alphabet)
    trans = m.transitions
    level = {(trans[m.initial][p], trans[m.initial][alpha[p]]): (p,) for p in range(k)}
    support = list(level.values())
    for _ in range(max_len - 1):
        nxt: dict[tuple[int, int], tuple[int, ...]] = {}
        for (u, v), x in level.items():
            for p in range(k):
                pair = (trans[u][p], trans[v][alpha[p]])
                if pair not in nxt:
                    nxt[pair] = x + (p,)
        level = nxt
        support.extend(level.values())
    return support


def urs_oracle_bounded(m: MooreMachine, max_len: int) -> frozenset[tuple[int, ...]]:
    """Renamings working on every string of length <= max_len.

    The naive baseline: for each of the |P|^|P| candidates it materializes
    the whole bounded support (one representative string per length and
    state pair; without that reduction nothing terminates) and only then
    evaluates the conjunction over it with :func:`is_working`, re-running
    complete output traces.  None of the absorbing-state, pumping, or
    shorter-support-first arguments that speed up :func:`find_urs` are
    used, and no work is shared between candidates.  The result is a
    superset of the unremovable set, shrinking as the bound grows, and is
    exact once ``max_len >= |Q|^2``, so a larger bound is cut to ``|Q|^2``.
    """
    k = len(m.alphabet)
    if max_len < 1:
        return frozenset(enumerate_maps(k))
    max_len = min(max_len, m.n_states**2)
    survivors = []
    for alpha in enumerate_maps(k):
        if is_working(m, alpha, _bounded_support(m, alpha, max_len)):
            survivors.append(alpha)
    return frozenset(survivors)


# ---------------------------------------------------------------------------
# Report output


def iter_report_csv(report: UrsReport) -> Iterator[str]:
    """Deterministic CSV in blocks of ``_BLOCK_ROWS`` rows: one row per level-1
    product renaming (lexicographic) with its class row's outcome, then a TOTAL row.

    The alpha field is :func:`format_map`'s text, quoted (RFC 4180) when it
    holds ``,`` or ``"``.  A renaming with no row died at level 1.  Wall-times
    are deliberately excluded; identical inputs must yield bit-identical files.
    """
    yield "alpha,survived,iterations\n"
    names, sep = report.alphabet, _separator(report.alphabet)
    # rows need the quoting check only if some renaming's text can hold ',' or '"'
    field = _csv_field if any(ch in sep.join(names) for ch in ',"') else str
    tails = [f",{int(alive)},{level}\n" for alive, level in zip(report.survived, report.iterations.tolist())]
    for rows, index in report.blocks():
        yield "".join(field(sep.join([names[a] for a in alpha])) + tails[c]
                      for alpha, c in zip(rows.tolist(), index.tolist()))
    yield f"TOTAL,{report.count},{report.levels}\n"
