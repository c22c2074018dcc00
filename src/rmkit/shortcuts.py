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
  built, never the |P|^|P| table.  Each product row then keeps a frontier
  of (state-under-x, state-under-alpha(x)) pairs, deduplicated per row
  over its lifetime; extensions are skipped when both sides sit in
  absorbing states (suffixes can never diverge) or when a symbol
  self-loops both sides (pumping adds nothing).  The frontiers of all
  rows advance together as boolean arrays, one scatter per level.
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
from typing import Iterator, Sequence

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
    names = [alphabet[a] for a in alpha]
    sep = "" if all(len(n) == 1 for n in names) else ","
    return sep.join(names)


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
    """Search outcome: surviving renamings plus per-candidate diagnostics.

    The per-candidate arrays cover only the renamings that survive level 1,
    the product of ``images``; every other renaming died at level 1.
    """

    alphabet: tuple[str, ...]
    images: tuple[tuple[int, ...], ...]  # images[p]: the alpha(p) that pass level 1, ascending
    candidates: np.ndarray  # [N, P] int, the level-1 product in lexicographic order
    survived: np.ndarray  # [N] bool, per product row
    iterations: np.ndarray  # [N] int, level at which each product row resolved
    peak_pairs: np.ndarray  # [N] int, largest frontier reached per product row
    levels: int  # outer-loop iterations of the search
    timings: dict[str, float]

    @property
    def count(self) -> int:
        return int(self.survived.sum())

    def survivors(self) -> list[tuple[int, ...]]:
        return [tuple(int(v) for v in row) for row in self.candidates[self.survived]]

    def survivor_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.survivors())


def _machine_tables(m: MooreMachine):
    n = m.n_states
    delta = np.array(m.transitions, dtype=np.int64)  # [Q, P]
    out = np.array(m.outputs, dtype=np.int64)
    pairs = n * n
    q1 = np.arange(pairs) // n
    q2 = np.arange(pairs) % n
    bad = out[q1] != out[q2]
    absorbing = np.zeros(n, dtype=bool)
    absorbing[list(absorbing_states(m))] = True
    abs_pair = absorbing[q1] & absorbing[q2]
    # target[p, r, j]: pair reached from pair j by reading p on the left and r on the right
    target = (delta[q1].T * n)[:, np.newaxis, :] + delta[q2].T[np.newaxis, :, :]
    return delta, bad, abs_pair, target


def _level1_images(m: MooreMachine) -> tuple[tuple[int, ...], ...]:
    """Per symbol p, every r whose first step matches p's output: alpha(p) must be one."""
    first = [m.outputs[m.transitions[m.initial][p]] for p in range(len(m.alphabet))]
    return tuple(tuple(r for r, o in enumerate(first) if o == first[p]) for p in range(len(first)))


def _product_array(images: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The Cartesian product of ``images`` as rows, lexicographic since each image set is ascending."""
    sizes = [len(a) for a in images]
    total = math.prod(sizes)
    rows = np.empty((total, len(images)), dtype=np.int64)
    inner = total
    for p, a in enumerate(images):
        inner //= sizes[p]
        # column p cycles through a, each value repeated over the later columns' span
        rows.reshape(-1, sizes[p], inner, len(images))[:, :, :, p] = np.array(a)[:, np.newaxis]
    return rows


_BLOCK_ROWS = 1 << 16  # rows per scatter in the level loop and per block of report text
_MAX_ROWS = 1 << 22  # level-1 product cap; task 1 over 9 symbols, 3.3M rows, peaks at 950 MB


def _search_chunk(m: MooreMachine, cand: np.ndarray, skip_absorbing: bool,
                  skip_selfloop: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    n, k = m.n_states, len(m.alphabet)
    delta, bad, abs_pair, target = _machine_tables(m)
    big_n = cand.shape[0]
    pairs = n * n
    bad_cols = np.flatnonzero(bad)

    alive = np.ones(big_n, dtype=bool)
    iterations = np.zeros(big_n, dtype=np.int64)
    peak = np.zeros(big_n, dtype=np.int64)

    # level 1: every length-1 string; each image set keeps its pairs good
    q0 = m.initial
    act = np.arange(big_n)
    fr = np.zeros((big_n, pairs), dtype=bool)
    fr[act[:, np.newaxis], delta[q0] * n + delta[q0][cand]] = True
    peak[:] = np.count_nonzero(fr, axis=1)

    # candidates advance level by level and drop out of the active set as
    # soon as they die or their frontier stops growing
    vis = fr.copy()
    ca = cand
    level = 1
    cap = pairs + 1
    symbols = np.arange(k)
    while act.size:
        level += 1
        if level > cap:
            raise RuntimeError("URS search exceeded the product-space iteration cap")
        ext = fr & ~abs_pair[np.newaxis, :] if skip_absorbing else fr
        # every frontier entry (row r, pair c) read with every symbol at once,
        # in blocks of rows that bound the [entries, P] temporaries
        nxt = np.zeros_like(fr)
        for lo in range(0, len(ca), _BLOCK_ROWS):
            r, c = np.nonzero(ext[lo:lo + _BLOCK_ROWS])
            r += lo
            targ = target[symbols, ca[r], c[:, np.newaxis]]  # [E, P]
            r = np.broadcast_to(r[:, np.newaxis], targ.shape)
            if skip_selfloop:
                moved = targ != c[:, np.newaxis]
                r, targ = r[moved], targ[moved]
            nxt[r, targ] = True
        new = nxt & ~vis
        peak[act] = np.maximum(peak[act], np.count_nonzero(new, axis=1))
        died_l = new[:, bad_cols].any(axis=1)
        empty_l = ~died_l & ~new.any(axis=1)
        alive[act[died_l]] = False
        resolved = died_l | empty_l
        iterations[act[resolved]] = level
        keep = ~resolved
        act = act[keep]
        fr = new[keep]
        vis = (vis | new)[keep]
        ca = ca[keep]
    return alive, iterations, peak, level


def find_urs(m: MooreMachine, skip_absorbing: bool = True, skip_selfloop: bool = True) -> UrsReport:
    """All renamings alpha with machine == machine-after-alpha, by pruned search.

    Exactly the set ``{alpha : equivalent(m, relabel(m, alpha))}``.  The two
    skips never change the result (they drop extensions whose suffixes are
    covered by the absorbing-state and pumping arguments); they exist to be
    toggled off for the pruning-neutrality check.  A level-1 product over
    ``_MAX_ROWS`` renamings raises :class:`InputError` before any allocation.
    """
    t0 = time.perf_counter()
    images = _level1_images(m)
    rows = math.prod(len(a) for a in images)
    if rows > _MAX_ROWS:
        raise InputError(f"{rows} renamings pass level 1, over the {_MAX_ROWS} the search can hold")
    cand = _product_array(images)
    t_init = time.perf_counter() - t0

    t1 = time.perf_counter()
    alive, iterations, peak, levels = _search_chunk(m, cand, skip_absorbing, skip_selfloop)
    t_search = time.perf_counter() - t1

    return UrsReport(
        alphabet=m.alphabet,
        images=images,
        candidates=cand,
        survived=alive,
        iterations=iterations,
        peak_pairs=peak,
        levels=levels,
        timings={"init": t_init, "search": t_search, "total": time.perf_counter() - t0},
    )


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
    product renaming (lexicographic), then a TOTAL row.

    A renaming with no row died at level 1.  Wall-times are deliberately
    excluded; identical inputs must yield bit-identical files.
    """
    yield "alpha,survived,iterations\n"
    for lo in range(0, len(report.candidates), _BLOCK_ROWS):
        rows = zip(report.candidates[lo:lo + _BLOCK_ROWS].tolist(),
                   report.survived[lo:lo + _BLOCK_ROWS].astype(np.int64).tolist(),
                   report.iterations[lo:lo + _BLOCK_ROWS].tolist())
        yield "".join(f"{format_map(alpha, report.alphabet)},{alive},{level}\n"
                      for alpha, alive, level in rows)
    yield f"TOTAL,{report.count},{report.levels}\n"
