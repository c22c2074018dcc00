import csv
import io
import itertools
import math

import numpy as np
import pytest

from helpers import (
    TASK_FORMULAS,
    TASK_URS_COUNTS,
    full_table_urs,
    per_renaming,
    random_machine,
    random_string,
    repeated_column_machine,
    visit_ab_machine,
)
from rmkit.automata import (
    MooreMachine,
    absorbing_states,
    equivalent,
    final_state,
    relabel,
    shape_rewards,
)
from rmkit import shortcuts
from rmkit.errors import InputError
from rmkit.formulas import compile_formula
from rmkit.shortcuts import (
    apply_map,
    enumerate_maps,
    find_urs,
    format_map,
    is_working,
    iter_report_csv,
    urs_oracle_bounded,
    urs_oracle_exact,
)


class TestEnumerateMaps:
    def test_five_symbols_count(self):
        maps = list(enumerate_maps(5))
        assert len(maps) == 5**5 == 3125
        assert len(set(maps)) == 3125

    def test_lexicographic(self):
        for k in range(1, 5):
            assert list(enumerate_maps(k)) == list(itertools.product(range(k), repeat=k))

    def test_single_symbol(self):
        assert list(enumerate_maps(1)) == [(0,)]

    def test_two_symbols(self):
        assert len(list(enumerate_maps(2))) == 4


class TestIsWorking:
    def test_identity_always_works(self):
        m = shape_rewards(visit_ab_machine())
        dataset = [m.encode("a"), m.encode("abc"), m.encode("cde")]
        assert is_working(m, tuple(range(5)), dataset)

    def test_symmetric_swap_works_on_single_a(self):
        m = shape_rewards(visit_ab_machine())
        assert is_working(m, (1, 0, 2, 3, 4), [m.encode("a")])

    def test_swap_fails_on_ordered_task(self):
        m = compile_formula("F(a & F(b))", ("a", "b", "c", "d", "e"))
        assert not is_working(m, (1, 0, 2, 3, 4), [m.encode("a")])


class TestFindUrs:
    @pytest.mark.parametrize("tid", sorted(TASK_URS_COUNTS))
    def test_task_counts_match_published_analysis(self, tid, task_machines):
        report = find_urs(task_machines[tid])
        assert report.count == TASK_URS_COUNTS[tid]

    @pytest.mark.parametrize("tid", sorted(TASK_URS_COUNTS))
    def test_matches_exact_oracle_on_tasks(self, tid, task_machines):
        m = task_machines[tid]
        assert find_urs(m).survivor_set() == urs_oracle_exact(m)

    def test_single_symbol_machine(self):
        m = compile_formula("F(a)", ("a",))
        report = find_urs(m)
        assert report.survivors() == [(0,)]
        assert report.count == 1

    def test_identity_always_survives(self, task_machines):
        for m in task_machines.values():
            assert tuple(range(5)) in find_urs(m).survivor_set()

    def test_matches_exact_oracle_on_random_machines(self):
        rng = np.random.default_rng(41)
        for i in range(50):
            m = random_machine(rng, max_states=5, max_symbols=5, minimized=i % 2 == 0)
            assert find_urs(m).survivor_set() == urs_oracle_exact(m)

    def test_pruning_neutrality(self, task_machines):
        for m in task_machines.values():
            base = find_urs(m).survivor_set()
            for sa, sl in ((False, True), (True, False), (False, False)):
                assert find_urs(m, skip_absorbing=sa, skip_selfloop=sl).survivor_set() == base

    def test_survivors_form_a_monoid(self, task_machines):
        # closed under composition and containing the identity
        for m in task_machines.values():
            urs = find_urs(m).survivor_set()
            assert tuple(range(5)) in urs
            for f, g in itertools.product(urs, repeat=2):
                composed = tuple(f[g[p]] for p in range(5))
                assert composed in urs

    def test_task1_structure(self, task_machines):
        # every survivor fixes {a,b} setwise and keeps {c,d,e} inside {c,d,e}
        urs = find_urs(task_machines[1]).survivor_set()
        for alpha in urs:
            assert sorted(alpha[:2]) == [0, 1]
            assert all(alpha[p] >= 2 for p in (2, 3, 4))
        assert len(urs) == 2 * 27


def _first_step_machine(rng, k: int, first_outputs) -> MooreMachine:
    """Random machine whose initial state reaches state p + 1 on symbol p.

    ``first_outputs[p]`` is the output of state p + 1, so it fixes which
    renamings pass level 1; the other transitions are random.
    """
    n = k + 2
    rows = [tuple(range(1, k + 1))]
    rows += [tuple(int(rng.integers(0, n)) for _ in range(k)) for _ in range(n - 1)]
    outputs = (0, *first_outputs, int(rng.integers(0, 2)))
    classes = tuple(range(max(outputs) + 1))
    return MooreMachine(tuple("abcdefgh"[:k]), tuple(rows), outputs, classes, 0)


class TestLevelOneProduct:
    def test_all_first_outputs_equal_keeps_the_whole_space(self):
        rng = np.random.default_rng(61)
        for k in range(1, 5):
            m = _first_step_machine(rng, k, [0] * k)
            report = find_urs(m)
            assert len(per_renaming(report).candidates) == k**k
            assert report.survivor_set() == urs_oracle_exact(m)

    def test_distinct_first_outputs_leave_only_the_identity(self):
        rng = np.random.default_rng(67)
        for k in range(1, 6):
            m = _first_step_machine(rng, k, range(1, k + 1))
            report = find_urs(m)
            assert per_renaming(report).candidates.tolist() == [list(range(k))]
            assert report.survivors() == [tuple(range(k))]
            assert report.survivor_set() == urs_oracle_exact(m)

    def test_blocks_are_the_lexicographic_product_with_class_rows(self, monkeypatch):
        monkeypatch.setattr(shortcuts, "_BLOCK_ROWS", 7)
        rng = np.random.default_rng(71)
        for i in range(40):
            m = (random_machine if i % 2 else repeated_column_machine)(rng, max_states=5, max_symbols=5)
            report = find_urs(m)
            blocks = list(report.blocks())
            assert all(len(rows) == len(index) <= 7 for rows, index in blocks)
            rows = np.concatenate([rows for rows, _ in blocks])
            index = np.concatenate([index for _, index in blocks])
            assert [tuple(r) for r in rows.tolist()] == list(itertools.product(*report.images))
            expanded = per_renaming(report)
            for field in ("survived", "iterations", "peak_pairs"):
                assert np.array_equal(getattr(report, field)[index], getattr(expanded, field)), field

    def test_product_blocks_concatenate_to_the_product(self):
        rng = np.random.default_rng(72)
        for _ in range(200):
            images = tuple(tuple(sorted(rng.choice(8, size=int(rng.integers(1, 5)), replace=False).tolist()))
                           for _ in range(int(rng.integers(1, 6))))
            full = list(itertools.product(*images))
            assert [tuple(r) for r in shortcuts._product_array(images).tolist()] == full
            block = int(rng.integers(1, len(full) + 3))
            # the last block may end past the product, which cuts it
            parts = [shortcuts._product_array(images, lo, lo + block) for lo in range(0, len(full), block)]
            assert all(part.dtype == np.int64 and part.shape[1] == len(images) for part in parts)
            assert [tuple(r) for r in np.concatenate(parts).tolist()] == full
            assert shortcuts._product_array(images, len(full), len(full) + block).shape == (0, len(images))

    def test_no_renaming_resolves_at_level_1(self):
        # each level-1 image set keeps every length-1 pair's outputs equal
        rng = np.random.default_rng(79)
        for _ in range(100):
            m = random_machine(rng, max_states=5, max_symbols=5)
            assert (find_urs(m).iterations >= 2).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_full_table_reference(self, seed):
        rng = np.random.default_rng(73 + seed)
        for i in range(15):
            m = random_machine(rng, max_states=5, max_symbols=5, minimized=i % 3 != 0)
            ref, csv = full_table_urs(m)
            report = find_urs(m)
            assert report.survivors() == ref.survivors()
            assert "".join(iter_report_csv(report)) == csv

    @pytest.mark.parametrize("tid", sorted(TASK_URS_COUNTS))
    def test_task_report_matches_full_table_reference(self, tid, task_machines):
        ref, csv = full_table_urs(task_machines[tid])
        report = find_urs(task_machines[tid])
        assert report.survivors() == ref.survivors()
        assert "".join(iter_report_csv(report)) == csv

    def test_mixed_name_lengths_match_full_table_reference(self, compile_formula):
        for alphabet in (("a", "bb", "c"), ("aa", "bb", "cc", "dd")):
            m = compile_formula(f"F({alphabet[0]}) & F({alphabet[1]})", alphabet)
            assert "".join(iter_report_csv(find_urs(m))) == full_table_urs(m)[1]

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_task1_count_formula(self, k, compile_formula):
        # {a, b} maps onto itself (2 ways); each other symbol maps to any non-a/b symbol
        m = compile_formula("F(a) & F(b)", tuple("abcdefgh"[:k]))
        assert find_urs(m).count == 2 * (k - 2) ** (k - 2)

    def test_task1_over_eight_symbols_survivors_are_shortcuts(self, compile_formula):
        m = compile_formula("F(a) & F(b)", tuple("abcdefgh"))
        report = find_urs(m)
        assert report.count == 93312
        survivors = report.survivors()
        rng = np.random.default_rng(79)
        for i in rng.choice(len(survivors), size=20, replace=False):
            assert equivalent(m, relabel(m, survivors[i]))
        expanded = per_renaming(report)
        assert expanded.survivors() == survivors
        dead = np.flatnonzero(~expanded.survived)
        for i in rng.choice(dead, size=20, replace=False):
            assert not equivalent(m, relabel(m, tuple(expanded.candidates[i].tolist())))

    def test_oversized_product_is_refused_before_allocation(self, compile_formula, monkeypatch):
        # alpha(s0) = s0 and any other symbol to any of s1..s11 pass level 1: 11**11 renamings
        m = compile_formula("G(!s0)", tuple(f"s{i}" for i in range(12)))

        def no_alloc(*args):
            raise AssertionError("a product was built")

        monkeypatch.setattr(shortcuts, "_product_array", no_alloc)
        with pytest.raises(InputError, match=f"{11**11} renamings pass level 1"):
            find_urs(m)


class TestColumnClasses:
    def test_repeated_columns_match_exact_oracle(self):
        rng = np.random.default_rng(83)
        for i in range(50):
            m = repeated_column_machine(rng, minimized=i % 2 == 0)
            assert find_urs(m).survivor_set() == urs_oracle_exact(m)

    @pytest.mark.parametrize("skip_absorbing, skip_selfloop",
                             itertools.product((True, False), repeat=2))
    def test_repeated_columns_match_the_row_level_loop(self, skip_absorbing, skip_selfloop):
        rng = np.random.default_rng(89)
        for i in range(50):
            m = repeated_column_machine(rng, minimized=i % 2 == 0)
            ref, csv = full_table_urs(m, skip_absorbing, skip_selfloop)
            report = find_urs(m, skip_absorbing=skip_absorbing, skip_selfloop=skip_selfloop)
            expanded = per_renaming(report)
            for field in ("candidates", "survived", "iterations", "peak_pairs"):
                got, want = getattr(expanded, field), getattr(ref, field)
                assert got.dtype == want.dtype and np.array_equal(got, want), field
            assert report.levels == ref.levels
            assert "".join(iter_report_csv(report)) == csv

    def test_the_loop_runs_on_class_rows_and_the_reference_on_every_row(
            self, compile_formula, monkeypatch):
        rows = []

        def counting(loop):
            def count(m, cand, *skips):
                cand = list(cand)
                rows.append(len(cand))
                return loop(m, np.array(cand, dtype=np.int64), *skips)
            return count

        for name in ("_level_loop", "_row_loop"):  # the rows that reach either loop
            monkeypatch.setattr(shortcuts, name, counting(getattr(shortcuts, name)))
        # task 1 over a..h: {a}, {b} and {c..h} are its column classes
        report = find_urs(compile_formula("F(a) & F(b)", tuple("abcdefgh")))
        assert rows == [4]
        assert len(report.survived) == len(report.iterations) == len(report.peak_pairs) == 4
        assert math.prod(len(a) for a in report.images) == 186624
        assert report.count == 93312
        rows.clear()
        full_table_urs(compile_formula("F(a) & F(b)", tuple("abcde")))
        assert rows == [108]

    def test_count_and_survivors_match_the_exact_oracle(self):
        rng = np.random.default_rng(97)
        for i in range(50):
            m = repeated_column_machine(rng, minimized=i % 2 == 0)
            report = find_urs(m)
            exact = urs_oracle_exact(m)
            assert type(report.count) is int
            assert report.count == len(exact) == len(report.survivors())
            assert report.survivors() == sorted(exact)

    def test_count_is_the_number_of_survivors(self):
        rng = np.random.default_rng(101)
        for i in range(100):
            m = random_machine(rng, max_states=6, max_symbols=6, minimized=i % 2 == 0)
            report = find_urs(m)
            assert type(report.count) is int
            assert report.count == len(report.survivors()) == int(per_renaming(report).survived.sum())


def _class_rows(m: MooreMachine) -> list[tuple[int, ...]]:
    """Per symbol, its level-1 images cut to one per column class, as find_urs searches them."""
    rep = shortcuts._column_reps(m)
    return [tuple(r for r in a if rep[r] == r) for a in shortcuts._level1_images(m)]


class TestRowLoop:
    @pytest.mark.parametrize("skip_absorbing, skip_selfloop",
                             itertools.product((True, False), repeat=2))
    def test_matches_the_level_loop_on_the_class_rows(self, skip_absorbing, skip_selfloop):
        rng = np.random.default_rng(107)
        machines = [compile_formula(text, tuple("abcdefghi"[:k]))
                    for k in range(4, 10) for text in TASK_FORMULAS.values()]
        machines += [random_machine(rng, max_states=6, max_symbols=6, minimized=i % 2 == 0)
                     for i in range(60)]
        machines += [repeated_column_machine(rng, minimized=i % 2 == 0) for i in range(60)]
        small = set()
        for m in machines:
            reps = _class_rows(m)
            want = shortcuts._level_loop(m, shortcuts._product_array(reps), skip_absorbing,
                                         skip_selfloop)
            got = shortcuts._row_loop(m, itertools.product(*reps), skip_absorbing, skip_selfloop)
            for field, g, w in zip(("survived", "iterations", "peak_pairs"), got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), field
            assert got[3] == want[3]
            small.add(math.prod(len(a) for a in reps) <= shortcuts._PY_ROWS)
        assert small == {True, False}  # class-row counts on both sides of the switch


def _codes(rows: np.ndarray, k: int) -> np.ndarray:
    """Each renaming row as its base-k integer, which keeps lexicographic order."""
    return rows @ k ** np.arange(k - 1, -1, -1)


def _rows(codes: np.ndarray, k: int) -> np.ndarray:
    return codes[:, np.newaxis] // k ** np.arange(k - 1, -1, -1) % k


class TestClosure:
    """ROADMAP item 6: the URS is a monoid.  If alpha and beta survive, so does
    ``p -> beta[alpha[p]]``; the identity survives; and a bijective survivor's
    inverse survives.  Checked from the survivors alone, so it reaches the
    9-symbol alphabets where ``urs_oracle_exact`` (9^9 renamings) cannot run.
    Survivor sets over ``_PAIRS`` ordered pairs have their pairs sampled."""

    _PAIRS = 1 << 16

    def _check(self, report, rng):
        k = len(report.alphabet)
        # the rows survivors() lists, read block by block: 1.6M survivors need no tuples
        codes = np.concatenate([_codes(rows[report.survived[index]], k)
                                for rows, index in report.blocks()])
        if report.count <= 1000:
            assert codes.tolist() == _codes(np.array(report.survivors()), k).tolist()
        assert len(codes) == report.count and (np.diff(codes) > 0).all()

        def survive(rows):
            i = np.searchsorted(codes, _codes(rows, k)).clip(max=len(codes) - 1)
            return codes[i] == _codes(rows, k)

        identity = np.arange(k)
        assert survive(identity[np.newaxis]).all()
        n = len(codes)
        first, second = (np.divmod(np.arange(n * n), n) if n * n <= self._PAIRS
                         else rng.integers(0, n, (2, self._PAIRS)))
        alpha, beta = _rows(codes[first], k), _rows(codes[second], k)
        composed = np.take_along_axis(beta, alpha, axis=1)  # composed[i, p] = beta[i, alpha[i, p]]
        assert survive(composed).all(), (report.alphabet, alpha[~survive(composed)][0],
                                         beta[~survive(composed)][0])
        for lo in range(0, n, self._PAIRS):
            rows = _rows(codes[lo:lo + self._PAIRS], k)
            bijective = rows[(np.sort(rows, axis=1) == identity).all(axis=1)]
            assert survive(np.argsort(bijective, axis=1)).all()

    @pytest.mark.parametrize("k", [5, 6, 7, 8, 9])
    def test_task_survivors_form_a_monoid(self, k, compile_formula):
        rng = np.random.default_rng(k)
        for tid in sorted(TASK_FORMULAS):
            m = compile_formula(TASK_FORMULAS[tid], tuple("abcdefghi"[:k]))
            if (tid, k) == (3, 9):  # 16,777,216 renamings pass level 1, over _MAX_ROWS
                with pytest.raises(InputError):
                    find_urs(m)
                continue
            self._check(find_urs(m), rng)

    def test_repeated_column_survivors_form_a_monoid(self):
        rng = np.random.default_rng(29)
        for _ in range(80):
            self._check(find_urs(repeated_column_machine(rng, max_states=6, max_symbols=7)), rng)


class TestBoundedOracle:
    def test_superset_of_exact_at_small_bound(self, task_machines):
        m = task_machines[1]
        exact = urs_oracle_exact(m)
        assert urs_oracle_bounded(m, 1) >= exact

    def test_monotone_in_bound(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            m = random_machine(rng, max_states=4, max_symbols=3)
            sets = [urs_oracle_bounded(m, L) for L in range(1, 5)]
            for smaller_l, larger_l in zip(sets, sets[1:]):
                assert larger_l <= smaller_l

    def test_exact_at_product_space_bound(self, task_machines):
        m = task_machines[1]
        assert urs_oracle_bounded(m, m.n_states**2) == urs_oracle_exact(m)

    def test_a_huge_bound_is_cut_to_the_exact_one(self, task_machines):
        m = task_machines[1]
        assert urs_oracle_bounded(m, 10**9) == urs_oracle_exact(m)

    def test_upper_bounds_find_urs_at_every_bound(self, task_machines):
        m = task_machines[3]
        urs = find_urs(m).survivor_set()
        for L in range(1, m.n_states**2 + 1):
            assert urs <= urs_oracle_bounded(m, L)


class TestAbsorbingSuffixExtension:
    def test_working_prefixes_extend_freely(self):
        # once both branches sit in absorbing states, any suffix keeps working
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 100:
            m = random_machine(rng, max_states=4, max_symbols=3)
            k = len(m.alphabet)
            absorbing = absorbing_states(m)
            if not absorbing:
                continue
            alpha = tuple(int(rng.integers(0, k)) for _ in range(k))
            x = random_string(rng, k, max_len=6)
            if final_state(m, x) not in absorbing:
                continue
            if final_state(m, apply_map(alpha, x)) not in absorbing:
                continue
            if not is_working(m, alpha, [x]):
                continue
            y = random_string(rng, k, max_len=6)
            assert is_working(m, alpha, [x + y])
            checked += 1


class TestSelfLoopPumping:
    def test_pumped_strings_keep_working(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 100:
            m = random_machine(rng, max_states=4, max_symbols=3)
            k = len(m.alphabet)
            alpha = tuple(int(rng.integers(0, k)) for _ in range(k))
            x = random_string(rng, k, max_len=5)
            p = int(rng.integers(0, k))
            if final_state(m, x) != final_state(m, x + (p,)):
                continue
            ax = apply_map(alpha, x)
            if final_state(m, ax) != final_state(m, ax + (alpha[p],)):
                continue
            z = random_string(rng, k, max_len=5)
            if not is_working(m, alpha, [x + z]):
                continue
            for reps in range(1, 6):
                assert is_working(m, alpha, [x + (p,) * reps + z])
            checked += 1


class TestReportCsv:
    def test_deterministic_and_sorted(self, task_machines):
        m = task_machines[1]
        a = "".join(iter_report_csv(find_urs(m)))
        b = "".join(iter_report_csv(find_urs(m)))
        assert a == b
        lines = a.strip().splitlines()
        assert lines[0] == "alpha,survived,iterations"
        assert lines[-1].startswith("TOTAL,54,")
        body = [ln.split(",")[0] for ln in lines[1:-1]]
        assert body == sorted(body)
        assert len(body) == len(per_renaming(find_urs(m)).candidates) == 108

    def test_format_map(self):
        assert format_map((1, 0, 2, 3, 4), ("a", "b", "c", "d", "e")) == "bacde"
        assert format_map((0, 0), ("left", "right")) == "left,left"
        assert format_map((0, 0), ("a", "bb")) == "a,a"  # the alphabet, not the images, picks the form

    @pytest.mark.parametrize("names", [("a", "b", "cc"), ("a", "b", '"x', "y"), ("a", "b", ",", "c"),
                                       ("a", "b", 'q"', "c,d", "e\\")])
    def test_any_symbol_names_read_back_as_three_fields(self, names, compile_formula):
        base = compile_formula("F(a) & F(b)", tuple("abcde"[:len(names)]))
        m = MooreMachine(names, base.transitions, base.outputs, base.output_classes, base.initial)
        text = "".join(iter_report_csv(find_urs(m)))
        assert text == full_table_urs(m)[1]
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["alpha", "survived", "iterations"] and rows[-1][0] == "TOTAL"
        assert all(len(row) == 3 for row in rows)
        renamings = per_renaming(find_urs(m)).candidates
        assert [row[0] for row in rows[1:-1]] == [format_map(a, names) for a in renamings]


class TestReportDiagnostics:
    def test_iterations_and_peaks_populated(self, task_machines):
        report = per_renaming(find_urs(task_machines[1]))
        assert (report.iterations >= 1).all()
        assert report.levels == int(report.iterations.max())
        assert (report.peak_pairs >= 1).all()
        assert (report.peak_pairs <= task_machines[1].n_states ** 2).all()
