import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_strings,
    dot_labels,
    machines,
    outputs_on,
    random_machine,
    random_string,
    restrict_alphabet,
    visit_a_machine,
    visit_ab_machine,
)
from rmkit.automata import (
    MooreMachine,
    absorbing_states,
    canonicalize,
    deserialize,
    equivalent,
    export_dot,
    final_state,
    minimize,
    product_conjunction,
    relabel,
    run_string,
    serialize,
    shape_rewards,
)
from rmkit.errors import InputError, MachineFormatError, SpecificationError


def labels(m, output_trace):
    return [m.output_classes[o] for o in output_trace]


class TestRunString:
    def test_empty_string(self):
        m = shape_rewards(visit_ab_machine())
        states, outs = run_string(m, ())
        assert states == (m.initial,)
        assert outs == ()

    def test_ab_levels_rise_to_acceptance(self):
        m = shape_rewards(visit_ab_machine())
        states, outs = run_string(m, m.encode("ab"))
        seq = [m.label_of(m.initial)] + labels(m, outs)
        assert seq == [0, 1, 2]
        assert all(a < b for a, b in zip(seq, seq[1:]))

    def test_noop_symbol_keeps_level(self):
        m = shape_rewards(visit_ab_machine())
        _, outs = run_string(m, m.encode("cc"))
        assert labels(m, outs) == [0, 0]

    def test_bad_symbol_index(self):
        m = visit_ab_machine()
        with pytest.raises(InputError):
            run_string(m, (0, 99))

    def test_prefix_recursion(self):
        # Appending one symbol extends the traces by exactly one element.
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = random_machine(rng)
            x = random_string(rng, len(m.alphabet))
            p = int(rng.integers(0, len(m.alphabet)))
            st0, out0 = run_string(m, x)
            st1, out1 = run_string(m, x + (p,))
            assert st1[:-1] == st0 and out1[:-1] == out0
            assert st1[-1] == m.transitions[st0[-1]][p]
            assert out1[-1] == m.outputs[st1[-1]]


class TestRelabel:
    def test_identity(self):
        m = visit_ab_machine()
        assert relabel(m, (0, 1, 2, 3, 4)).transitions == m.transitions

    def test_constant_map_behaves_like_all_a(self):
        m = visit_ab_machine()
        const = relabel(m, (0, 0, 0, 0, 0))
        for x in all_strings(5, 3):
            assert outputs_on(const, x) == outputs_on(m, tuple(0 for _ in x))

    def test_swap_on_visit_a(self):
        # Swapping a and b turns 'sees a' into 'sees b'.
        m = visit_a_machine(("a", "b", "c"))
        sw = relabel(m, (1, 0, 2))
        for x in all_strings(3, 3):
            expect = int(any(p == 1 for p in x))
            assert final_state(sw, x) == expect

    def test_partial_map_rejected(self):
        with pytest.raises(InputError):
            relabel(visit_ab_machine(), (0, 1, 2))

    def test_homomorphism_random(self):
        # Outputs of relabel(m, alpha) on x equal outputs of m on alpha(x).
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = random_machine(rng, minimized=False)
            k = len(m.alphabet)
            alpha = tuple(int(rng.integers(0, k)) for _ in range(k))
            x = random_string(rng, k)
            assert outputs_on(relabel(m, alpha), x) == outputs_on(m, tuple(alpha[p] for p in x))


class TestEquivalent:
    def test_reflexive(self):
        m = shape_rewards(visit_ab_machine())
        assert equivalent(m, m)

    def test_symmetric_task_swap(self):
        m = shape_rewards(visit_ab_machine())
        assert equivalent(m, relabel(m, (1, 0, 2, 3, 4)))

    def test_sequenced_visit_swap_differs(self, task_machines):
        m = task_machines[3]  # a then b
        sw = relabel(m, (1, 0, 2, 3, 4))
        assert not equivalent(m, sw)
        # the string "ab" is a witness
        assert outputs_on(m, m.encode("ab")) != outputs_on(sw, m.encode("ab"))

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError):
            equivalent(visit_a_machine(("a", "b")), visit_a_machine(("a", "b", "c")))

    def test_equivalence_relation_on_random_machines(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            base = random_machine(rng, max_symbols=3)
            k = len(base.alphabet)
            maps = [tuple(int(rng.integers(0, k)) for _ in range(k)) for _ in range(3)]
            ms = [relabel(base, a) for a in maps]
            for m1, m2 in itertools.product(ms, repeat=2):
                assert equivalent(m1, m1)
                assert equivalent(m1, m2) == equivalent(m2, m1)
            for m1, m2, m3 in itertools.permutations(ms, 3):
                if equivalent(m1, m2) and equivalent(m2, m3):
                    assert equivalent(m1, m3)

    def test_agrees_with_bounded_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(80):
            m1 = random_machine(rng, max_states=3, max_symbols=2, max_classes=2)
            m2 = random_machine(rng, max_states=3, max_symbols=2, max_classes=2)
            m2 = MooreMachine(m1.alphabet, m2.transitions, m2.outputs,
                              m2.output_classes, m2.initial) if len(m2.alphabet) == len(m1.alphabet) else None
            if m2 is None:
                continue
            # state-pair space is at most 9, so strings of length 9 suffice
            brute = all(
                labels(m1, outputs_on(m1, x)) == labels(m2, outputs_on(m2, x))
                for x in all_strings(len(m1.alphabet), 9)
            )
            assert equivalent(m1, m2) == brute


class TestMinimize:
    def test_minimal_machine_unchanged(self):
        m = canonicalize(visit_a_machine())
        assert minimize(m) == m

    def test_merges_duplicate_accepting_states(self):
        # two accepting sinks that should collapse into one
        m = MooreMachine(
            alphabet=("a", "b"),
            transitions=((1, 2), (1, 1), (2, 2)),
            outputs=(0, 1, 1),
            output_classes=(0, 1),
        )
        mm = minimize(m)
        assert mm.n_states == 2
        assert equivalent(m, mm)

    def test_idempotent_and_never_grows(self):
        rng = np.random.default_rng(13)
        for _ in range(150):
            m = random_machine(rng, minimized=False)
            mm = minimize(m)
            assert equivalent(m, mm)
            assert mm.n_states <= len(set(_reach(m)))
            assert minimize(mm) == mm


def _reach(m):
    seen = {m.initial}
    stack = [m.initial]
    while stack:
        q = stack.pop()
        for t in m.transitions[q]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


class TestProduct:
    def test_with_trivially_true(self):
        m = visit_ab_machine()
        true_m = MooreMachine(m.alphabet, (tuple(0 for _ in m.alphabet),), (1,), (0, 1))
        assert equivalent(minimize(product_conjunction(m, true_m)), minimize(m))

    def test_visit_product_has_four_reachable_states(self):
        fa = visit_a_machine(("a", "b"))
        fb = relabel(fa, (1, 0))
        prod = product_conjunction(fa, fb)
        assert prod.n_states == 4
        assert equivalent(minimize(prod), minimize(visit_ab_machine_ab()))

    def test_self_product_equivalent(self):
        m = visit_ab_machine()
        assert equivalent(minimize(product_conjunction(m, m)), minimize(m))

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError):
            product_conjunction(visit_a_machine(("a", "b")), visit_a_machine(("a", "c")))


def visit_ab_machine_ab():
    """visit-a-and-b acceptor restricted to the two-symbol alphabet."""
    return restrict_alphabet(visit_ab_machine(), ("a", "b"))


class TestAbsorbing:
    def test_accepting_sink_absorbing(self):
        m = visit_a_machine()
        assert 1 in absorbing_states(m)
        assert 0 not in absorbing_states(m)

    def test_dead_state_absorbing(self, task_machines):
        m = task_machines[5]  # includes G(!c)
        dead = [q for q in m.states if m.label_of(q) == -1]
        assert dead and all(q in absorbing_states(m) for q in dead)

    def test_chain_interior_not_absorbing(self, task_machines):
        m = task_machines[3]
        interior = [q for q in m.states if 0 < m.label_of(q) < max(m.output_classes)]
        assert interior and all(q not in absorbing_states(m) for q in interior)


class TestShapeRewards:
    def test_visit_three_items_has_four_levels(self, compile_formula):
        # eight-state subset machine, four potential levels, no dead states
        m = compile_formula("F(a) & F(b) & F(c)")
        assert m.n_states == 8
        assert m.output_classes == (0, 1, 2, 3)

    def test_single_visit_two_levels(self):
        m = shape_rewards(visit_a_machine())
        assert m.output_classes == (0, 1)
        assert m.label_of(1) == 1

    def test_avoidance_adds_distinct_dead_level(self, task_machines):
        m = task_machines[5]
        assert m.output_classes == (-1, 0, 1, 2)
        assert m.n_states == 5

    def test_accepting_states_on_max_level(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(200):
            m = random_machine(rng, max_classes=2, minimized=False)
            if not m.is_acceptor or 1 not in m.outputs:
                continue
            shaped = shape_rewards(m)
            top = max(shaped.output_classes)
            for q in m.states:
                if m.outputs[q] == 1:
                    assert shaped.label_of(q) == top
            # level increases by at most... strictly decreasing distance along a shortest path
            checked += 1
        assert checked > 50

    def test_levels_decrease_away_from_acceptance(self):
        m = shape_rewards(visit_ab_machine())
        # along any shortest path toward acceptance the level strictly rises
        for q in m.states:
            lv = m.label_of(q)
            if lv == max(m.output_classes) or lv == -1:
                continue
            assert any(m.label_of(t) == lv + 1 for t in m.transitions[q])

    def test_no_accepting_state_rejected(self):
        m = MooreMachine(("a",), ((0,),), (0,), (0, 1))
        with pytest.raises(SpecificationError):
            shape_rewards(m)


class TestSerialization:
    @pytest.mark.parametrize("name", ["", "b c", "b\tc", " b", "b\n"])
    def test_symbol_names_the_format_cannot_split_are_rejected(self, name):
        with pytest.raises(InputError, match="free of whitespace"):
            MooreMachine(("a", name), ((0, 0),), (0,), (0, 1))

    def test_round_trip_identity(self, task_machines):
        for m in task_machines.values():
            assert deserialize(serialize(m)) == m

    def test_round_trip_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = random_machine(rng)
            assert deserialize(serialize(m)) == m

    def test_malformed_header(self):
        with pytest.raises(MachineFormatError):
            deserialize("not a machine\n")

    def test_truncated_body(self):
        m = visit_a_machine()
        text = serialize(m)
        with pytest.raises(MachineFormatError):
            deserialize("\n".join(text.splitlines()[:-1]))

    def test_dot_of_single_visit(self):
        dot = export_dot(shape_rewards(visit_a_machine()))
        assert dot.count("shape=circle") == 1
        assert dot.count("shape=doublecircle") == 1
        assert 'q0 -> q1 [label="a"]' in dot
        assert 'q0 -> q0 [label="b"]' in dot

    def test_dot_labels_escape_quotes_and_backslashes(self):
        dot = export_dot(shape_rewards(visit_a_machine(("a", '"x', "y\\"))))
        assert 'q0 -> q0 [label="\\"x,y\\\\"];' in dot
        assert dot_labels(dot) == ["", "0:0", "1:1", '"x,y\\', "a", 'a,"x,y\\']


class TestCanonicalForm:
    def test_bfs_numbering_starts_at_initial(self):
        m = MooreMachine(("a", "b"), ((2, 0), (1, 1), (1, 0)), (0, 1, 0), (0, 1), initial=0)
        c = canonicalize(m)
        assert c.initial == 0
        assert c.transitions[0][0] == 1  # first discovered successor gets id 1

    def test_unreachable_states_dropped(self):
        m = MooreMachine(("a",), ((0,), (1,)), (0, 1), (0, 1), initial=0)
        assert canonicalize(m).n_states == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(machines())
def test_serialize_round_trip_hypothesis(m):
    assert deserialize(serialize(m)) == m


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_relabel_homomorphism_hypothesis(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = random_machine(rng, minimized=False)
    k = len(m.alphabet)
    alpha = tuple(data.draw(st.integers(0, k - 1)) for _ in range(k))
    x = tuple(data.draw(st.lists(st.integers(0, k - 1), max_size=6)))
    assert outputs_on(relabel(m, alpha), x) == outputs_on(m, tuple(alpha[p] for p in x))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_run_string_recursion_hypothesis(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = random_machine(rng, minimized=False)
    k = len(m.alphabet)
    x = tuple(data.draw(st.lists(st.integers(0, k - 1), max_size=6)))
    p = data.draw(st.integers(0, k - 1))
    st0, out0 = run_string(m, x)
    st1, out1 = run_string(m, x + (p,))
    assert st1[:-1] == st0 and out1[:-1] == out0
