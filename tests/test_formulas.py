import numpy as np
import pytest

from helpers import (
    TASK_ALPHABET,
    TASK_FORMULAS,
    all_strings,
    compile_via_derivatives,
    restrict_alphabet,
)
from rmkit.automata import equivalent, run_string, serialize
from rmkit.errors import FormulaSyntaxError, InputError, UnsupportedConstructError
from rmkit.formulas import (
    And,
    Atom,
    Eventually,
    Globally,
    Not,
    compile_formula,
    parse,
)


class TestParse:
    def test_visit_conjunction(self):
        ast = parse("F(a) & F(b)")
        assert ast == And((Eventually(Atom("a")), Eventually(Atom("b"))))

    def test_nested_sequenced_visit(self):
        ast = parse("F(a & F(b))")
        assert ast == Eventually(And((Atom("a"), Eventually(Atom("b")))))

    def test_avoidance(self):
        assert parse("G(!c)") == Globally(Not(Atom("c")))
        assert parse("G(!c & !d)") == Globally(And((Not(Atom("c")), Not(Atom("d")))))

    def test_whitespace_insensitive(self):
        assert parse(" F( a )&F(b) ") == parse("F(a) & F(b)")

    def test_positive_atom_under_g_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse("G(a)")

    def test_bare_atom_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse("a & F(b)")

    def test_negation_outside_g_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse("F(!a)")

    def test_two_atoms_in_f_body_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse("F(a & b)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("F(a) & ")
        assert exc.value.position == 7

    def test_unbalanced_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse("F(a")

    def test_stray_character(self):
        with pytest.raises(FormulaSyntaxError):
            parse("F(a) | F(b)")


class TestCompile:
    def test_visit_ab_minimized_shape(self):
        m = compile_formula("F(a) & F(b)", TASK_ALPHABET)
        assert m.n_states == 4
        assert m.output_classes == (0, 1, 2)

    def test_sequenced_visit_chain(self):
        m = compile_formula("F(a & F(b))", TASK_ALPHABET)
        assert m.n_states == 3
        assert m.output_classes == (0, 1, 2)

    def test_avoidance_adds_dead_state(self):
        m = compile_formula("F(a) & F(b) & G(!c)", TASK_ALPHABET)
        assert m.n_states == 5
        assert m.output_classes == (-1, 0, 1, 2)

    def test_atom_missing_from_alphabet(self):
        with pytest.raises(InputError):
            compile_formula("F(a) & F(z)", TASK_ALPHABET)

    def test_accepts_ast_input(self):
        ast = parse("F(a)")
        assert compile_formula(ast, ("a", "b")) == compile_formula("F(a)", ("a", "b"))

    def test_deterministic_serialization(self):
        for text in TASK_FORMULAS.values():
            a = serialize(compile_formula(text, TASK_ALPHABET))
            b = serialize(compile_formula(text, TASK_ALPHABET))
            assert a == b

    def test_extra_symbols_only_add_self_loops(self):
        small = compile_formula("F(a) & F(b)", ("a", "b"))
        big = compile_formula("F(a) & F(b)", TASK_ALPHABET)
        assert equivalent(restrict_alphabet(big, ("a", "b")), small)
        for q in big.states:
            for extra in ("c", "d", "e"):
                assert big.transitions[q][big.symbol_index(extra)] == q

    def test_repeated_symbol_chain_discharges_in_one_instant(self):
        # the nested F is evaluated at the instant its guard fires, so
        # F(a & F(a)) collapses to F(a): a single 'a' accepts
        m = compile_formula("F(a & F(a))", ("a", "b"))
        assert equivalent(m, compile_formula("F(a)", ("a", "b")))
        _, out1 = run_string(m, m.encode("a"))
        assert m.output_classes[out1[-1]] == max(m.output_classes)

    def test_semantics_by_enumeration(self):
        # check the compiled task-1 machine against a direct evaluation
        m = compile_formula("F(a) & F(b)", TASK_ALPHABET)
        top = max(m.output_classes)
        for x in all_strings(5, 4):
            seen = {TASK_ALPHABET[p] for p in x}
            accepted = {"a", "b"} <= seen
            final = m.output_classes[run_string(m, x)[1][-1]] if x else m.label_of(m.initial)
            assert (final == top) == accepted


class TestDerivativeCrossCheck:
    @pytest.mark.parametrize("tid", sorted(TASK_FORMULAS))
    def test_task_paths_agree(self, tid):
        text = TASK_FORMULAS[tid]
        m1 = compile_formula(text, TASK_ALPHABET)
        m2 = compile_via_derivatives(text, TASK_ALPHABET)
        assert equivalent(m1, m2)
        assert m1 == m2  # both canonical

    def test_random_fragment_formulas_agree(self):
        rng = np.random.default_rng(29)
        symbols = list(TASK_ALPHABET)
        for _ in range(60):
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                kind = rng.integers(0, 3)
                if kind == 0:
                    terms.append(f"F({rng.choice(symbols)})")
                elif kind == 1:
                    chain = [str(rng.choice(symbols)) for _ in range(int(rng.integers(2, 4)))]
                    body = chain[-1]
                    for s in reversed(chain[:-1]):
                        body = f"{s} & F({body})"
                    terms.append(f"F({body})")
                else:
                    lits = sorted({str(rng.choice(symbols)) for _ in range(int(rng.integers(1, 3)))})
                    terms.append("G(" + " & ".join("!" + s for s in lits) + ")")
            text = " & ".join(terms)
            try:
                m1 = compile_formula(text, TASK_ALPHABET)
            except Exception:
                # e.g. avoidance of every symbol can make acceptance unreachable
                continue
            m2 = compile_via_derivatives(text, TASK_ALPHABET)
            assert equivalent(m1, m2), text
