import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from machine_gen import (
    blind_counter_a_endmarker,
    blind_counter_ab,
    blind_counter_abc,
    random_dva,
    random_extendedfa,
    random_nbhva_endmarker,
)
from vecauto.builders import cyclic_dfa, example
from vecauto.errors import InvalidScalarError, UndecidedError, UnsupportedPassError
from vecauto.exact import Matrix, RowVector, vec_mat_mul
from vecauto.langlab import enumerate_accepted, equivalent_up_to, reference_language, matches_reference
from vecauto.machines import (
    BUDGET_EXCEEDED,
    DETERMINISTIC,
    ENDMARKER,
    HVA,
    NONDETERMINISTIC,
    STATUS_ANY,
    VA,
    MachineSpec,
    SearchBudget,
    TransitionRule,
    accepts,
    extendedfa_embed,
    run_deterministic,
    run_nondeterministic,
    validate,
)
from vecauto.transforms import (
    DFA,
    attach_trivial_endmarker,
    bordered_matrix,
    counters_to_hva1,
    counters_to_integer_hva3,
    dfa_to_stateless_dbhva,
    eliminate_states,
    intersect_blind_hva,
    nth_prime,
    rationals_to_integers,
    remove_endmarker,
    scale_initial_vector,
)


class TestScaleInitialVector:
    def test_scaling_preserves_the_language(self):
        eq = example("eq")
        scaled, report = scale_initial_vector(eq, 3)
        assert scaled.initial_vector == RowVector([3])
        assert report.parameters == {"t": "3"}
        assert equivalent_up_to(eq, scaled, 10).equal

    def test_unit_scale_is_identity(self):
        eq = example("eq")
        scaled, _ = scale_initial_vector(eq, 1)
        assert scaled == eq

    def test_clears_denominators(self):
        spec = example("eq")
        spec = MachineSpec(
            **{
                **{f: getattr(spec, f) for f in (
                    "kind", "mode", "blind", "endmarker", "realtime", "alphabet",
                    "states", "initial_state", "accept_states", "dimension",
                    "transitions", "gfa_final_vector", "gfa_cutpoint")},
                "initial_vector": RowVector([Fraction(1, 2)]),
            }
        )
        scaled, _ = scale_initial_vector(spec, 2)
        assert scaled.initial_vector == RowVector([1])
        assert equivalent_up_to(spec, scaled, 8).equal

    def test_zero_scale_is_rejected(self):
        with pytest.raises(InvalidScalarError):
            scale_initial_vector(example("eq"), 0)

    def test_only_homing_machines(self):
        from vecauto.builders import binary_distinguisher

        with pytest.raises(UnsupportedPassError):
            scale_initial_vector(binary_distinguisher("1"), 2)


class TestRemoveEndmarker:
    def test_powr(self):
        powr = example("pow_r")
        out, report = remove_endmarker(powr)
        assert validate(out) == []
        assert not out.endmarker
        assert len(out.states) <= len(powr.states) + 2
        assert equivalent_up_to(powr, out, 8).equal
        assert report.parameters["accepts_empty"] is False

    def test_empty_string_member_gets_a_fresh_accepting_start(self):
        eq_marked, _ = attach_trivial_endmarker(example("eq"))
        out, report = remove_endmarker(eq_marked)
        assert report.parameters["accepts_empty"] is True
        assert accepts(out, "")
        assert out.initial_state in out.accept_states
        incoming = [r for r in out.transitions if r.target == out.initial_state]
        assert incoming == []
        assert equivalent_up_to(eq_marked, out, 8).equal

    def test_empty_language_stays_empty(self):
        dead = MachineSpec(
            kind=HVA,
            mode=NONDETERMINISTIC,
            blind=True,
            endmarker=True,
            realtime=True,
            alphabet=("a",),
            states=("q1",),
            initial_state="q1",
            accept_states=frozenset(),
            dimension=1,
            initial_vector=RowVector([1]),
            transitions=(
                TransitionRule("q1", "a", STATUS_ANY, "q1", Matrix.identity(1)),
                TransitionRule("q1", ENDMARKER, STATUS_ANY, "q1", Matrix.identity(1)),
            ),
        )
        out, _ = remove_endmarker(dead)
        assert enumerate_accepted(out, 5) == []

    def test_epsilon_only_language(self):
        only_empty = MachineSpec(
            kind=HVA,
            mode=NONDETERMINISTIC,
            blind=True,
            endmarker=True,
            realtime=True,
            alphabet=("a",),
            states=("q1",),
            initial_state="q1",
            accept_states=frozenset({"q1"}),
            dimension=1,
            initial_vector=RowVector([1]),
            transitions=(
                TransitionRule("q1", "a", STATUS_ANY, "q1", Matrix.from_rows([[2]])),
                TransitionRule("q1", ENDMARKER, STATUS_ANY, "q1", Matrix.identity(1)),
            ),
        )
        out, _ = remove_endmarker(only_empty)
        assert enumerate_accepted(out, 5) == [""]

    @pytest.mark.parametrize("make, names, fresh, maxlen", [
        # pow_r, whose language lacks the empty word: a fresh accept state
        (lambda: example("pow_r"), ("q_acc", "q_init", "q_acc2"), ("q_acc3",), 10),
        # eq with a trivial end-marker, which accepts it: a fresh initial state too
        (lambda: attach_trivial_endmarker(example("eq"))[0], ("q_init",), ("q_acc", "q_init2"), 8),
    ], ids=["pow_r", "eq$"])
    def test_fresh_states_skip_the_names_taken(self, make, names, fresh, maxlen):
        source = make()
        name = dict(zip(source.states, names))
        spec = replace(
            source, states=names, initial_state=name[source.initial_state],
            accept_states={name[q] for q in source.accept_states},
            transitions=tuple(replace(r, source=name[r.source], target=name[r.target])
                              for r in source.transitions))
        out, _ = remove_endmarker(spec)
        assert validate(out) == []
        assert out.states == names + fresh
        assert equivalent_up_to(source, out, maxlen).equal

    def test_deterministic_input_gives_its_relaxed_copys_output(self):
        powr = example("pow_r")
        relaxed = replace(powr, mode=NONDETERMINISTIC)
        assert remove_endmarker(powr) == remove_endmarker(relaxed)

    def test_rejects_non_blind_input(self):
        dyck_marked, _ = attach_trivial_endmarker(example("dyck"))
        with pytest.raises(UnsupportedPassError):
            remove_endmarker(dyck_marked)

    def test_rejects_machines_without_endmarker(self):
        with pytest.raises(UnsupportedPassError):
            remove_endmarker(example("eq"))

    def test_refuses_an_empty_string_the_budget_leaves_undecided(self):
        # an eps self-loop doubles the register, the end-marker scales it by
        # `closing`: at 1/2 the empty string is accepted after one eps move;
        # at 1/32 it needs five, past the default cap |Q| * (0 + 2) = 4
        def looping(closing):
            return MachineSpec(
                kind=HVA, mode=NONDETERMINISTIC, blind=True, endmarker=True, realtime=False,
                alphabet=("a",), states=("q", "acc"), initial_state="q",
                accept_states=frozenset({"acc"}), dimension=1, initial_vector=RowVector([1]),
                transitions=(
                    TransitionRule("q", "eps", STATUS_ANY, "q", Matrix.from_rows([[2]])),
                    TransitionRule("q", ENDMARKER, STATUS_ANY, "acc",
                                   Matrix.from_rows([[closing]])),
                ),
            )

        assert validate(looping(Fraction(1, 2))) == []
        assert remove_endmarker(looping(Fraction(1, 2)))[1].parameters["accepts_empty"] is True
        far = looping(Fraction(1, 32))
        assert validate(far) == []
        assert run_nondeterministic(far, "").verdict == BUDGET_EXCEEDED
        assert run_nondeterministic(far, "", SearchBudget(eps_per_path=5)).accepted
        with pytest.raises(UnsupportedPassError, match="could not decide empty-string "
                                                       "membership within the search budget"):
            remove_endmarker(far)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_machines_stay_equivalent(self, seed):
        rng = random.Random(1000 + seed)
        spec = random_nbhva_endmarker(rng)
        assert validate(spec) == []
        out, _ = remove_endmarker(spec)
        assert validate(out) == []
        assert equivalent_up_to(spec, out, 7).equal


class TestRationalsToIntegers:
    def test_shape_and_scaling_parameters(self):
        eq_marked, _ = attach_trivial_endmarker(example("eq"))
        out, report = rationals_to_integers(eq_marked)
        assert out.dimension == eq_marked.dimension + 2
        assert len(out.states) == len(eq_marked.states)
        assert report.parameters["c"] == 2
        assert all(
            e.denominator == 1 for r in out.transitions for e in r.effect.entries
        )
        assert equivalent_up_to(eq_marked, out, 9).equal

    def test_already_integer_machine_keeps_c_one(self):
        powr = example("pow_r")
        no_rules = replace(powr, transitions=())
        for spec in (powr, no_rules):
            out, report = rationals_to_integers(spec)
            assert report.parameters["c"] == 1
            assert out.dimension == 4
            assert validate(out) == []
            assert equivalent_up_to(spec, out, 8).equal

    def test_accepted_run_register_shape(self):
        # on an accepting run the register just before postprocessing is
        # (c^(p+1) * v_final, c^(p+1), 1)
        eq_marked, _ = attach_trivial_endmarker(example("eq"))
        out, report = rationals_to_integers(eq_marked)
        c = report.parameters["c"]
        word = "abba"
        source_run = run_deterministic(eq_marked, word)
        assert source_run.accepted
        prefinal_source = run_nondeterministic(eq_marked, word).trace[-2].register
        final_source = source_run.last.register

        assert run_deterministic(out, word).accepted
        lifted_run = run_nondeterministic(out, word)
        steps = len(word) + 1
        source_dollar = next(
            r.effect for r in eq_marked.transitions if r.input == ENDMARKER
        )
        before_post = vec_mat_mul(
            lifted_run.trace[-2].register, bordered_matrix(source_dollar, c)
        )
        expected = list((Fraction(c) ** steps * e for e in final_source.entries))
        expected += [Fraction(c) ** steps, Fraction(1)]
        assert before_post == RowVector(expected)
        assert prefinal_source is not None

    def test_rejects_missing_endmarker(self):
        with pytest.raises(UnsupportedPassError):
            rationals_to_integers(example("eq"))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_machines_stay_equivalent(self, seed):
        rng = random.Random(2000 + seed)
        spec = random_nbhva_endmarker(rng)
        out, _ = rationals_to_integers(spec)
        assert validate(out) == []
        assert all(
            e.denominator == 1 for r in out.transitions for e in r.effect.entries
        )
        assert equivalent_up_to(spec, out, 7).equal


def two_state_double_a_dva():
    """DVA over {a} accepting (aa)* with the even state accepting."""
    one = Matrix.identity(1)
    return MachineSpec(
        kind=VA,
        mode=DETERMINISTIC,
        blind=True,
        endmarker=True,
        realtime=True,
        alphabet=("a",),
        states=("q1", "q2"),
        initial_state="q1",
        accept_states=frozenset({"q1"}),
        dimension=1,
        initial_vector=RowVector([1]),
        transitions=(
            TransitionRule("q1", "a", STATUS_ANY, "q2", one),
            TransitionRule("q2", "a", STATUS_ANY, "q1", one),
            TransitionRule("q1", ENDMARKER, STATUS_ANY, "q1", one),
            TransitionRule("q2", ENDMARKER, STATUS_ANY, "q2", one),
        ),
    )


class TestEliminateStates:
    def test_two_state_machine_collapses(self):
        dva = two_state_double_a_dva()
        out, _ = eliminate_states(dva)
        assert len(out.states) == 1
        assert out.dimension == 2 * 1 + 1
        assert validate(out) == []
        assert equivalent_up_to(dva, out, 10).equal

    def test_single_state_input(self):
        one = Matrix.from_rows([[Fraction(1, 2)]])
        dva = MachineSpec(
            kind=VA,
            mode=DETERMINISTIC,
            blind=True,
            endmarker=True,
            realtime=True,
            alphabet=("a",),
            states=("q1",),
            initial_state="q1",
            accept_states=frozenset({"q1"}),
            dimension=1,
            initial_vector=RowVector([2]),
            transitions=(
                TransitionRule("q1", "a", STATUS_ANY, "q1", one),
                TransitionRule("q1", ENDMARKER, STATUS_ANY, "q1", Matrix.identity(1)),
            ),
        )
        out, _ = eliminate_states(dva)
        assert out.dimension == 2
        assert equivalent_up_to(dva, out, 8).equal

    def test_first_entry_mirrors_normalized_source_register(self):
        # the collapsed machine tracks the source with non-accepting
        # end-marker effects zeroed; before the end-marker the registers
        # agree verbatim
        dva = two_state_double_a_dva()
        normalized = MachineSpec(
            **{
                **{f: getattr(dva, f) for f in (
                    "kind", "mode", "blind", "endmarker", "realtime", "alphabet",
                    "states", "initial_state", "accept_states", "dimension",
                    "initial_vector", "gfa_final_vector", "gfa_cutpoint")},
                "transitions": tuple(
                    TransitionRule(r.source, r.input, r.status, r.target,
                                   Matrix.zero(1, 1))
                    if r.input == ENDMARKER and r.target not in dva.accept_states
                    else r
                    for r in dva.transitions
                ),
            }
        )
        out, _ = eliminate_states(dva)
        block = {q: 1 + i for i, q in enumerate(dva.states)}
        for word in ["", "a", "aa", "aaa"]:
            src = run_nondeterministic(normalized, word)
            big = run_nondeterministic(out, word)
            for s_conf, b_conf in zip(src.trace, big.trace):
                assert b_conf.register[0] == s_conf.register[0]
                for q in dva.states:
                    expected = s_conf.register[0] if q == s_conf.state else 0
                    assert b_conf.register[block[q]] == expected

    def test_rejects_nondeterministic_input(self):
        with pytest.raises(UnsupportedPassError):
            eliminate_states(replace(two_state_double_a_dva(), mode=NONDETERMINISTIC))

    def test_rejects_homing_input(self):
        with pytest.raises(UnsupportedPassError):
            eliminate_states(example("eq"))


class TestCounterEncoding:
    def test_ab_counter_machine_maps_to_prime_multipliers(self):
        spec = blind_counter_ab()
        out, report = counters_to_hva1(spec)
        assert report.parameters["primes"] == [2]
        effects = {r.input: r.effect.entry(0, 0) for r in out.transitions}
        assert effects == {"a": Fraction(2), "b": Fraction(1, 2)}
        assert equivalent_up_to(spec, out, 10).equal

    def test_two_counter_update_multiplier(self):
        spec = blind_counter_abc()
        out, _ = counters_to_hva1(spec)
        effects = {r.input: r.effect.entry(0, 0) for r in out.transitions}
        assert effects["a"] == Fraction(6)  # +1 on both counters
        assert effects["b"] == Fraction(1, 2)
        assert effects["c"] == Fraction(1, 3)

    def test_register_tracks_prime_exponents(self):
        spec = blind_counter_abc()
        out, _ = counters_to_hva1(spec)
        for word in ["", "a", "ab", "abc", "aabbcc", "cab"]:
            counter_run = run_deterministic(spec, word)
            hva_run = run_deterministic(out, word)
            if counter_run.last.position != len(word):
                continue  # dead path in both
            c1, c2 = counter_run.last.register
            assert hva_run.last.register == RowVector(
                [Fraction(2) ** c1 * Fraction(3) ** c2]
            )

    def test_endmarker_machine_keeps_its_endmarker(self):
        spec = blind_counter_a_endmarker()
        out, _ = counters_to_hva1(spec)
        assert out.endmarker
        assert validate(out) == []
        assert equivalent_up_to(spec, out, 6).equal

    def test_rejects_non_blind_counters(self):
        spec = blind_counter_ab()
        spec = MachineSpec(
            **{
                **{f: getattr(spec, f) for f in (
                    "kind", "mode", "endmarker", "realtime", "alphabet", "states",
                    "initial_state", "accept_states", "dimension", "initial_vector",
                    "transitions", "gfa_final_vector", "gfa_cutpoint")},
                "blind": False,
            }
        )
        with pytest.raises(UnsupportedPassError):
            counters_to_hva1(spec)

    def test_full_pipeline_on_ab(self):
        spec = blind_counter_ab()
        out, report = counters_to_integer_hva3(spec)
        assert out.dimension == 3
        assert validate(out) == []
        assert all(
            e.denominator == 1 for r in out.transitions for e in r.effect.entries
        )
        assert equivalent_up_to(spec, out, 10).equal
        assert len(report.parameters["stages"]) == 4

    def test_full_pipeline_on_abc(self):
        spec = blind_counter_abc()
        out, _ = counters_to_integer_hva3(spec)
        assert out.dimension == 3
        assert equivalent_up_to(spec, out, 6).equal

    def test_empty_language_preserved(self):
        spec = MachineSpec(
            kind="CounterMachine",
            mode=DETERMINISTIC,
            blind=True,
            endmarker=False,
            realtime=True,
            alphabet=("a",),
            states=("q",),
            initial_state="q",
            accept_states=frozenset(),
            dimension=1,
            initial_vector=(0,),
            transitions=(TransitionRule("q", "a", STATUS_ANY, "q", (1,)),),
        )
        out, _ = counters_to_integer_hva3(spec)
        assert enumerate_accepted(out, 6) == []

    def test_prime_sequence(self):
        assert [nth_prime(i) for i in range(8)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestDfaToStateless:
    def test_mod3_cycle(self):
        out, _ = dfa_to_stateless_dbhva(cyclic_dfa(3))
        a_effect = out.transitions[0].effect
        assert a_effect == Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert matches_reference(out, reference_language("mod", 3), 9).equal

    def test_single_state_loop(self):
        out, _ = dfa_to_stateless_dbhva(cyclic_dfa(1))
        assert out.transitions[0].effect == Matrix.identity(1)
        assert enumerate_accepted(out, 4) == ["", "a", "aa", "aaa", "aaaa"]

    def test_partial_dfa_traps_via_zero_rows(self):
        dfa = DFA(
            states=("q0", "q1"),
            alphabet=("a", "b"),
            initial_state="q0",
            accept_states=frozenset({"q0"}),
            delta={("q0", "a"): "q1", ("q1", "b"): "q0"},
        )
        out, _ = dfa_to_stateless_dbhva(dfa)
        assert matches_reference(out, reference_language("ab_k_star", 1), 8).equal

    def test_requires_initial_to_be_sole_accept(self):
        dfa = cyclic_dfa(2)
        dfa.accept_states = frozenset({"q1"})
        with pytest.raises(UnsupportedPassError):
            dfa_to_stateless_dbhva(dfa)


class TestIntersection:
    def test_mod2_and_mod3_give_mod6(self):
        out, _ = intersect_blind_hva(example("mod", 2), example("mod", 3))
        assert validate(out) == []
        assert out.dimension == 5
        assert matches_reference(out, reference_language("mod", 6), 12).equal

    def test_self_intersection_of_mod4(self):
        m = example("mod", 4)
        out, _ = intersect_blind_hva(m, m)
        assert equivalent_up_to(out, m, 12).equal

    def test_eq_with_ab_star_gives_ab_star(self):
        out, _ = intersect_blind_hva(example("eq"), example("ab_star"))
        assert out.dimension == 11
        assert equivalent_up_to(out, example("ab_star"), 8).equal

    def test_scalar_aliasing_pair_gives_eq(self):
        # eq with its a/b multipliers swapped recognizes the same language;
        # a tensor product of the two registers returns home on "a"
        eq = example("eq")
        swapped = replace(eq, transitions=tuple(
            replace(r, effect=Matrix.from_rows([[Fraction(1, 2) if r.input == "a" else 2]]))
            for r in eq.transitions
        ))
        out, _ = intersect_blind_hva(eq, swapped)
        assert validate(out) == []
        assert not accepts(out, "a")
        assert matches_reference(out, reference_language("eq"), 10).equal

    def test_a_permuted_alphabet_is_a_common_alphabet(self):
        # eq with its alphabet listed as b, a; the product takes the left
        # operand's order
        ba = replace(example("eq"), alphabet=("b", "a"))
        for left, right in ((ba, example("evenab")), (example("evenab"), ba)):
            out, _ = intersect_blind_hva(left, right)
            assert validate(out) == [] and out.alphabet == left.alphabet
            assert matches_reference(out, reference_language("evenab"), 8).equal

    def test_alphabet_mismatch(self):
        with pytest.raises(UnsupportedPassError):
            intersect_blind_hva(example("mod", 2), example("eq"))

    def test_rejects_nondeterministic_operands(self):
        with pytest.raises(UnsupportedPassError):
            intersect_blind_hva(example("leq"), example("eq"))


def scaled(spec, rng):
    return scale_initial_vector(spec, rng.choice([Fraction(-2, 3), 3, Fraction(1, 6)]))


def embedded_extendedfa(rng):
    # `random_extendedfa` itself is no HVA, which `attach_trivial_endmarker`
    # refuses; its embedding is one
    return extendedfa_embed(random_extendedfa(rng))


# a pass and a generator whose every draw it takes: name -> (generator,
# pass of a machine and the draw's rng)
PASS_INPUTS = {
    "eliminate_states(random_dva)": (random_dva, lambda spec, rng: eliminate_states(spec)),
    "remove_endmarker(random_nbhva_endmarker)": (
        random_nbhva_endmarker, lambda spec, rng: remove_endmarker(spec)),
    "rationals_to_integers(random_nbhva_endmarker)": (
        random_nbhva_endmarker, lambda spec, rng: rationals_to_integers(spec)),
    "scale_initial_vector(random_nbhva_endmarker)": (random_nbhva_endmarker, scaled),
    "attach_trivial_endmarker(embedded_extendedfa)": (
        embedded_extendedfa, lambda spec, rng: attach_trivial_endmarker(spec)),
    "scale_initial_vector(embedded_extendedfa)": (embedded_extendedfa, scaled),
}


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(sorted(PASS_INPUTS)), seed=st.integers(0, 2**32 - 1))
def test_a_pass_keeps_the_language_of_a_random_machine(pair, seed):
    # its output validates and is bounded-equal to its source; a draw
    # that the budget leaves undecided shows nothing and is rejected
    generate, apply = PASS_INPUTS[pair]
    rng = random.Random(seed)
    spec = generate(rng)
    assert validate(spec) == []
    out, _ = apply(spec, rng)
    assert validate(out) == []
    try:
        verdict = equivalent_up_to(spec, out, 5, SearchBudget(max_configurations=20_000))
    except UndecidedError:
        assume(False)
    assert verdict.equal, verdict.counterexample
