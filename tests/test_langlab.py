from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecauto import langlab
from vecauto.builders import example, unary_distinguisher
from vecauto.errors import (
    AlphabetError,
    DomainError,
    ReferenceLanguageError,
    UndecidedError,
    UnsupportedKindError,
)
from vecauto.langlab import (
    NOT_APPLICABLE,
    ReferenceLanguage,
    all_strings,
    check_commutative_matrices,
    check_gcd_property,
    check_star_closure,
    check_suffix_property,
    enumerate_accepted,
    equivalent_up_to,
    matches_reference,
    reference_language,
)
from vecauto.exact import Matrix
from vecauto.machines import (
    HVA,
    NONDETERMINISTIC,
    STATUS_ANY,
    SearchBudget,
    TransitionRule,
    accepts,
    stateless,
    validate,
)


class TestEnumeration:
    def test_mod3(self):
        assert enumerate_accepted(example("mod", 3), 7) == ["", "aaa", "aaaaaa"]

    def test_ab_star_order(self):
        assert enumerate_accepted(example("ab_star"), 4) == ["", "ab", "aabb", "abab"]

    def test_powr(self):
        assert enumerate_accepted(example("pow_r"), 6) == ["a", "aab", "aaaabb"]

    def test_prefix_consistency(self):
        spec = example("eq")
        shorter = enumerate_accepted(spec, 5)
        longer = enumerate_accepted(spec, 6)
        assert longer[: len(shorter)] == shorter

    def test_budget_exhaustion_propagates(self):
        from machine_gen import blind_counter_ab
        from vecauto.transforms import counters_to_hva1

        spec, _ = counters_to_hva1(blind_counter_ab())
        spec = replace(spec, mode=NONDETERMINISTIC)
        with pytest.raises(UndecidedError) as info:
            enumerate_accepted(spec, 3, SearchBudget(max_configurations=1))
        assert info.value.word is not None


@pytest.mark.parametrize(
    "verify",
    [lambda n: enumerate_accepted(example("eq"), n),
     lambda n: equivalent_up_to(example("eq"), example("leq"), n),
     lambda n: matches_reference(example("eq"), reference_language("eq"), n),
     lambda n: check_star_closure(example("eq"), n),
     lambda n: check_suffix_property(example("eq"), n),
     lambda n: check_gcd_property(example("mod", 3), n),
     lambda n: check_commutative_matrices(example("eq"), n)],
    ids=["enumerate", "equivalent", "matches-reference", "star-closure", "suffix", "gcd",
         "commutative-matrices"],
)
def test_a_negative_maxlen_is_refused(verify):
    # a negative bound admits no word, not even the empty one, as
    # `all_strings` yields none: the walk refuses it rather than judge ""
    with pytest.raises(DomainError, match="maxlen must be nonnegative"):
        verify(-1)


class TestEquivalence:
    def test_machine_equals_itself(self):
        spec = example("eq")
        assert equivalent_up_to(spec, spec, 6).equal

    def test_mod2_vs_mod3_counterexample(self):
        verdict = equivalent_up_to(example("mod", 2), example("mod", 3), 6)
        assert not verdict.equal
        assert verdict.counterexample == "aa"

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetError):
            equivalent_up_to(example("eq"), example("mod", 2), 4)

    def test_a_permuted_alphabet_holds_the_same_letters(self):
        # eq with its alphabet listed as b, a: the walk takes the left
        # side's order, so the first disagreement is length-lex in it
        ba = replace(example("eq"), alphabet=("b", "a"))
        assert equivalent_up_to(ba, example("eq"), 6).equal
        assert matches_reference(ba, reference_language("eq"), 6).equal
        assert equivalent_up_to(ba, example("leq"), 6).counterexample == "b"
        assert equivalent_up_to(ba, example("evenab"), 6).counterexample == "ba"
        assert equivalent_up_to(example("evenab"), ba, 6).counterexample == "ab"


class TestMatchesReference:
    def test_eq(self):
        assert matches_reference(example("eq"), reference_language("eq"), 10).equal

    def test_dyck(self):
        assert matches_reference(example("dyck"), reference_language("dyck"), 10).equal

    def test_unary_point(self):
        ref = reference_language("l_epsilon")  # same alphabet, different set
        verdict = matches_reference(unary_distinguisher(2), ref, 6)
        assert not verdict.equal
        assert verdict.counterexample == ""  # first length-lex disagreement

    def test_unary_point_against_its_own_set(self):
        from vecauto.langlab import ReferenceLanguage

        ref = ReferenceLanguage("aa_only", ("a", "b"), lambda w: w == "aa")
        assert matches_reference(unary_distinguisher(2), ref, 6).equal


class TestReferencePredicates:
    def test_nesting_ab_in_ab_star_in_eq(self):
        ab = reference_language("ab")
        ab_star = reference_language("ab_star")
        eq = reference_language("eq")
        for w in all_strings(("a", "b"), 8):
            if ab.membership(w):
                assert ab_star.membership(w)
            if ab_star.membership(w):
                assert eq.membership(w)

    def test_neq_examples(self):
        neq = reference_language("neq")
        assert neq.membership("aab")
        assert not neq.membership("ab")
        assert not neq.membership("ba")

    def test_mod23(self):
        mod23 = reference_language("mod23")
        assert mod23.membership("")
        assert not mod23.membership("a")
        assert mod23.membership("aa")

    def test_unknown_name(self):
        with pytest.raises(ReferenceLanguageError):
            reference_language("mystery")

    def test_parameter_names_the_language(self):
        assert reference_language("ab_k_star", "2").name == "ab_2_star"
        assert reference_language("mod", 3).name == "mod_3"
        assert reference_language("singleton", "12").name == "only_12"


# every reference language, with parameters that cover each parametric
# one's edge cases (k = 1, m = 1, the empty string, one letter, repeats)
REFERENCES = [(name, None) for name in ("ab", "ab_star", "eq", "leq", "dyck", "mod23", "pow_r",
                                        "evenab", "neq", "l_epsilon", "balanced_abc")] + [
    ("ab_k_star", k) for k in (1, 2, 3)] + [("mod", m) for m in (1, 2, 5)] + [
    ("singleton", x) for x in ("", "1", "21", "1121")]


@pytest.mark.parametrize("name,param", REFERENCES, ids=str)
def test_reference_steps_are_their_predicates(name, param):
    # the steps, walked over the trie of words up to length 12 (8 on
    # three letters), accept exactly the words the predicate accepts,
    # over hashable states
    ref = reference_language(name, param)
    start, step, accepting = ref.steps
    maxlen = 12 if len(ref.alphabet) <= 2 else 8
    level, states = [("", start)], set()
    for length in range(maxlen + 1):
        for w, state in level:
            assert (state is not None and accepting(state)) == ref.membership(w), w
            states.add(state)
        if length < maxlen:
            level = [(w + c, None if state is None else step(state, c))
                     for w, state in level for c in ref.alphabet]
    # the walk of the reference reads its steps, and gives the verdicts
    # of its predicate
    predicate_only = ReferenceLanguage(ref.name, ref.alphabet, ref.membership)
    assert list(langlab._walk(ref, maxlen)) == list(langlab._walk(predicate_only, maxlen))


def test_every_reference_language_is_pinned():
    assert {name for name, _ in REFERENCES} == set(langlab._REFERENCES)


class TestStarClosure:
    def test_eq(self):
        assert check_star_closure(example("eq"), 8) is None

    def test_ab_star(self):
        assert check_star_closure(example("ab_star"), 8) is None

    def test_broken_singleton_predicate(self):
        result = check_star_closure(ReferenceLanguage("ab", ("a", "b"), lambda w: w == "ab"), 8)
        assert result == ("", "")

    def test_singleton_with_empty_string(self):
        result = check_star_closure(
            ReferenceLanguage("eps_ab", ("a", "b"), lambda w: w in ("", "ab")), 8
        )
        assert result == ("ab", "ab")

    def test_first_offending_pair_of_a_machine(self):
        # at most one b: two accepting states, a register that never moves
        one = Matrix.from_rows([[1]])
        rules = [TransitionRule("p", "a", STATUS_ANY, "p", one),
                 TransitionRule("p", "b", STATUS_ANY, "r", one),
                 TransitionRule("r", "a", STATUS_ANY, "r", one)]
        spec = replace(stateless(HVA, ("a", "b"), 1, [1], []), states=("p", "r"),
                       initial_state="p", accept_states=("p", "r"), transitions=rules)
        assert validate(spec) == []
        for maxlen in range(1, 7):
            accepted = enumerate_accepted(spec, maxlen)
            every_pair = next(((u, v) for u in accepted for v in accepted
                               if len(u) + len(v) <= maxlen and u + v not in accepted), None)
            assert check_star_closure(spec, maxlen) == every_pair
        assert check_star_closure(spec, 6) == ("b", "b")
        assert check_star_closure(spec, 1) is None

    def test_asks_each_word_once(self):
        asked = []

        def membership(w):
            asked.append(w)
            return w.count("a") == w.count("b")

        assert check_star_closure(ReferenceLanguage("eq", ("a", "b"), membership), 4) is None
        assert asked == list(all_strings(("a", "b"), 4))


class TestSuffixProperty:
    def test_dyck(self):
        assert check_suffix_property(example("dyck"), 8) is None

    def test_eq(self):
        assert check_suffix_property(example("eq"), 8) is None

    def test_gap_is_reported(self):
        # accepts a^2 and a^3 but not a: impossible for a stateless
        # deterministic homing machine, expressible as a reference language
        result = check_suffix_property(
            ReferenceLanguage("gap", ("a",), lambda w: w in ("", "aa", "aaa")), 4
        )
        assert result == ("aa", "aaa", "a")

    @settings(max_examples=300, deadline=None)
    @given(accepted=st.sets(st.sampled_from(list(all_strings(("a", "b"), 5)))))
    def test_first_violation_is_the_all_pairs_loops(self, accepted):
        def all_pairs(accepted):
            # the definition: every accepted pair, in length-lex order
            for w1 in accepted:
                for w12 in accepted:
                    if w12.startswith(w1) and w12[len(w1):] not in accepted:
                        return (w1, w12, w12[len(w1):])
            return None

        language = ReferenceLanguage("set", ("a", "b"), accepted.__contains__)
        in_order = [w for w in all_strings(("a", "b"), 5) if w in accepted]
        assert check_suffix_property(language, 5) == all_pairs(in_order)


class TestGcdProperty:
    def test_mod3(self):
        assert check_gcd_property(example("mod", 3), 12) is None

    def test_two_and_three_demand_one(self):
        result = check_gcd_property(
            ReferenceLanguage("two_three", ("a",), lambda w: len(w) in (0, 2, 3)), 6
        )
        assert result == ("aa", "aaa", "a")

    def test_vacuous_when_nothing_is_accepted(self):
        assert check_gcd_property(ReferenceLanguage("eps", ("a",), lambda w: w == ""), 8) is None

    def test_needs_unary_alphabet(self):
        with pytest.raises(AlphabetError):
            check_gcd_property(example("eq"), 6)


class TestCommutativeMatrices:
    def test_one_dimensional_machines_commute(self):
        assert check_commutative_matrices(example("eq"), 7) is None
        assert check_commutative_matrices(example("leq"), 7) is None

    def test_block_shift_matrices_do_not_commute(self):
        assert check_commutative_matrices(example("ab_k_star", 2), 6) is NOT_APPLICABLE

    def test_reversal_follows_from_permutation_closure(self):
        spec = example("evenab")
        assert check_commutative_matrices(spec, 7) is None
        for w in enumerate_accepted(spec, 7):
            assert accepts(spec, w[::-1])

    def test_refuses_a_machine_with_states(self):
        # two states whose one-dimensional effects commute, but the
        # control state makes the language depend on letter order:
        # a then b is accepted, b then a is not
        rules = [TransitionRule("p", "a", STATUS_ANY, "r", Matrix.from_rows([[2]])),
                 TransitionRule("r", "b", STATUS_ANY, "p", Matrix.from_rows([[Fraction(1, 2)]]))]
        spec = replace(stateless(HVA, ("a", "b"), 1, [1], []), states=("p", "r"),
                       initial_state="p", accept_states=("p",), transitions=rules)
        assert validate(spec) == []
        assert accepts(spec, "ab") and not accepts(spec, "ba")
        with pytest.raises(UnsupportedKindError):
            check_commutative_matrices(spec, 4)
