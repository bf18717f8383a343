import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from vecauto.builders import (
    binary_distinguisher,
    digit_matrix,
    encode_base,
    example,
    finite_language_nbhva,
    finite_language_va,
    hva_distinguisher,
    unary_distinguisher,
)
from vecauto.errors import BuilderError, EncodingError
from vecauto.exact import RowVector, vec_mat_mul
from vecauto.langlab import (
    enumerate_accepted,
    equivalent_up_to,
    matches_reference,
    reference_language,
)
from vecauto.machines import accepts, run_deterministic, run_nondeterministic, validate


def encode_by_digit_matrices(x: str, base: int = 3) -> int:
    """e(x) by the incremental encoding: each digit d maps (1, e(y)) to
    (1, e(y d))."""
    v = RowVector([1, 0])
    for ch in x:
        v = vec_mat_mul(v, digit_matrix(int(ch), base))
    assert v[0] == 1
    return v[1]


def digit_strings(base: int, max_size: int = 4):
    return st.text("".join(str(d) for d in range(1, base)), min_size=1, max_size=max_size)


class TestEncodeBase:
    def test_base3_two_digits(self):
        assert encode_base("12") == 5

    def test_single_digit(self):
        assert encode_base("2") == 2

    def test_base4(self):
        assert encode_base("123", 4) == 27

    def test_rejects_invalid_digit(self):
        with pytest.raises(EncodingError):
            encode_base("103")
        with pytest.raises(EncodingError):
            encode_base("3", 3)

    def test_rejects_empty(self):
        with pytest.raises(EncodingError):
            encode_base("")

    def test_rejects_tiny_base(self):
        with pytest.raises(BuilderError):
            encode_base("1", 2)

    @pytest.mark.parametrize("base", [3, 4, 5])
    def test_closed_form_matches_matrix_form(self, base):
        from itertools import product

        digits = [str(d) for d in range(1, base)]
        for length in range(1, 5):
            for word in map("".join, product(digits, repeat=length)):
                assert encode_base(word, base) == encode_by_digit_matrices(word, base)

    def test_matrix_form_to_length_twelve(self):
        word = "121221112122"
        assert encode_base(word) == encode_by_digit_matrices(word)


class TestSeparationBuilders:
    @pytest.mark.parametrize("base", range(3, 11))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_every_output_validates(self, base, data):
        strings = data.draw(st.lists(digit_strings(base), min_size=1, max_size=3, unique=True))
        x = strings[0]
        for spec in (
            binary_distinguisher(x, base),
            hva_distinguisher(x, base),
            finite_language_va(strings, base),
            finite_language_nbhva(strings, base),
            finite_language_nbhva(strings + [""], base),
        ):
            assert validate(spec) == []

    @pytest.mark.parametrize("base", [2, 11])
    @pytest.mark.parametrize(
        "build",
        [binary_distinguisher, hva_distinguisher,
         lambda x, base: finite_language_va([x], base),
         lambda x, base: finite_language_nbhva([x], base),
         lambda x, base: finite_language_nbhva([""], base)],
        ids=["binary", "hva", "finite_va", "finite_nbhva", "finite_nbhva_empty_only"],
    )
    @settings(max_examples=10, deadline=None)
    @given(x=digit_strings(10))
    def test_base_outside_three_to_ten_is_refused(self, base, build, x):
        with pytest.raises(BuilderError):
            build(x, base)


class TestUnaryDistinguisher:
    def test_accepts_exactly_the_point(self):
        spec = unary_distinguisher(3)
        assert validate(spec) == []
        for i in range(7):
            assert accepts(spec, "a" * i) == (i == 3)

    def test_zero_accepts_only_empty(self):
        spec = unary_distinguisher(0)
        assert enumerate_accepted(spec, 5) == [""]

    def test_foreign_letter_zeroes_the_register(self):
        spec = unary_distinguisher(2)
        assert run_deterministic(spec, "ab").verdict == "Reject"
        assert run_nondeterministic(spec, "ab").trace[2].register == RowVector([0])
        assert not accepts(spec, "aba")

    def test_initial_vector_is_a_power_of_two(self):
        assert unary_distinguisher(5).initial_vector == RowVector([32])

    def test_alphabet_without_a_is_refused(self):
        with pytest.raises(BuilderError, match="alphabet must contain 'a'"):
            unary_distinguisher(2, ("b", "c"))


class TestBinaryDistinguisher:
    def test_accepts_only_the_target(self):
        spec = binary_distinguisher("12")
        assert spec.initial_vector == RowVector([1, 7])  # reversed encoding of "12"
        assert matches_reference(spec, reference_language("singleton", "12"), 5).equal

    def test_prefinal_vector_tracks_encoding_difference(self):
        # each step divides the running difference by the base once more,
        # so the zero test is unaffected but the scale is 3^len(word)
        spec = binary_distinguisher("12")
        target = encode_base("21")
        for word in ["1", "2", "12", "21", "122"]:
            v = spec.initial_vector
            for ch in word:
                rule = next(r for r in spec.transitions if r.input == ch)
                v = vec_mat_mul(v, rule.effect)
            diff = Fraction(target - encode_base(word[::-1]), 3 ** len(word))
            assert v == RowVector([1, diff])

    def test_empty_input_is_never_accepted(self):
        spec = binary_distinguisher("12")
        result = run_deterministic(spec, "")
        assert result.verdict == "Reject"
        assert result.last.register == RowVector([1 + 7, 7])

    def test_rejects_empty_target(self):
        with pytest.raises(BuilderError):
            binary_distinguisher("")

    def test_base_four(self):
        from vecauto.langlab import ReferenceLanguage

        spec = binary_distinguisher("31", base=4)
        ref = ReferenceLanguage("only_31", ("1", "2", "3"), lambda w: w == "31")
        assert matches_reference(spec, ref, 4).equal


class TestFiniteLanguageVa:
    def test_pair_has_dimension_five(self):
        spec = finite_language_va(["1", "2"])
        assert spec.dimension == 5
        assert enumerate_accepted(spec, 5) == ["1", "2"]

    def test_singleton_matches_distinguisher(self):
        wide = finite_language_va(["12"])
        narrow = binary_distinguisher("12")
        assert wide.dimension == 3
        assert equivalent_up_to(wide, narrow, 5).equal

    def test_nested_members(self):
        spec = finite_language_va(["1", "11"])
        assert accepts(spec, "1")
        assert accepts(spec, "11")
        assert not accepts(spec, "111")

    def test_rejects_empty_member(self):
        with pytest.raises(BuilderError):
            finite_language_va(["1", ""])

    def test_rejects_the_empty_set(self):
        with pytest.raises(BuilderError, match="the string set must be nonempty"):
            finite_language_va([])


class TestHvaDistinguisher:
    def test_accepts_only_the_target(self):
        spec = hva_distinguisher("21")
        assert validate(spec) == []
        assert accepts(spec, "21")
        assert not accepts(spec, "12")

    def test_empty_input_never_leaves_the_initial_state(self):
        spec = hva_distinguisher("21")
        assert run_deterministic(spec, "").last.state == "q1"
        assert not accepts(spec, "")

    def test_single_digit_target(self):
        spec = hva_distinguisher("1")
        assert accepts(spec, "1")
        assert not accepts(spec, "11")

    def test_rejects_empty_target(self):
        with pytest.raises(BuilderError, match="cannot build a distinguisher for the empty string"):
            hva_distinguisher("")

    def test_final_vector_encodes_the_difference(self):
        spec = hva_distinguisher("12")
        result = run_deterministic(spec, "21")
        diff = Fraction(encode_base("21") - encode_base("12"), 3**2)
        assert result.last.register == RowVector([1, diff])


class TestFiniteLanguageNbhva:
    def test_two_members(self):
        spec = finite_language_nbhva(["1", "22"])
        assert len(spec.states) == 2
        assert enumerate_accepted(spec, 6) == ["1", "22"]

    def test_singleton(self):
        spec = finite_language_nbhva(["12"])
        assert enumerate_accepted(spec, 5) == ["12"]

    def test_rejects_extension(self):
        spec = finite_language_nbhva(["1"])
        assert not accepts(spec, "11")

    def test_empty_member_costs_one_more_state(self):
        spec = finite_language_nbhva(["", "1"])
        assert len(spec.states) == 3
        assert enumerate_accepted(spec, 4) == ["", "1"]

    def test_rejects_the_empty_set(self):
        with pytest.raises(BuilderError, match="the string set must be nonempty"):
            finite_language_nbhva([])


class TestCatalog:
    def test_every_example_validates(self):
        cases = [
            ("pow_r", None),
            ("ab_star", None),
            ("mod", 5),
            ("mod_rot", 2),
            ("ab_k_star", 3),
            ("eq", None),
            ("leq", None),
            ("dyck", None),
            ("evenab", None),
            ("l_epsilon", None),
            ("unary_point", 2),
        ]
        for name, param in cases:
            assert validate(example(name, param)) == [], name

    def test_powr_accepts_single_a(self):
        assert accepts(example("pow_r"), "a")

    def test_powr_language(self):
        assert enumerate_accepted(example("pow_r"), 6) == ["a", "aab", "aaaabb"]

    def test_ab_star_small_words(self):
        spec = example("ab_star")
        assert accepts(spec, "aabb")
        assert accepts(spec, "abaabb")
        assert not accepts(spec, "aab")

    def test_mod4_equals_cyclic_dfa_recognizer(self):
        spec = example("mod", 4)
        assert accepts(spec, "a" * 4)
        assert accepts(spec, "a" * 8)
        assert not accepts(spec, "a" * 6)

    def test_mod_rot_agrees_with_mod(self):
        for m in (1, 2, 4):
            verdict = equivalent_up_to(example("mod_rot", m), example("mod", m), 9)
            assert verdict.equal, (m, verdict)

    def test_mod_rot_rejects_irrational_modulus(self):
        with pytest.raises(BuilderError):
            example("mod_rot", 3)

    def test_ab_k_star_needs_k_above_one(self):
        with pytest.raises(BuilderError):
            example("ab_k_star", 1)

    def test_parameter_validation(self):
        with pytest.raises(BuilderError):
            example("mod")
        with pytest.raises(BuilderError):
            example("eq", 3)
        with pytest.raises(BuilderError):
            example("no_such_machine")

    def test_evenab_accepts_permutations_of_even_balanced_strings(self):
        # the one-dimensional signed register cancels per count, not per
        # block, so the recognized set is permutation-closed
        spec = example("evenab")
        assert accepts(spec, "aabb")
        assert accepts(spec, "abab")
        assert accepts(spec, "baba")
        assert not accepts(spec, "ab")
        assert not accepts(spec, "aaabbb")

    def test_stateless_examples_accept_doubled_members(self):
        for name, param in [("eq", None), ("ab_star", None), ("ab_k_star", 2), ("mod", 3)]:
            spec = example(name, param)
            for word in enumerate_accepted(spec, 4):
                assert accepts(spec, word + word), (name, word)
