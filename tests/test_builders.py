import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from vecauto.builders import (
    binary_distinguisher,
    digit_alphabet,
    digit_matrix,
    encode_base,
    example,
    finite_language_gfa,
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
from vecauto.machines import accepts, gfa_value, run_deterministic, run_nondeterministic, validate


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

    @pytest.mark.parametrize("base", [3, 10])
    def test_digit_matrix_steps_every_power(self, base):
        # (1, e, ..., e^4) times the matrix of digit d is the same powers
        # of base * e + d
        for e in (0, 1, 7):
            for d in range(1, base):
                powers = RowVector([e**i for i in range(5)])
                stepped = RowVector([(base * e + d) ** i for i in range(5)])
                assert vec_mat_mul(powers, digit_matrix(d, base, 4)) == stepped


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
            finite_language_gfa(strings, base),
            finite_language_nbhva(strings, base),
            finite_language_nbhva(strings + [""], base),
        ):
            assert validate(spec) == []
        # the distinguishers' zero test hangs on e(y) being no multiple of
        # the base, so check their languages in every base: x, its
        # prefixes, its one-digit extensions and the other drawn strings
        words = {x[:i] for i in range(len(x))} | {x + d for d in digit_alphabet(base)}
        words |= set(strings)
        for spec in (binary_distinguisher(x, base), hva_distinguisher(x, base)):
            assert {w for w in words if accepts(spec, w)} == {x}

    @pytest.mark.parametrize("base", [2, 11])
    @pytest.mark.parametrize(
        "build",
        [binary_distinguisher, hva_distinguisher,
         lambda x, base: finite_language_va([x], base),
         lambda x, base: finite_language_gfa([x], base),
         lambda x, base: finite_language_gfa([""], base),
         lambda x, base: finite_language_nbhva([x], base),
         lambda x, base: finite_language_nbhva([""], base)],
        ids=["binary", "hva", "finite_va", "finite_gfa", "finite_gfa_empty_only", "finite_nbhva",
             "finite_nbhva_empty_only"],
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
        assert spec.initial_vector == RowVector([1, 0])  # (1, e("")) of the forward register
        assert matches_reference(spec, reference_language("singleton", "12"), 5).equal

    def test_prefinal_vector_tracks_encoding_difference(self):
        # before the end-marker the register is (1, e(y)); the end-marker
        # folds e(y) - e(x) into the first entry
        spec = binary_distinguisher("12")
        for word in ["1", "2", "12", "21", "122"]:
            v = spec.initial_vector
            for ch in word:
                rule = next(r for r in spec.transitions if r.input == ch)
                v = vec_mat_mul(v, rule.effect)
            assert v == RowVector([1, encode_base(word)])

    def test_empty_input_is_never_accepted(self):
        spec = binary_distinguisher("12")
        result = run_deterministic(spec, "")
        assert result.verdict == "Reject"
        # 1 + e("") - e("12") = 1 - 5
        assert result.last.register == RowVector([-4, 0])

    def test_rejects_empty_target(self):
        with pytest.raises(BuilderError):
            binary_distinguisher("")

    def test_base_four(self):
        from vecauto.langlab import ReferenceLanguage

        spec = binary_distinguisher("31", base=4)
        ref = ReferenceLanguage("only_31", ("1", "2", "3"), lambda w: w == "31")
        assert matches_reference(spec, ref, 4).equal


class TestFiniteLanguageVa:
    def test_pair_has_dimension_three(self):
        spec = finite_language_va(["1", "2"])
        assert spec.dimension == 3
        assert enumerate_accepted(spec, 5) == ["1", "2"]

    def test_singleton_matches_distinguisher(self):
        assert binary_distinguisher("12") == finite_language_va(["12"])
        assert binary_distinguisher("31", 4) == finite_language_va(["31"], 4)

    def test_nested_members(self):
        spec = finite_language_va(["1", "11"])
        assert accepts(spec, "1")
        assert accepts(spec, "11")
        assert not accepts(spec, "111")

    def test_accepts_an_empty_member(self):
        # e("") = 0 is a root of p like any other member's encoding
        assert enumerate_accepted(finite_language_va(["1", ""]), 4) == ["", "1"]

    def test_rejects_the_empty_set(self):
        with pytest.raises(BuilderError, match="the string set must be nonempty"):
            finite_language_va([])


class TestFiniteLanguageGfa:
    def test_two_state_separator(self):
        # the paper's two-state GFA: value e(y) - e(x) at cutpoint 0
        spec = finite_language_gfa(["121"])
        assert spec.dimension == 2
        assert spec.gfa_final_vector == RowVector([-encode_base("121"), 1])
        assert spec.gfa_cutpoint == 0
        assert enumerate_accepted(spec, 5) == ["121"]

    def test_value_is_the_product_of_differences(self):
        spec = finite_language_gfa(["1", "22"])
        for word in ["", "1", "2", "21", "22", "122"]:
            e = encode_base(word) if word else 0
            assert gfa_value(spec, word) == (e - 1) * (e - 8)


def digit_string_sets(base: int):
    """Sets of 1-5 digit strings of 0-3 digits, so "" may be a member."""
    digits = "".join(str(d) for d in range(1, base))
    return st.sets(st.text(digits, max_size=3), min_size=1, max_size=5)


@pytest.mark.parametrize("build", [finite_language_va, finite_language_gfa], ids=["va", "gfa"])
class TestFiniteSets:
    @settings(max_examples=25, deadline=None)
    @given(strings=digit_string_sets(3))
    def test_base_three_accepts_exactly_the_set(self, build, strings):
        spec = build(strings, 3)
        assert validate(spec) == []
        assert spec.dimension == len(strings) + 1
        maxlen = max(map(len, strings)) + 1
        assert enumerate_accepted(spec, maxlen) == sorted(strings, key=lambda w: (len(w), w))

    @settings(max_examples=25, deadline=None)
    @given(strings=digit_string_sets(10), words=st.lists(st.text("123456789", max_size=4)))
    def test_base_ten_accepts_exactly_the_set(self, build, strings, words):
        spec = build(strings, 10)
        assert validate(spec) == []
        assert spec.dimension == len(strings) + 1
        # the members, their neighbours by one digit, and drawn words
        words += [w for x in strings for w in (x, x + "1", x[:-1])]
        assert [w for w in words if accepts(spec, w)] == [w for w in words if w in strings]


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
        # f(y) = e(y) - c * 3^|y| with c = e("12") / 3^2 = 5/9
        spec = hva_distinguisher("12")
        assert run_deterministic(spec, "21").last.register == RowVector([1, 7 - 5])
        assert run_deterministic(spec, "2").last.register == RowVector([1, Fraction(1, 3)])


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
