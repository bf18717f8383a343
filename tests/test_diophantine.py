import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machine_gen import random_system
from vecauto.diophantine import (
    DiophantineSystem,
    check_commutative,
    famw_from_system,
    solutions_up_to,
    system_from_famw,
)
from vecauto.errors import DomainError, UnsupportedPassError
from vecauto.langlab import all_strings, matches_reference, reference_language
from vecauto.exact import Matrix
from vecauto.machines import FAM, accepts, stateless, validate


def unsupported_famw(case):
    """A valid stateless FAM that no homogeneous system describes, and a
    word it rejects although reading its multipliers as a system admits it."""
    one, two = Matrix.from_rows([[1]]), Matrix.from_rows([[2]])
    if case == "symbol-without-rule":  # the run dies on b
        return stateless(FAM, ("a", "b"), 1, [1], [("a", one)]), "b"
    if case == "endmarker-rule":  # $ doubles the register
        return stateless(FAM, ("a",), 1, [1], [("a", one), ("$", two)], endmarker=True), ""
    return replace(famw_from_system(EQ_SYSTEM), accept_states=()), "ab"


EQ_SYSTEM = DiophantineSystem(("a", "b"), ((1, -1),))
DOUBLE_SYSTEM = DiophantineSystem(("a", "b"), ((2, -1),))


class TestFamwFromSystem:
    def test_eq_system_multipliers(self):
        spec = famw_from_system(EQ_SYSTEM)
        assert validate(spec) == []
        effects = {r.input: r.effect.entry(0, 0) for r in spec.transitions}
        assert effects == {"a": Fraction(2), "b": Fraction(1, 2)}
        assert matches_reference(spec, reference_language("eq"), 10).equal

    def test_empty_system_recognizes_everything(self):
        spec = famw_from_system(DiophantineSystem(("a", "b"), ()))
        assert all(accepts(spec, w) for w in all_strings(("a", "b"), 4))

    def test_weighted_system(self):
        spec = famw_from_system(DOUBLE_SYSTEM)
        effects = {r.input: r.effect.entry(0, 0) for r in spec.transitions}
        assert effects == {"a": Fraction(4), "b": Fraction(1, 2)}
        for w in all_strings(("a", "b"), 9):
            assert accepts(spec, w) == (2 * w.count("a") == w.count("b"))


class TestSystemFromFamw:
    def test_factorization(self):
        spec = famw_from_system(DiophantineSystem(("a", "b"), ((1, -1), (1, -1))))
        system = system_from_famw(spec)
        assert system.coefficients == ((1, -1), (1, -1))

    def test_multiplier_one_gives_zero_column(self):
        system = DiophantineSystem(("a", "b"), ((1, 0),))
        recovered = system_from_famw(famw_from_system(system))
        assert recovered.coefficients == ((1, 0),)

    def test_round_trip(self):
        for seed in range(10):
            system = random_system(random.Random(42 + seed))
            assert system_from_famw(famw_from_system(system)) == system

    @pytest.mark.parametrize(
        "case", ["symbol-without-rule", "endmarker-rule", "non-accepting-state"]
    )
    def test_rejects_machines_no_system_describes(self, case):
        spec, word = unsupported_famw(case)
        assert validate(spec) == []
        assert not accepts(spec, word)
        with pytest.raises(UnsupportedPassError):
            system_from_famw(spec)

    def test_rejects_nondeterministic_machines(self):
        from vecauto.builders import example

        with pytest.raises(UnsupportedPassError):
            system_from_famw(example("leq"))

    @pytest.mark.parametrize("multiplier", [0, -2])
    def test_rejects_a_non_positive_multiplier(self, multiplier):
        # validation refuses such a machine; the extraction refuses it too
        spec = stateless(FAM, ("a",), 1, [1], [("a", Matrix.from_rows([[multiplier]]))])
        assert validate(spec) != []
        with pytest.raises(DomainError, match="multiplicative registers must stay positive"):
            system_from_famw(spec)


class TestSolutionsUpTo:
    def test_eq_bound_two(self):
        assert solutions_up_to(EQ_SYSTEM, 2) == {(0, 0), (1, 1), (2, 2)}

    def test_positive_coefficients_only_trivial(self):
        system = DiophantineSystem(("a", "b"), ((1, 1),))
        assert solutions_up_to(system, 3) == {(0, 0)}

    def test_double_system(self):
        assert solutions_up_to(DOUBLE_SYSTEM, 4) == {(0, 0), (1, 2), (2, 4)}

    def test_negative_bound(self):
        with pytest.raises(DomainError):
            solutions_up_to(EQ_SYSTEM, -1)

    def test_scan_matches_machine_membership(self):
        system = DiophantineSystem(("a", "b"), ((3, -2),))
        spec = famw_from_system(system)
        expected = solutions_up_to(system, 8)
        seen = {
            tuple(w.count(sym) for sym in system.alphabet)
            for w in all_strings(system.alphabet, 8)
            if accepts(spec, w)
        }
        bounded = {s for s in expected if sum(s) <= 8}
        assert seen == bounded


class TestCheckCommutative:
    def test_eq_is_commutative(self):
        spec = famw_from_system(EQ_SYSTEM)
        words = all_strings(("a", "b"), 6)
        assert check_commutative(((w, accepts(spec, w)) for w in words), ("a", "b")) is None

    def test_singleton_is_not(self):
        result = check_commutative(((w, w == "ab") for w in all_strings(("a", "b"), 4)),
                                   ("a", "b"))
        assert result == ("ab", "ba")

    def test_every_multiplicative_machine_language_is_commutative(self):
        for seed in range(5):
            system = random_system(random.Random(77 + seed))
            spec = famw_from_system(system)
            words = all_strings(system.alphabet, 6)
            assert check_commutative(
                ((w, accepts(spec, w)) for w in words), system.alphabet
            ) is None


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda r: any(r)),
        min_size=1,
        max_size=3,
    )
)
def test_membership_is_exactly_solution_membership(rows):
    system = DiophantineSystem(("a", "b"), tuple(rows))
    spec = famw_from_system(system)
    for counts in [(0, 0), (1, 1), (2, 1), (3, 2), (2, 4)]:
        word = "a" * counts[0] + "b" * counts[1]
        assert accepts(spec, word) == system.satisfied_by(counts)
