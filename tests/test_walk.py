"""The prefix-sharing verdict walk against per-word membership.

`machines.walk`, which every verifier reads through `langlab._walk`,
steps one search state per prefix instead of searching each word from
scratch. It must give every word the verdict `accepts`
gives it alone, under every budget: the same (word, verdict) sequence
and the same first UndecidedError word. The CLI's records must not
change either."""

import contextlib
import io
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machine_gen import (
    blind_counter_a_endmarker,
    blind_counter_ab,
    blind_counter_abc,
    counter_ab_endmarker,
    extendedfa_a_endmarker,
    random_dva,
    random_extendedfa,
    random_nbhva_endmarker,
)
from test_machines import one_state_gfa
from vecauto import langlab
from vecauto.builders import (
    binary_distinguisher,
    example,
    finite_language_nbhva,
    finite_language_va,
    hva_distinguisher,
)
from vecauto.cli import main
from vecauto.errors import InconsistentSpecError, UndecidedError
from vecauto.exact import Matrix
from vecauto.fileformat import write_machine
from vecauto.langlab import all_strings, equivalent_up_to
from vecauto.machines import (
    DEFAULT_MAX_CONFIGURATIONS,
    EPSILON,
    HVA,
    NONDETERMINISTIC,
    STATUS_ANY,
    MachineSpec,
    SearchBudget,
    TransitionRule,
    accepts,
    extendedfa_embed,
    stateless,
    validate,
)

BUDGETS = [SearchBudget(eps, configs)
           for configs in (3, 20, 500, DEFAULT_MAX_CONFIGURATIONS)
           for eps in (None, 0, 2)]

GENERATORS = {
    "dva": random_dva,
    "nbhva_endmarker": random_nbhva_endmarker,
    "embedded_extendedfa": lambda rng: extendedfa_embed(random_extendedfa(rng)),
}

CATALOG = [("pow_r", None), ("ab_star", None), ("eq", None), ("leq", None), ("dyck", None),
           ("evenab", None), ("l_epsilon", None), ("ab_k_star", 2), ("mod", 3),
           ("mod_rot", 4), ("unary_point", 2)]

MACHINES = {
    **{name if param is None else f"{name}_{param}": partial(example, name, param)
       for name, param in CATALOG},
    "binary_distinguisher_12": partial(binary_distinguisher, "12"),
    "hva_distinguisher_12": partial(hva_distinguisher, "12"),
    "finite_language_va": partial(finite_language_va, ["1", "22"]),
    "finite_language_nbhva": partial(finite_language_nbhva, ["1", "22"]),
    "gfa": one_state_gfa,
    "blind_counter_ab": blind_counter_ab,
    "blind_counter_abc": blind_counter_abc,
    "blind_counter_a_endmarker": blind_counter_a_endmarker,
    "counter_ab_endmarker": counter_ab_endmarker,
    "extendedfa_a_endmarker": extendedfa_a_endmarker,
}


def per_word_walk(language, maxlen, budget=None):
    """The walk as each word alone would have it."""
    for w in all_strings(language.alphabet, maxlen):
        if isinstance(language, MachineSpec):
            yield w, accepts(language, w, budget)
        else:
            yield w, language.membership(w)


def outcomes(walk):
    """The (word, verdict) pairs of a walk, and the word of the
    UndecidedError that ended it, if one did."""
    seen = []
    try:
        for item in walk:
            seen.append(item)
    except UndecidedError as exc:
        return seen, exc.word
    return seen, None


def assert_walk_agrees(spec, maxlen, budget):
    assert validate(spec) == []
    expected = outcomes(per_word_walk(spec, maxlen, budget))
    assert outcomes(langlab._walk(spec, maxlen, budget)) == expected
    return expected


@settings(max_examples=150, deadline=None)
@given(generator=st.sampled_from(sorted(GENERATORS)), seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from(BUDGETS))
def test_random_machines_walk_as_per_word(generator, seed, budget):
    spec = GENERATORS[generator](random.Random(seed))
    assert_walk_agrees(spec, 5, budget)


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_catalog_machines_walk_as_per_word(name):
    spec = MACHINES[name]()
    for budget in BUDGETS + [None]:
        assert_walk_agrees(spec, 6 if len(spec.alphabet) <= 2 else 4, budget)


def one_dimensional(rules, states, accept_states, alphabet=("a", "b")):
    """A blind nondeterministic HVA on one rational register, from
    (source, letter, target, factor) rules; the first state is initial."""
    return MachineSpec(
        kind=HVA, mode=NONDETERMINISTIC, blind=True, endmarker=False,
        realtime=not any(letter == EPSILON for _, letter, _, _ in rules),
        alphabet=alphabet, states=states, initial_state=states[0],
        accept_states=accept_states, dimension=1, initial_vector=[1],
        transitions=[TransitionRule(q, letter, STATUS_ANY, target,
                                    Matrix.from_rows([[Fraction(x)]]))
                     for q, letter, target, x in rules])


def eps_loop_machine():
    """Reading b may move from p to r, where two eps loops double and
    negate the register: words that reach r and are not accepted spend
    every eps move the cap allows, so the search leaves them undecided."""
    return one_dimensional(
        [("p", "a", "p", 2), ("p", "b", "p", Fraction(1, 2)), ("p", "b", "r", 1),
         ("r", "a", "r", Fraction(1, 2)), ("r", EPSILON, "r", 2), ("r", EPSILON, "r", -1)],
        ("p", "r"), {"p", "r"})


@pytest.mark.parametrize("budget", BUDGETS, ids=str)
def test_budget_outcomes_are_the_per_word_searches(budget):
    # the canary of the budget rule: every UndecidedError, and every
    # verdict before it, matches the word's own search
    assert_walk_agrees(eps_loop_machine(), 4, budget)


def test_eps_loops_leave_the_same_word_undecided():
    assert assert_walk_agrees(eps_loop_machine(), 5, None)[1] == "aab"
    assert assert_walk_agrees(eps_loop_machine(), 5, SearchBudget(eps_per_path=0))[1] == "bb"


def test_eps_cap_grows_with_the_word_length():
    # each a multiplies by 4 and each eps move halves: a^n needs 2n eps
    # moves, within the cap n + 2 of a one-state machine up to n = 2
    spec = one_dimensional([("q", "a", "q", 4), ("q", EPSILON, "q", Fraction(1, 2))],
                           ("q",), {"q"}, alphabet=("a",))
    seen, undecided = assert_walk_agrees(spec, 4, None)
    assert seen == [("", True), ("a", True), ("aa", True)] and undecided == "aaa"


def test_a_configuration_keeps_its_fewest_eps_moves():
    # (t, 0) is reached on a from s with no eps move and from s2 with
    # one; under a one-move cap only the first lets t take its eps move
    # without reaching the cap, so "a" is a clean Reject
    spec = one_dimensional([("s", EPSILON, "s2", 1), ("s", "a", "t", 0), ("s2", "a", "t", 0),
                            ("t", EPSILON, "u", 1)], ("s", "s2", "t", "u"), {"u"})
    seen, undecided = assert_walk_agrees(spec, 2, SearchBudget(eps_per_path=1))
    assert ("a", False) in seen


def test_an_eps_move_can_undercut_a_letter_move():
    # on a, x is reached from s3 after two eps moves and from y after
    # one; with x's fewest moves (one), its eps move to z stays within a
    # two-move cap, so "a" is a clean Reject
    spec = one_dimensional([("s", EPSILON, "s2", 1), ("s2", EPSILON, "s3", 1),
                            ("s", "a", "y", 1), ("s3", "a", "x", 1), ("y", EPSILON, "x", 1),
                            ("x", EPSILON, "z", 2)], ("s", "s2", "s3", "x", "y", "z"), {"z"})
    seen, undecided = assert_walk_agrees(spec, 2, SearchBudget(eps_per_path=2))
    assert ("a", False) in seen


def test_only_words_over_budget_are_searched_alone(monkeypatch):
    asked = []

    def counting(spec, word, budget=None):
        asked.append(word)
        return accepts(spec, word, budget)

    monkeypatch.setattr(langlab, "accepts", counting)
    leq = example("leq")
    assert_walk_agrees(leq, 6, None)
    assert asked == []
    small = SearchBudget(max_configurations=3)
    seen, undecided = assert_walk_agrees(leq, 6, small)
    # sharing stops below a prefix whose search outgrew the budget: that
    # prefix and every extension of it are asked alone, in walk order
    assert "" not in asked and asked[-1] == undecided
    assert asked == [w for w, _ in seen + [(undecided, None)]
                     if any(w.startswith(u) for u in asked)]


def test_walk_steps_no_word_beyond_the_one_asked():
    # a deterministic machine with two rules for b in its one state: the
    # run of "b" raises, the runs of "" and "a" do not
    one = Matrix.from_rows([[1]])
    spec = stateless(HVA, ("a", "b"), 1, [1], [("a", one), ("b", one), ("b", one)])
    walk = langlab._walk(spec, 3)
    assert next(walk) == ("", True)
    assert next(walk) == ("a", True)
    with pytest.raises(InconsistentSpecError):
        next(walk)
    with pytest.raises(InconsistentSpecError):
        accepts(spec, "b")
    # a verifier that stops at "a" never reaches the conflict
    assert equivalent_up_to(spec, example("l_epsilon"), 3).counterexample == "a"


def catalog_commands(tmp_path):
    for name, param in [("pow_r", None), ("ab_star", None), ("eq", None), ("leq", None),
                        ("dyck", None), ("evenab", None), ("ab_k_star", 2), ("mod", 6),
                        ("mod_rot", 4)]:
        path = tmp_path / f"{name}_{param}.mach"
        path.write_text(write_machine(example(name, param)))
        reference = "mod:4" if name == "mod_rot" else name if param is None else f"{name}:{param}"
        unary = name.startswith("mod")
        for budget in ([], ["--budget", "3"], ["--eps-per-path", "0", "--budget", "20"]):
            yield ["enumerate", str(path), "--maxlen", "6"] + budget
            yield ["verify", str(path), "--against", reference, "--maxlen", "6"] + budget
            yield ["verify", str(path), "--against", str(path), "--maxlen", "6"] + budget
            for prop in ("star-closure", "suffix", "commutative-matrices", "commutative") + (
                    ("gcd",) if unary else ()):
                yield ["check", prop, str(path), "--maxlen", "6"] + budget


def cli_output(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def test_cli_records_are_the_per_word_walks(tmp_path, monkeypatch):
    commands = list(catalog_commands(tmp_path))
    walked = [cli_output(argv) for argv in commands]
    monkeypatch.setattr(langlab, "_walk", per_word_walk)
    assert [cli_output(argv) for argv in commands] == walked
    assert {code for code, _ in walked} >= {0, 1, 3}
