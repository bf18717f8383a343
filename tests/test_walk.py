"""The verdict walk against per-word membership.

`machines.walk`, which every verifier reads, steps one node per prefix
instead of searching each word from scratch. Through `langlab._walk` it
must give every word the verdict the word's own run gives it alone
(`run_nondeterministic`, whose eps cap is set by the word's length),
under every budget: the same (word, verdict) sequence and the same first
UndecidedError word. Bounded equivalence walks pairs of the two sides'
nodes, and skips a word whose pair an earlier word reached when both
sides are deterministic; it must find the first disagreement of the
per-word oracle (a zip of the two per-word walks, left side first), or
raise its error on the same word. The CLI's records must not change
either. The one nondeterministic search that the walk and the one-word
runs step is checked against the breadth-first search it replaced
(`bfs_reference`), the memoized step under both against the rules
evaluated directly, the end test that judges a word's last
configuration against the end-marker step it replaces, and a wide
deterministic run, which multiplies letter blocks, against the run that
steps each letter by the rules."""

import contextlib
import io
import json
import math
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from functools import cached_property, partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bfs_reference import bfs
from machine_gen import (
    blind_counter_a_endmarker,
    blind_counter_ab,
    blind_counter_abc,
    counter_ab_endmarker,
    extendedfa_a_endmarker,
    random_dva,
    random_extendedfa,
    random_matrix,
    random_nbhva_endmarker,
    random_system,
)
from test_machines import one_state_gfa
from vecauto import langlab, machines
from vecauto.builders import (
    binary_distinguisher,
    example,
    finite_language_nbhva,
    finite_language_va,
    hva_distinguisher,
)
from vecauto.cli import main
from vecauto.diophantine import famw_from_system
from vecauto.errors import AlphabetError, InconsistentSpecError, UndecidedError
from vecauto.exact import WORD_BITS, Matrix, RowVector, mat_mul, vec_mat_mul
from vecauto.fileformat import write_machine
from vecauto.langlab import (
    ReferenceLanguage,
    all_strings,
    equivalent_up_to,
    reference_language,
)
from vecauto.machines import (
    ACCEPT,
    BLOCK_LETTERS,
    BUDGET_EXCEEDED,
    COUNTER_MACHINE,
    DEFAULT_MAX_CONFIGURATIONS,
    DETERMINISTIC,
    ENDMARKER,
    EPSILON,
    FAM,
    GFA,
    HVA,
    NONDETERMINISTIC,
    REJECT,
    STATUS_ANY,
    STATUS_EQ,
    STATUS_NE,
    VA,
    MachineSpec,
    SearchBudget,
    TransitionRule,
    accepts,
    extendedfa_embed,
    gfa_value,
    nondeterministic_steps,
    run_deterministic,
    run_nondeterministic,
    searches,
    stateless,
    validate,
)
from vecauto.transforms import (
    attach_trivial_endmarker,
    counters_to_integer_hva3,
    eliminate_states,
    intersect_blind_hva,
    rationals_to_integers,
    remove_endmarker,
    scale_initial_vector,
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


def member(spec, word, budget=None):
    """A machine's verdict on `word` from the word's own run, raising
    UndecidedError where its search runs out of budget. Not `accepts`:
    a nondeterministic one steps the search `searches` gives the walk."""
    if spec.mode == DETERMINISTIC:
        return accepts(spec, word)
    verdict = run_nondeterministic(spec, word, budget).verdict
    if verdict == BUDGET_EXCEEDED:
        raise machines._undecided(word, budget)
    return verdict == ACCEPT


def per_word_walk(language, maxlen, budget=None):
    """The walk as each word alone would have it."""
    for w in all_strings(language.alphabet, maxlen):
        if isinstance(language, MachineSpec):
            yield w, member(language, w, budget)
        else:
            yield w, language.membership(w)


def per_word_disagreement(left, right, maxlen, budget=None):
    """The first disagreement as each word alone would have it: the two
    per-word walks zipped, each word asked of the left side first."""
    for (w, in_left), (_, in_right) in zip(per_word_walk(left, maxlen, budget),
                                           per_word_walk(right, maxlen, budget)):
        if in_left != in_right:
            return w
    return None


def per_word_verdict(left, right, maxlen, budget):
    counterexample = per_word_disagreement(left, right, maxlen, budget)
    return langlab.EquivalenceVerdict(counterexample is None, counterexample, maxlen)


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


def quartering_machine():
    """Each a multiplies by 4 and each eps move halves: a^n needs 2n eps
    moves, within the cap n + 2 of a one-state machine up to n = 2."""
    return one_dimensional([("q", "a", "q", 4), ("q", EPSILON, "q", Fraction(1, 2))],
                           ("q",), {"q"}, alphabet=("a",))


def two_state_cycle_machine():
    """Each a multiplies by 4, and an eps move from p to r and back
    halves: a^n needs 4n eps moves, within the cap 2(n + 2) up to n = 2."""
    return one_dimensional([("p", "a", "p", 4), ("p", EPSILON, "r", Fraction(1, 2)),
                            ("r", EPSILON, "p", 1)], ("p", "r"), {"p"}, alphabet=("a",))


def fewest_eps_machine():
    """(t, 0) is reached on a from s with no eps move and from s2 with
    one; under a one-move cap only the first lets t take its eps move
    without reaching the cap."""
    return one_dimensional([("s", EPSILON, "s2", 1), ("s", "a", "t", 0), ("s2", "a", "t", 0),
                            ("t", EPSILON, "u", 1)], ("s", "s2", "t", "u"), {"u"})


def undercut_machine():
    """On a, x is reached from s3 after two eps moves and from y after
    one; with x's fewest moves (one), its eps move to z stays within a
    two-move cap."""
    return one_dimensional([("s", EPSILON, "s2", 1), ("s2", EPSILON, "s3", 1),
                            ("s", "a", "y", 1), ("s3", "a", "x", 1), ("y", EPSILON, "x", 1),
                            ("x", EPSILON, "z", 2)], ("s", "s2", "s3", "x", "y", "z"), {"z"})


def eps_chain_machine():
    """Eps rules chain q1 -> q2 -> ... -> q5, and a or b leads from q5 back
    to q1, so a path that reads every letter from q5 takes |states| - 1
    eps moves at every position: within one move per position of the
    default cap. Around the chain a doubles the register and b halves it;
    q5 also reads a in place, so the words with at least as many a's as
    b's are accepted."""
    return one_dimensional(
        [("q1", EPSILON, "q2", 2), ("q2", EPSILON, "q3", Fraction(1, 2)),
         ("q3", EPSILON, "q4", 3), ("q4", EPSILON, "q5", Fraction(1, 3)),
         ("q5", "a", "q1", 2), ("q5", "b", "q1", Fraction(1, 2)), ("q5", "a", "q5", 1)],
        ("q1", "q2", "q3", "q4", "q5"), {"q5"})


EPS_MACHINES = {"eps_loop": eps_loop_machine, "quartering": quartering_machine,
                "two_state_cycle": two_state_cycle_machine, "fewest_eps": fewest_eps_machine,
                "undercut": undercut_machine, "eps_chain": eps_chain_machine}


def test_eps_cap_grows_with_the_word_length():
    # an eps self-loop and a two-state eps cycle; the capped configuration
    # count comes first, as a search that lost its eps cap would expand
    # every configuration the count allows
    for spec in (quartering_machine(), two_state_cycle_machine()):
        for budget in (SearchBudget(max_configurations=500), None):
            seen, undecided = assert_walk_agrees(spec, 4, budget)
            assert seen == [("", True), ("a", True), ("aa", True)] and undecided == "aaa"


def test_a_configuration_keeps_its_fewest_eps_moves():
    seen, undecided = assert_walk_agrees(fewest_eps_machine(), 2, SearchBudget(eps_per_path=1))
    assert ("a", False) in seen  # a clean Reject


def test_an_eps_move_can_undercut_a_letter_move():
    seen, undecided = assert_walk_agrees(undercut_machine(), 2, SearchBudget(eps_per_path=2))
    assert ("a", False) in seen  # a clean Reject


def test_no_word_is_searched_alone(monkeypatch):
    # the walk counts the budget along each word as the word's own search
    # does, so under every budget it asks no word of a one-word search
    asked = []
    for name in ("accepts", "run_nondeterministic"):
        def ask(spec, word, budget=None, search=getattr(machines, name)):
            asked.append(word)
            return search(spec, word, budget)
        monkeypatch.setattr(machines, name, ask)
    undecided = set()
    for budget in BUDGETS + [None]:
        for spec in (example("leq"), eps_loop_machine()):
            undecided.add(outcomes(langlab._walk(spec, 6, budget))[1])
    assert asked == [] and len(undecided) > 1


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


# ---------------------------------------------------------------------------
# the search against the breadth-first reference


REFERENCE_BUDGETS = BUDGETS + [SearchBudget(eps, 50) for eps in (None, 0, 2)]


def expanded(spec, word, budget):
    """The configurations the one search expands on `word`."""
    start, step, _ = nondeterministic_steps(spec, budget, len(word))
    frontier = start
    for letter in word:
        frontier = step(frontier, letter)
    return frontier.spent


def assert_path_replays(spec, trace, path):
    # each configuration is reached from the one before by the rule named
    # in the path: a letter (or end-marker) move or an eps move
    assert trace[0] == (spec.initial_state, spec.initial_vector, 0)
    for before, after, idx in zip(trace, trace[1:], path):
        rule = spec.transitions[idx]
        assert after.position == before.position + (rule.input != EPSILON)
        assert (idx, after.state, after.register) in spec.successors(
            before.state, rule.input, before.register)


def assert_search_as_reference(spec, maxlen, budget):
    real_time = not (spec.epsilon_sources and not spec.realtime)
    for w in all_strings(spec.alphabet, maxlen):
        reference, run = bfs(spec, w, budget), run_nondeterministic(spec, w, budget)
        if run.accepted:
            assert_path_replays(spec, run.trace, run.accepting_path)
        if real_time:
            assert (run.verdict, run.trace, run.accepting_path) == (
                reference.verdict, reference.trace, reference.accepting_path)
        elif run.verdict != reference.verdict:
            # the two orders spend the cap on different configurations:
            # a verdict can become BudgetExceeded, or stop being one, only
            # where a search reached the cap; it never flips
            assert BUDGET_EXCEEDED in (run.verdict, reference.verdict), w
            cap = budget.max_configurations
            assert reference.expanded >= cap or (
                reference.verdict == ACCEPT and expanded(spec, w, budget) >= cap), w


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from(REFERENCE_BUDGETS))
def test_the_search_agrees_with_the_breadth_first_reference(data, budget):
    source = data.draw(st.sampled_from(["generated", "catalog", "eps"]))
    if source == "generated":
        spec = GENERATORS[data.draw(st.sampled_from(sorted(GENERATORS)))](
            random.Random(data.draw(st.integers(0, 2**32 - 1))))
    else:
        machines_of = MACHINES if source == "catalog" else EPS_MACHINES
        spec = machines_of[data.draw(st.sampled_from(sorted(machines_of)))]()
    assert_search_as_reference(spec, 5 if len(spec.alphabet) <= 2 else 3, budget)


NONDETERMINISTIC_MACHINES = {
    **{f"{name}_generated": generator for name, generator in GENERATORS.items()
       if generator(random.Random(0)).mode == NONDETERMINISTIC},
    **{name: build for name, build in {**MACHINES, **EPS_MACHINES}.items()
       if build().mode == NONDETERMINISTIC},
}


def nondeterministic_machine(data):
    name = data.draw(st.sampled_from(sorted(NONDETERMINISTIC_MACHINES)))
    build = NONDETERMINISTIC_MACHINES[name]
    if name.endswith("_generated"):
        return build(random.Random(data.draw(st.integers(0, 2**32 - 1))))
    return build()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from(REFERENCE_BUDGETS))
def test_accepts_is_the_verdict_of_the_traced_search(data, budget):
    # `accepts` keeps one frontier; `run_nondeterministic` keeps them all
    spec = nondeterministic_machine(data)
    for w in all_strings(spec.alphabet, 5 if len(spec.alphabet) <= 2 else 3):
        verdict = run_nondeterministic(spec, w, budget).verdict
        if verdict == BUDGET_EXCEEDED:
            with pytest.raises(UndecidedError):
                accepts(spec, w, budget)
        else:
            assert accepts(spec, w, budget) == (verdict == ACCEPT), w


def test_cli_run_prints_the_traced_verdict(tmp_path):
    # without --trace, `run` reads the verdict from `accepts`: the record
    # is the traced one without its path, with the same exit code
    budgets = ([], ["--budget", "3"], ["--eps-per-path", "0", "--budget", "20"])
    codes = set()
    for name in sorted(NONDETERMINISTIC_MACHINES):
        if name.endswith("_generated"):
            continue
        spec = NONDETERMINISTIC_MACHINES[name]()
        path = tmp_path / f"{name}.mach"
        path.write_text(write_machine(spec))
        for w in all_strings(spec.alphabet, 4 if len(spec.alphabet) <= 2 else 2):
            for budget in budgets:
                argv = ["run", str(path), w] + budget
                code, out = cli_output(argv)
                traced_code, traced = cli_output(argv + ["--trace"])
                traced = json.loads(traced)
                traced.pop("accepting_path", None)
                assert (code, out) == (traced_code, json.dumps(traced) + "\n"), argv
                codes.add(code)
    assert codes == {0, 1, 3}


def command_machines():
    """(file name, machine, reference) of each machine file of the command
    set: catalog machines, and end-marker machines from `separate`, the
    finite-language builder and a `random_dva` with `=`/`!=` end-marker
    rules."""
    for name, param in [("pow_r", None), ("ab_star", None), ("eq", None), ("leq", None),
                        ("dyck", None), ("evenab", None), ("ab_k_star", 2), ("mod", 6),
                        ("mod_rot", 4)]:
        reference = "mod:4" if name == "mod_rot" else name if param is None else f"{name}:{param}"
        yield f"{name}_{param}", example(name, param), reference
    yield "separate_dbva_212", binary_distinguisher("212"), "singleton:212"
    yield "separate_dbhva_212", hva_distinguisher("212"), "singleton:212"
    yield "finite_language_va", finite_language_va(["1", "22", "211"]), "singleton:22"
    # accepts 15 words up to length 6, reading the end-marker under `=`/`!=` in q3
    yield "random_dva_6", split_endmarker_dva(random.Random(6)), "eq"


def catalog_commands(tmp_path):
    for name, spec, reference in command_machines():
        path = tmp_path / f"{name}.mach"
        path.write_text(write_machine(spec))
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
    monkeypatch.setattr(langlab, "_first_disagreement", per_word_verdict)
    assert [cli_output(argv) for argv in commands] == walked
    assert {code for code, _ in walked} >= {0, 1, 3}


# ---------------------------------------------------------------------------
# equivalence on the walk against the per-word oracle


def first_disagreements(left, right, maxlen, budget=None):
    """The per-word oracle's and the walk's first disagreement of two
    languages, or the error each raised: a rule conflict's message, or
    the word an exhausted budget left undecided."""
    def outcome(find):
        try:
            return find()
        except InconsistentSpecError as exc:
            return f"raised: {exc}"
        except UndecidedError as exc:
            return f"undecided: {exc.word}"

    check = equivalent_up_to if isinstance(right, MachineSpec) else langlab.matches_reference
    return (outcome(lambda: per_word_disagreement(left, right, maxlen, budget)),
            outcome(lambda: check(left, right, maxlen, budget).counterexample))


# deterministic catalog machines with the reference each recognizes
CATALOG_REFERENCES = [("pow_r", None, "pow_r"), ("ab_star", None, "ab_star"), ("eq", None, "eq"),
                      ("dyck", None, "dyck"), ("evenab", None, "evenab"),
                      ("l_epsilon", None, "l_epsilon"), ("ab_k_star", 2, "ab_k_star:2"),
                      ("ab_k_star", 3, "ab_k_star:3"), ("mod", 3, "mod:3"), ("mod", 6, "mod:6"),
                      ("mod_rot", 2, "mod:2"), ("mod_rot", 4, "mod:4")]


def reference(text):
    name, _, param = text.partition(":")
    return reference_language(name, param or None)


def catalog_pair(data):
    # a catalog machine against its reference, or against another
    # reference of its alphabet
    name, param, ref = data.draw(st.sampled_from(CATALOG_REFERENCES))
    machine = example(name, param)
    others = [r for _, _, r in CATALOG_REFERENCES if reference(r).alphabet == machine.alphabet]
    return machine, reference(data.draw(st.sampled_from([ref] + others)))


def dva_pair(data):
    # a random deterministic VA against its eliminate_states output, or
    # against another random one
    spec = random_dva(random.Random(data.draw(st.integers(0, 2**32 - 1))))
    other = random_dva(random.Random(data.draw(st.integers(0, 2**32 - 1))))
    return spec, data.draw(st.sampled_from([eliminate_states(spec)[0], other]))


def eq_evenab_pair(data):
    # eq and evenab as machines and as references, in either order
    sides = [example("eq"), example("evenab"), reference("eq"), reference("evenab")]
    left = data.draw(st.sampled_from(sides[:2]))
    return (left, data.draw(st.sampled_from(sides))) if data.draw(st.booleans()) else (
        data.draw(st.sampled_from(sides[2:])), left)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), draw_pair=st.sampled_from([catalog_pair, dva_pair, eq_evenab_pair]),
       maxlen=st.integers(0, 10))
def test_pair_walk_finds_the_word_walks_first_disagreement(data, draw_pair, maxlen):
    left, right = draw_pair(data)
    assert all(langlab._search(side)[2] for side in (left, right))  # distinct pairs
    per_word, walked = first_disagreements(left, right, maxlen)
    assert walked == per_word


def endmarker_pair(data):
    # a random nondeterministic machine against its remove_endmarker
    # output, in either order
    spec = random_nbhva_endmarker(random.Random(data.draw(st.integers(0, 2**32 - 1))))
    pair = (spec, remove_endmarker(spec)[0])
    return pair if data.draw(st.booleans()) else pair[::-1]


def leq_pair(data):
    # the leq machine against the leq and eq references and the eq machine
    return example("leq"), data.draw(st.sampled_from(
        [reference("leq"), reference("eq"), example("eq")]))


def eps_pair(data):
    # an eps machine against an eps machine of its alphabet (itself
    # included), or against a reference that has only a predicate
    left = EPS_MACHINES[data.draw(st.sampled_from(sorted(EPS_MACHINES)))]()
    first = left.alphabet[0]
    predicate_only = ReferenceLanguage("even_first", left.alphabet,
                                       lambda w: w.count(first) % 2 == 0)
    others = [spec for spec in (make() for make in EPS_MACHINES.values())
              if spec.alphabet == left.alphabet]
    return left, data.draw(st.sampled_from(others + [predicate_only]))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), draw_pair=st.sampled_from([endmarker_pair, leq_pair, eps_pair]),
       maxlen=st.integers(0, 5))
def test_nondeterministic_pairs_find_the_per_word_first_disagreement(data, draw_pair, maxlen):
    # no pair is deduplicated, and each side's budget counts along each
    # word: the counterexample, or the undecided word, is the oracle's
    left, right = draw_pair(data)
    assert not all(langlab._search(side)[2] for side in (left, right))
    for budget in BUDGETS + [None]:
        per_word, walked = first_disagreements(left, right, maxlen, budget)
        assert walked == per_word, budget


def conflict_machine(accept_states, rules_for_a=2):
    """A deterministic VA over a/b whose state q has `rules_for_a` rules
    for a: with more than one, a run raises on the first a read in q,
    and words of length 2 from "aa" on reach that conflict."""
    one = Matrix.from_rows([[1]])
    rules = [("p", "a", "q"), ("p", "b", "p"), ("q", "b", "p")] + [("q", "a", "q")] * rules_for_a
    return MachineSpec(
        kind=VA, mode=DETERMINISTIC, blind=True, endmarker=False, realtime=True,
        alphabet=("a", "b"), states=("p", "q"), initial_state="p",
        accept_states=accept_states, dimension=1, initial_vector=[1],
        transitions=[TransitionRule(q, x, STATUS_ANY, t, one) for q, x, t in rules])


def test_a_rule_conflict_raises_as_in_the_word_walk():
    outcomes_seen = set()
    for accept_states in ({"p"}, {"q"}, {"p", "q"}, set()):
        for rules_for_a in (1, 2, 3):
            left, right = conflict_machine({"p"}, 2), conflict_machine(accept_states, rules_for_a)
            for pair in ((left, right), (right, left)):
                for maxlen in range(4):
                    per_word, walked = first_disagreements(*pair, maxlen)
                    assert walked == per_word
                    outcomes_seen.add(per_word)
    # a disagreement before "aa" wins over the conflict, one after loses;
    # where both sides conflict, the left one raises
    assert {"", "a", "raised: deterministic machine has 2 successors in (q,a)",
            "raised: deterministic machine has 3 successors in (q,a)"} <= outcomes_seen


def unary_va(rules, endmarker, accept_states=("p", "q")):
    """A deterministic VA over a on states p and q, from (source, input,
    target) rules that keep its one-dimensional register as it is."""
    one = Matrix.from_rows([[1]])
    return MachineSpec(
        kind=VA, mode=DETERMINISTIC, blind=True, endmarker=endmarker, realtime=True,
        alphabet=("a",), states=("p", "q"), initial_state="p", accept_states=accept_states,
        dimension=1, initial_vector=[1],
        transitions=[TransitionRule(q, x, STATUS_ANY, t, one) for q, x, t in rules])


# reads a into q, where two rules read the end-marker
END_MARKER_CONFLICT = [("p", "a", "q"), ("p", "$", "p"), ("q", "$", "q"), ("q", "$", "q")]


def test_a_step_conflict_comes_before_an_end_marker_conflict():
    # both sides of a pair are stepped before either is judged: on "a",
    # the right side's conflict on reading a raises before the left
    # side's conflict on the end-marker, which the per-word oracle,
    # running the left side's whole word first, raises
    left = unary_va(END_MARKER_CONFLICT, True)
    right = unary_va([("p", "a", "p"), ("p", "a", "q")], False)
    assert first_disagreements(left, right, 1) == (
        "raised: deterministic machine has 2 successors in (q,$)",
        "raised: deterministic machine has 2 successors in (p,a)")


@pytest.mark.parametrize("accept_states", [("p", "q"), ("p",), ()], ids=str)
def test_an_end_marker_conflict_raises_in_the_walk(accept_states):
    # the machine's only conflict: the walk judges "" and raises on "a"
    # with the run's message, whether or not the two end-marker rules lead
    # to an accept state
    spec = unary_va(END_MARKER_CONFLICT, True, accept_states)
    message = "deterministic machine has 2 successors in (q,$)"
    with pytest.raises(InconsistentSpecError) as raised:
        run_deterministic(spec, "a")
    assert str(raised.value) == message
    walk = langlab._walk(spec, 1)
    assert next(walk) == ("", "p" in accept_states)
    with pytest.raises(InconsistentSpecError) as raised:
        next(walk)
    assert str(raised.value) == message
    with pytest.raises(InconsistentSpecError) as raised:
        langlab.enumerate_accepted(spec, 1)
    assert str(raised.value) == message
    every_word = unary_va([("p", "a", "p"), ("p", "$", "p")], True)
    expected = f"raised: {message}" if "p" in accept_states else ""
    for pair in ((spec, every_word), (every_word, spec)):
        assert first_disagreements(*pair, 1) == (expected, expected)


def test_cli_verify_steps_each_pair_once(tmp_path, monkeypatch):
    # eq reaches 31 configurations below depth 16: each is stepped by two
    # letters on each side, not once per each of the 131,071 words
    path = tmp_path / "eq.mach"
    path.write_text(write_machine(example("eq")))
    compiled = MachineSpec.__dict__["successors"]
    calls = []

    def counted(spec):
        successors = compiled.func(spec)

        def counting(*args):
            calls.append(args)
            return successors(*args)
        return counting

    counting_property = cached_property(counted)
    counting_property.__set_name__(MachineSpec, "successors")
    monkeypatch.setattr(MachineSpec, "successors", counting_property)
    assert cli_output(["verify", str(path), "--against", str(path), "--maxlen", "16"])[0] == 0
    assert len(calls) == 2 * 2 * 31
    calls.clear()
    assert cli_output(["verify", str(path), "--against", "eq", "--maxlen", "16"])[0] == 0
    assert len(calls) == 2 * 31


# ---------------------------------------------------------------------------
# the memoized step against the rules


def direct_successors(spec, state, letter, register):
    """The ``(rule index, target, register)`` of each rule of
    `spec.transitions` that fires, in rule order, evaluated in Fractions
    from the rule list, and the register's status."""
    counter = spec.kind == COUNTER_MACHINE
    if counter:
        status = tuple(STATUS_EQ if c == 0 else STATUS_NE for c in register)
    else:
        values = register.entries
        if spec.kind == VA:
            home = values[0] == 1
        elif spec.kind == GFA:
            final = spec.gfa_final_vector.entries
            home = sum(v * f for v, f in zip(values, final)) == spec.gfa_cutpoint
        elif spec.kind == FAM:
            home = values == (1,)
        else:
            home = values == spec.initial_vector.entries
        status = STATUS_EQ if home else STATUS_NE
    fired = []
    for idx, rule in enumerate(spec.transitions):
        if (rule.source, rule.input) != (state, letter) or rule.status not in (STATUS_ANY, status):
            continue
        if counter:
            updated = tuple(c + d for c, d in zip(register, rule.effect))
        else:
            effect = rule.effect
            updated = RowVector(sum(v * effect.entries[i * effect.cols + j]
                                    for i, v in enumerate(values))
                                for j in range(effect.cols))
        fired.append((idx, rule.target, updated))
    return tuple(fired), status


def assert_steps_are_the_rules(spec, depth=6, width=40):
    """Steps every configuration of the trie of registers reached up to
    `depth` letters (at most `width` per level) by each letter, the
    end-marker and eps, twice, so that the second ask is a memo hit. Returns
    the (fired, blocked) counts of status-dependent rules."""
    letters = spec.alphabet + (EPSILON, ENDMARKER)
    dependent = [0, 0]
    level = [(spec.initial_state, spec.initial_vector)]
    for _ in range(depth + 1):
        following = {}
        for state, register in level:
            for letter in letters:
                expected, status = direct_successors(spec, state, letter, register)
                for _ in range(2):
                    assert spec.successors(state, letter, register) == expected
                for idx, rule in enumerate(spec.transitions):
                    if (rule.source, rule.input) == (state, letter) and rule.status != STATUS_ANY:
                        dependent[rule.status != status] += 1
                for _, target, updated in expected:
                    following.setdefault((target, updated))
        level = list(following)[:width]
    return dependent


STEP_GENERATORS = {**GENERATORS,
                   "famw": lambda rng: famw_from_system(random_system(rng))}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_memoized_steps_are_the_rules(data):
    source = data.draw(st.sampled_from(["generated", "catalog", "eps"]))
    if source == "generated":
        spec = STEP_GENERATORS[data.draw(st.sampled_from(sorted(STEP_GENERATORS)))](
            random.Random(data.draw(st.integers(0, 2**32 - 1))))
    else:
        machines_of = MACHINES if source == "catalog" else EPS_MACHINES
        spec = machines_of[data.draw(st.sampled_from(sorted(machines_of)))]()
    assert_steps_are_the_rules(spec)


@pytest.mark.parametrize("name", ["dyck", "counter_ab_endmarker", "random_dva"])
def test_status_dependent_steps_fire_and_block_as_the_rules(name):
    if name == "random_dva":
        spec = next(s for s in map(random_dva, map(random.Random, range(50)))
                    if any(r.status != STATUS_ANY for r in s.transitions))
    else:
        spec = MACHINES[name]()
    fired, blocked = assert_steps_are_the_rules(spec)
    assert fired and blocked


def wide_steps_along(spec, word, width=8):
    """Steps the configurations reached along `word` (at most `width` per
    position) by its letters, twice each, against the rules. A register
    wider than WORD_BITS is not memoized, so its second step is rebuilt:
    equal, not identical; a narrow one's second step is the memo's tuple.
    Returns the numbers of (wide, narrow) steps."""
    counts = [0, 0]
    level = [(spec.initial_state, spec.initial_vector)]
    for letter in word:
        following = {}
        for state, register in level:
            expected, _ = direct_successors(spec, state, letter, register)
            first, second = spec.successors(state, letter, register), spec.successors(
                state, letter, register)
            assert first == second == expected
            wide = register.bits > WORD_BITS
            counts[not wide] += 1
            if expected:
                assert (first is second) != wide
            for _, target, updated in expected:
                following.setdefault((target, updated))
        level = list(following)[:width]
    return counts


def wide_random_dva():
    # the first random machine whose run on its 100 random letters passes
    # WORD_BITS
    for seed in range(50):
        rng = random.Random(seed)
        spec, word = random_dva(rng), "".join(rng.choice("ab") for _ in range(100))
        if wide_steps_along(spec, word)[0]:
            return spec, word


@pytest.mark.parametrize("name", ["eq", "blind_counter_ab_hva3", "random_dva"])
def test_wide_registers_step_as_the_rules_without_the_memo(name):
    if name == "eq":
        spec, word = example("eq"), "a" * 80
    elif name == "blind_counter_ab_hva3":
        spec, word = counters_to_integer_hva3(blind_counter_ab())[0], "a" * 50 + "b" * 50
    else:
        spec, word = wide_random_dva()
    wide, narrow = wide_steps_along(spec, word)
    assert wide and narrow


# ---------------------------------------------------------------------------
# one trie for every length: the default eps cap binds only through an eps
# cycle


def status_cycle_machine():
    """A non-blind HVA whose eps rules lead from p to r only at the initial
    vector, and back only away from it."""
    one = Matrix.from_rows([[1]])
    return MachineSpec(
        kind=HVA, mode=NONDETERMINISTIC, blind=False, endmarker=False, realtime=False,
        alphabet=("a",), states=("p", "r"), initial_state="p", accept_states={"p"},
        dimension=1, initial_vector=[1],
        transitions=[TransitionRule("p", "a", STATUS_ANY, "p", Matrix.from_rows([[2]])),
                     TransitionRule("p", EPSILON, STATUS_EQ, "r", one),
                     TransitionRule("r", EPSILON, STATUS_NE, "p", one)])


ONE_TRIE_MACHINES = {name: make for name, make in EPS_MACHINES.items()
                     if not make().epsilon_cycle}


def assert_one_trie_as_per_word(spec, others, maxlen):
    """Under every budget, the walk of `spec` and its pair walk against
    each of `others` give the per-word runs' verdicts, first disagreement
    and first undecided word. Where no budget binds, the verdicts are the
    breadth-first reference's too."""
    assert validate(spec) == [] and spec.epsilon_sources and not spec.realtime
    assert not searches(spec)[1]
    for budget in BUDGETS:
        assert_walk_agrees(spec, maxlen, budget)
        for other in others:
            per_word, walked = first_disagreements(spec, other, maxlen, budget)
            assert walked == per_word, budget
    for budget in (None, SearchBudget()):
        seen, undecided = assert_walk_agrees(spec, maxlen, budget)
        references = [bfs(spec, w, budget).verdict for w, _ in seen]
        assert undecided is None and BUDGET_EXCEEDED not in references
        assert seen == [(w, verdict == ACCEPT) for (w, _), verdict in zip(seen, references)]


@pytest.mark.parametrize("name", sorted(ONE_TRIE_MACHINES))
def test_eps_acyclic_machines_walk_one_trie_as_per_word(name):
    spec = ONE_TRIE_MACHINES[name]()
    others = [make() for make in ONE_TRIE_MACHINES.values()]
    assert_one_trie_as_per_word(spec, others, 5)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_eps_acyclic_random_machines_and_their_passes_walk_one_trie_as_per_word(seed):
    spec = random_nbhva_endmarker(random.Random(seed))
    assume(not spec.realtime)
    outputs = [remove_endmarker(spec)[0], rationals_to_integers(spec)[0]]
    for machine in [spec] + outputs:
        assert_one_trie_as_per_word(machine, [spec] + outputs, 4)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_passes_keep_random_machines_eps_acyclic(seed):
    spec = random_nbhva_endmarker(random.Random(seed))
    assert not spec.epsilon_cycle
    for out in (remove_endmarker(spec)[0], rationals_to_integers(spec)[0]):
        assert validate(out) == [] and not out.epsilon_cycle


def test_only_an_eps_cycle_grows_the_cap():
    acyclic = [example("leq"), eps_chain_machine(), fewest_eps_machine(), undercut_machine()]
    cyclic = [eps_loop_machine(), quartering_machine(), two_state_cycle_machine(),
              status_cycle_machine()]
    for spec in acyclic + cyclic:
        assert validate(spec) == []
        for eps in (0, 2):
            assert not searches(spec, SearchBudget(eps_per_path=eps))[1]
    for spec in acyclic:
        assert not searches(spec)[1] and not searches(spec, SearchBudget())[1]
    for spec in cyclic:
        assert searches(spec)[1] and searches(spec, SearchBudget())[1]
    assert example("leq").realtime
    # the default cap, |states| * (|w| + 2), is left out where it cannot
    # bind; `eps_per_path` holds on every machine
    for spec, default in ((eps_chain_machine(), math.inf), (example("leq"), math.inf),
                          (two_state_cycle_machine(), 2 * (3 + 2))):
        assert SearchBudget().eps_cap(spec, 3) == default
        assert SearchBudget(eps_per_path=1).eps_cap(spec, 3) == 1


def test_walk_builds_one_search_unless_an_eps_cycle_grows_the_cap(monkeypatch):
    # the pair walk's searches are counted as built; a word the budget
    # leaves undecided counts as no disagreement, so every length is walked
    built = []

    def counting_walk(search, *args):
        def counted(length):
            built.append(length)
            start, step, verdict = search(length)

            def judged(node, word):
                try:
                    return verdict(node, word)
                except UndecidedError:
                    return False
            return start, step, judged
        return machines.walk(counted, *args)

    monkeypatch.setattr(langlab, "walk", counting_walk)
    assert equivalent_up_to(eps_chain_machine(), eps_chain_machine(), 6).equal
    assert built == [0]
    built.clear()
    assert equivalent_up_to(quartering_machine(), quartering_machine(), 6).equal
    assert built == list(range(7))


# ---------------------------------------------------------------------------
# a monoid machine and its embedding share one step


def test_an_embedding_shares_its_source_step():
    spec = extendedfa_a_endmarker()
    embedded = extendedfa_embed(spec)
    assert embedded.successors is spec.successors
    derived = replace(embedded, accept_states=embedded.accept_states)
    assert derived == embedded and derived.successors is not spec.successors


@settings(max_examples=60, deadline=None)
@given(seed=st.none() | st.integers(0, 2**32 - 1), budget=st.sampled_from(REFERENCE_BUDGETS),
       source_first=st.booleans())
def test_an_embedding_runs_as_its_source(seed, budget, source_first):
    # the source and the embedding share one memo, filled by whichever
    # runs first; a copy by `replace` steps from its own
    spec = extendedfa_a_endmarker() if seed is None else random_extendedfa(random.Random(seed))
    embedded = extendedfa_embed(spec)
    own = replace(embedded, accept_states=embedded.accept_states)
    order = (spec, embedded, own) if source_first else (embedded, spec, own)
    for w in all_strings(spec.alphabet, 5 if len(spec.alphabet) == 1 else 4):
        runs = {(run.verdict, run.trace, run.accepting_path)
                for run in (run_nondeterministic(m, w, budget) for m in order)}
        assert len(runs) == 1, w


# ---------------------------------------------------------------------------
# a traced run steps only past the prefix it shares with the machine's last
# run (the `last_run` slot, shared by a monoid machine and its embedding)


SLOT_BUDGETS = [SearchBudget(eps, configs) for configs in (3, 20, 500) for eps in (None, 0, 2)]


def slot_machines(data):
    """Machines to interleave runs on: one machine, or a monoid machine, its
    embedding (which shares its slot) and a `replace` copy of the embedding
    (which has its own)."""
    source = data.draw(st.sampled_from(["generated", "monoid", "catalog", "eps"]))
    if source == "monoid":
        seed = data.draw(st.none() | st.integers(0, 2**32 - 1))
        spec = extendedfa_a_endmarker() if seed is None else random_extendedfa(random.Random(seed))
        embedded = extendedfa_embed(spec)
        return [spec, embedded, replace(embedded)]
    if source == "generated":
        return [GENERATORS[data.draw(st.sampled_from(sorted(GENERATORS)))](
            random.Random(data.draw(st.integers(0, 2**32 - 1))))]
    machines_of = MACHINES if source == "catalog" else EPS_MACHINES
    return [machines_of[data.draw(st.sampled_from(sorted(machines_of)))]()]


def traced(run):
    return run.verdict, run.last, run.trace, run.accepting_path


def assert_runs_are_cold_runs(order):
    """Each ``(machine, word, budget)`` run of `order`, in turn, equals a
    run on a fresh copy, and no later run changes an earlier run's trace."""
    earlier = []
    for spec, word, budget in order:
        run = run_nondeterministic(spec, word, budget)
        assert traced(run) == traced(run_nondeterministic(replace(spec), word, budget)), (
            word, budget)
        earlier.append((run, traced(run)))
    assert all(traced(run) == seen for run, seen in earlier)


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       budgets=st.lists(st.sampled_from(SLOT_BUDGETS), min_size=2, max_size=2, unique=True))
def test_a_run_from_the_last_runs_frontiers_is_a_cold_run(data, budgets):
    # runs of mixed lengths, repeated words and two budgets, interleaved
    # over the machines that share a slot
    machines_to_run = slot_machines(data)
    alphabet = machines_to_run[0].alphabet
    words = data.draw(st.lists(st.sampled_from(list(all_strings(
        alphabet, 5 if len(alphabet) <= 2 else 3))), min_size=1, max_size=6))
    assert_runs_are_cold_runs(data.draw(st.lists(st.tuples(
        st.sampled_from(machines_to_run), st.sampled_from(words), st.sampled_from(budgets)),
        max_size=25)))


@pytest.mark.parametrize("name", sorted(EPS_MACHINES) + ["leq", "extendedfa_a_endmarker"])
def test_runs_up_and_down_the_lengths_are_cold_runs(name):
    # the words in length-lex order and back, under one budget and then
    # another: the eps cap of an eps cycle changes with the length, and a
    # budget with the same cap can expand fewer configurations
    spec = {**MACHINES, **EPS_MACHINES}[name]()
    words = list(all_strings(spec.alphabet, 4 if len(spec.alphabet) <= 2 else 2))
    for budgets in ((SearchBudget(None, 20), SearchBudget(None, 500)),
                    (SearchBudget(2, 500), SearchBudget(None, 500))):
        for ordered in (words, words[::-1]):
            assert_runs_are_cold_runs([(spec, w, budget) for budget in budgets for w in ordered])


def counted_letter_steps(monkeypatch):
    """The letters stepped by every search built from here on."""
    stepped = []
    build = machines.nondeterministic_steps

    def counting(*args):
        start, step, end = build(*args)

        def counted(frontier, letter):
            stepped.append(letter)
            return step(frontier, letter)
        return start, counted, end

    monkeypatch.setattr(machines, "nondeterministic_steps", counting)
    return stepped


def test_the_words_of_one_length_step_each_prefix_once(monkeypatch):
    # in lex order a word steps only the letters after the prefix it
    # shares with the word before, so a fresh machine steps each of the
    # 2 + 4 + ... + 2^n = 2^(n+1) - 2 nonempty prefixes of length n words once
    stepped = counted_letter_steps(monkeypatch)
    makers = [(partial(example, "leq"), None),
              (eps_loop_machine, SearchBudget(max_configurations=500)),
              (lambda: random_extendedfa(random.Random(0)), SearchBudget(max_configurations=500))]
    for make, budget in makers:
        for n in range(6):
            spec, words = make(), [w for w in all_strings(("a", "b"), n) if len(w) == n]
            assert spec.alphabet == ("a", "b")
            stepped.clear()
            runs = [run_nondeterministic(spec, w, budget) for w in words]
            assert len(stepped) == 2 ** (n + 1) - 2, n
            assert [traced(run) for run in runs] == [
                traced(run_nondeterministic(replace(spec), w, budget)) for w in words]


def test_an_eps_acyclic_machine_steps_only_past_its_last_word_at_any_length(monkeypatch):
    # its eps cap cannot bind, so one slot key serves every length: a
    # word two letters longer than the last steps those two letters
    stepped = counted_letter_steps(monkeypatch)
    spec = random_nbhva_endmarker(random.Random(5))
    assert not spec.realtime and not spec.epsilon_cycle
    word = "abbaab"
    run_nondeterministic(spec, word)
    assert len(stepped) == len(word)
    stepped.clear()
    longer = run_nondeterministic(spec, word + "ba")
    assert stepped == ["b", "a"]
    assert traced(longer) == traced(run_nondeterministic(replace(spec), word + "ba"))


def test_an_embedding_steps_no_letter_of_the_word_its_source_just_ran(monkeypatch):
    stepped = counted_letter_steps(monkeypatch)
    for spec in (extendedfa_a_endmarker(), random_extendedfa(random.Random(10))):
        embedded = extendedfa_embed(spec)
        assert embedded.last_run is spec.last_run
        for budget in (SearchBudget(max_configurations=500), SearchBudget(eps_per_path=2)):
            for w in all_strings(spec.alphabet, 4):
                source_run = run_nondeterministic(spec, w, budget)
                stepped.clear()
                assert traced(run_nondeterministic(embedded, w, budget)) == traced(source_run)
                assert stepped == [], w
                # a copy by `replace` has a slot of its own, cold
                assert traced(run_nondeterministic(replace(embedded), w, budget)) == traced(
                    source_run)
                assert len(stepped) == len(w)


def test_threads_sharing_a_slot_get_cold_runs():
    # six threads run random words under two budgets on a monoid machine
    # and its embedding, which share one slot, switching as often as the
    # interpreter allows: a run may evict another's entry, never change
    # its result
    spec = random_extendedfa(random.Random(10))
    embedded = extendedfa_embed(spec)
    work = [(machine, w, budget) for machine in (spec, embedded)
            for w in all_strings(spec.alphabet, 5)
            for budget in (SearchBudget(None, 20), SearchBudget(None, 500))]
    expected = {(machine.kind, w, budget): traced(run_nondeterministic(replace(machine), w, budget))
                for machine, w, budget in work}
    start = threading.Barrier(6, timeout=60)
    wrong = []

    def runner(seed):
        try:
            start.wait()
            for machine, w, budget in random.Random(seed).choices(work, k=3 * len(work)):
                if traced(run_nondeterministic(machine, w, budget)) != expected[
                        machine.kind, w, budget]:
                    wrong.append((machine.kind, w, budget))
        except Exception as exc:  # raised in a thread, it would only warn
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=runner, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# ---------------------------------------------------------------------------
# the end test against the end-marker step


def split_endmarker_dva(rng):
    """A `random_dva` that reads the end-marker under `=` and `!=`."""
    while True:
        spec = random_dva(rng)
        if any(r.input == ENDMARKER and r.status != STATUS_ANY for r in spec.transitions):
            return spec


def nonzero_initial_vector(generate, rng):
    while True:
        spec = generate(rng)
        if any(spec.initial_vector.nums):
            return spec


# 3^40 / 2^64 takes a nonzero register past WORD_BITS at once
WIDE = Fraction(3 ** 40, 2 ** 64)


def wide_dva(rng):
    spec = nonzero_initial_vector(split_endmarker_dva, rng)
    return replace(spec, initial_vector=spec.initial_vector.scale(WIDE))


def wide_nbhva(rng):
    return scale_initial_vector(nonzero_initial_vector(random_nbhva_endmarker, rng), WIDE)[0]


def fam_endmarker(rng):
    """A `famw_from_system` FAM given an end-marker that divides by its
    first letter's factor; nondeterministic, it may also keep the register."""
    fam = famw_from_system(random_system(rng))
    factor = fam.transitions[0].effect.entry(0, 0)
    marker = [Matrix.from_rows([[1 / factor]])]
    if rng.random() < 0.5:
        marker.append(Matrix.identity(1))
    return replace(fam, mode=NONDETERMINISTIC if len(marker) > 1 else DETERMINISTIC,
                   endmarker=True, transitions=fam.transitions + tuple(
                       TransitionRule("q", ENDMARKER, STATUS_ANY, "q", m) for m in marker))


def nonblind_hva_endmarker(rng):
    """A `random_nbhva_endmarker` whose end-marker rules fire only at home,
    each next to a random rule for a register away from home."""
    spec = random_nbhva_endmarker(rng)
    rules = []
    for r in spec.transitions:
        if r.input != ENDMARKER:
            rules.append(r)
            continue
        rules.append(replace(r, status=STATUS_EQ))
        rules.append(TransitionRule(r.source, ENDMARKER, STATUS_NE, rng.choice(spec.states),
                                    random_matrix(rng, spec.dimension)))
    return replace(spec, blind=False, transitions=tuple(rules))


def trivially_marked(rng):
    plain = rng.choice([remove_endmarker(random_nbhva_endmarker(rng))[0],
                        hva_distinguisher(rng.choice(["1", "21", "212"])),
                        status_cycle_machine()])
    return attach_trivial_endmarker(plain)[0]


END_MACHINES = {
    "random_dva": split_endmarker_dva,
    "random_nbhva_endmarker": random_nbhva_endmarker,
    "rationals_to_integers": lambda rng: rationals_to_integers(random_nbhva_endmarker(rng))[0],
    "attach_trivial_endmarker": trivially_marked,
    "scale_initial_vector": lambda rng: scale_initial_vector(
        random_nbhva_endmarker(rng), rng.choice([Fraction(-2, 3), 3, Fraction(1, 6)]))[0],
    "blind_counter_a_endmarker": lambda rng: blind_counter_a_endmarker(),
    "counter_ab_endmarker": lambda rng: counter_ab_endmarker(),
    "extendedfa_a_endmarker": lambda rng: extendedfa_a_endmarker(),
    "pow_r": lambda rng: example("pow_r"),
    "finite_language_va": lambda rng: finite_language_va(
        rng.sample(["1", "2", "12", "22", "211"], rng.randint(1, 3))),
    "binary_distinguisher": lambda rng: binary_distinguisher(rng.choice(["1", "21", "212"])),
    "hva_distinguisher": lambda rng: hva_distinguisher(rng.choice(["1", "21", "212"])),
    "fam_endmarker": fam_endmarker,
    "nonblind_hva_endmarker": nonblind_hva_endmarker,
    "wide_dva": wide_dva,
    "wide_nbhva": wide_nbhva,
}


def reached_configurations(spec, letters=4, width=40):
    """The configurations reached within `letters` letters, eps moves
    included, from the first `width` reached at each position."""
    reached = {}
    level = [(spec.initial_state, spec.initial_vector)]
    for position in range(letters + 1):
        closed, moving = dict.fromkeys(level), level
        for _ in range(len(spec.states)):  # eps moves, a bounded number
            moving = [(target, register) for state, before in moving
                      for _, target, register in spec.successors(state, EPSILON, before)]
            closed.update(dict.fromkeys(moving))
        reached.update(closed)
        level = list(dict.fromkeys(
            (target, register) for state, before in list(closed)[:width]
            for letter in spec.alphabet
            for _, target, register in spec.successors(state, letter, before)))[:width]
    return list(reached)


def end_by_the_step(spec, state, register):
    """A word ending in (state, register) is accepted: some end-marker move
    that fires, built by `successors`, lands in an accept state at home;
    without an end-marker, the configuration is one."""
    home = spec.register_tests[1]
    if not spec.endmarker:
        return state in spec.accept_states and home(register)
    fired = spec.successors(state, ENDMARKER, register)
    if spec.mode == DETERMINISTIC and len(fired) > 1:
        raise machines._conflict(fired, state, ENDMARKER)
    return any(target in spec.accept_states and home(after) for _, target, after in fired)


def end_outcome(test, *args):
    try:
        return test(*args)
    except InconsistentSpecError as exc:
        return f"raised: {exc}"


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(END_MACHINES)), seed=st.integers(0, 2**32 - 1))
def test_the_end_test_is_the_end_marker_step(name, seed):
    spec = END_MACHINES[name](random.Random(seed))
    assert validate(spec) == []
    configurations = reached_configurations(spec)
    for state, register in configurations:
        assert end_outcome(spec.end_test, state, register) == end_outcome(
            end_by_the_step, spec, state, register), (state, register)
    if name.startswith("wide"):
        assert any(register.bits > WORD_BITS for _, register in configurations)


# ---------------------------------------------------------------------------
# a wide deterministic run's letter blocks against the per-letter run


def direct_runs(spec, word, ends=1):
    """A deterministic run stepped one letter at a time by
    `direct_successors`, with no memo and no blocks, judged on each of the
    `ends` longest prefixes of `word`, shortest first: the verdict and where
    the run ended, ``(state, register, position)``, or the message of the
    rule conflict it meets."""
    def stepped(state, letter, register):
        fired, _ = direct_successors(spec, state, letter, register)
        if len(fired) > 1:
            return f"deterministic machine has {len(fired)} successors in ({state},{letter})"
        return fired[0][1:] if fired else None

    def judged(state, register, position):
        if spec.endmarker:
            after = stepped(state, ENDMARKER, register)
            if after is None or isinstance(after, str):
                return after or (REJECT, (state, register, position))
            (state, register), position = after, position + 1
        _, status = direct_successors(spec, state, None, register)
        if spec.kind == COUNTER_MACHINE:
            home = not spec.blind or set(status) <= {STATUS_EQ}
        else:
            home = status == STATUS_EQ
        return ACCEPT if state in spec.accept_states and home else REJECT, (
            state, register, position)

    outcomes = []
    state, register = spec.initial_state, spec.initial_vector
    for position in range(len(word) + 1):
        if position > len(word) - ends:
            outcomes.append(judged(state, register, position))
        if position == len(word):
            return outcomes
        after = stepped(state, word[position], register)
        if after is None or isinstance(after, str):  # every longer prefix ends here too
            return outcomes + [after or (REJECT, (state, register, position))] * (
                ends - len(outcomes))
        state, register = after


def direct_run(spec, word):
    return direct_runs(spec, word)[0]


def assert_runs_as_the_rules(spec, word, expected):
    """`run_deterministic`, deterministic `accepts` and, for a GFA,
    `gfa_value` give the `direct_runs` outcome `expected`."""
    if isinstance(expected, str):
        for run in (run_deterministic, accepts):
            with pytest.raises(InconsistentSpecError) as raised:
                run(spec, word)
            assert str(raised.value) == expected
        return
    verdict, last = expected
    result = run_deterministic(spec, word)
    assert (result.verdict, tuple(result.last)) == expected
    assert accepts(spec, word) == (verdict == ACCEPT)
    if spec.kind == GFA:
        state, register, position = last
        if position < len(word):
            with pytest.raises(AlphabetError):
                gfa_value(spec, word)
        else:
            assert gfa_value(spec, word) == sum(
                v * f for v, f in zip(register.entries, spec.gfa_final_vector.entries))


def runs_word(rng, alphabet, length):
    """`length` letters in runs of one letter, each up to a quarter of the
    word long; one word in four has a foreign letter c somewhere."""
    word = ""
    while len(word) < length:
        word += rng.choice(alphabet) * rng.randint(1, length // 4)
    if rng.random() < 0.25:
        at = rng.randrange(length)
        word = word[:at] + "c" + word[at + 1:]
    return word[:length]


def living_word(spec, rng, length):
    """`length` letters that a run of `spec` mostly survives: each is drawn
    among the letters that have a rule at the configuration reached, one
    in a hundred from the whole alphabet, which may end the run there."""
    state, register, word = spec.initial_state, spec.initial_vector, ""
    for _ in range(length):
        moves = {}
        for letter in spec.alphabet:
            fired = spec.successors(state, letter, register)
            if len(fired) == 1:
                moves[letter] = fired[0]
        if not moves or rng.random() < 0.01:
            return word + "".join(rng.choice(spec.alphabet) for _ in range(length - len(word)))
        letter = rng.choice(sorted(moves))
        word += letter
        _, state, register = moves[letter]
    return word


def wide_conflict_machine():
    """A deterministic VA over a/b whose register doubles on every letter;
    its state q, reached by a b, has two rules for a."""
    double = Matrix.from_rows([[2]])
    rules = [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q"), ("q", "a", "q"), ("q", "a", "p")]
    return MachineSpec(
        kind=VA, mode=DETERMINISTIC, blind=True, endmarker=False, realtime=True,
        alphabet=("a", "b"), states=("p", "q"), initial_state="p", accept_states={"p"},
        dimension=1, initial_vector=[1],
        transitions=[TransitionRule(q, x, STATUS_ANY, t, double) for q, x, t in rules])


def sink_conflict_machine():
    """A deterministic VA over a/b whose first entry doubles on every
    letter; at p, b has two rules, one into the sink s, so a run that
    reads b meets a conflict."""
    double = Matrix.from_rows([[2, 0], [0, 1]])
    rules = [("p", "a", "p"), ("p", "b", "p"), ("p", "b", "s")]
    return MachineSpec(
        kind=VA, mode=DETERMINISTIC, blind=True, endmarker=False, realtime=True,
        alphabet=("a", "b"), states=("p", "s"), initial_state="p", accept_states={"p"},
        dimension=2, initial_vector=[1, 1],
        transitions=[TransitionRule(q, x, STATUS_ANY, t, double) for q, x, t in rules])


def sink_conflict_run(rng, length):
    # the first b comes after 70 or more a's, when the register is wide,
    # so that the conflict falls inside a block
    a_count = rng.randint(70, max(70, length))
    return sink_conflict_machine(), "a" * a_count + "b" + runs_word(
        rng, "ab", max(length - a_count, BLOCK_LETTERS))


def wide_random_dva_run(rng, length):
    # a random DVA started from a register past WORD_BITS, its status rules
    # and dead letters inside the blocks of a word it mostly survives
    spec = nonzero_initial_vector(random_dva, rng)
    spec = replace(spec, initial_vector=spec.initial_vector.scale(WIDE))
    return spec, living_word(spec, rng, length)


def catalog_run(make, alphabet):
    return lambda rng, length: (make(), runs_word(rng, alphabet, length))


# the second entry of a register reaches 2**70 at once
WIDE_SECOND = (1, 2 ** 70)


def home_returning_va(initial_vector=WIDE_SECOND, mode=DETERMINISTIC, extra=()):
    """A non-blind VA over a/b whose first entry stays exactly 1 under a
    at home, status `=`, while its second entry grows: b doubles the first
    entry, and an a away from home halves it on the way to q, so that the
    register returns home, wide, after each b."""
    grow, halve = Matrix.from_rows([[1, 1], [0, 2]]), Matrix.from_rows([[Fraction(1, 2), 0], [0, 1]])
    double, triple = Matrix.from_rows([[2, 0], [0, 1]]), Matrix.from_rows([[1, 0], [0, 3]])
    rules = [("p", "a", STATUS_EQ, "p", grow), ("p", "a", STATUS_NE, "q", halve),
             ("p", "b", STATUS_ANY, "p", double), ("q", "a", STATUS_ANY, "p", triple),
             ("q", "b", STATUS_EQ, "q", Matrix.identity(2)), *extra]
    states = sorted({"p", "q"} | {rule[3] for rule in extra})
    return MachineSpec(
        kind=VA, mode=mode, blind=False, endmarker=False, realtime=True,
        alphabet=("a", "b"), states=states, initial_state="p",
        accept_states={"p", "s"} & set(states),
        dimension=2, initial_vector=initial_vector,
        transitions=[TransitionRule(*rule) for rule in rules])


def home_conflict_va():
    """`home_returning_va`, started away from home, with a second rule for
    b at p that fires only at home: a deterministic run that reads b there
    meets a conflict."""
    return home_returning_va((2, 2 ** 70), extra=[("p", "b", STATUS_EQ, "p", Matrix.identity(2))])


def home_matching_hva():
    """A non-blind HVA over a/b/c whose first entry always matches its wide
    home vector's at p, while a doubles and c halves its second entry: the
    status at a b compares both entries, and is `=` where the a's and c's
    balance. A b away from home moves to q, doubling the first entry,
    where c brings it back."""
    second = [Matrix.from_rows([[1, 0], [0, 2]]), Matrix.from_rows([[1, 0], [0, Fraction(1, 2)]])]
    first = [Matrix.from_rows([[2, 0], [0, 1]]), Matrix.from_rows([[Fraction(1, 2), 0], [0, 1]])]
    rules = [("p", "a", STATUS_ANY, "p", second[0]), ("p", "c", STATUS_ANY, "p", second[1]),
             ("p", "b", STATUS_EQ, "p", second[0]), ("p", "b", STATUS_NE, "q", first[0]),
             ("q", "b", STATUS_NE, "q", second[1]), ("q", "c", STATUS_ANY, "p", first[1])]
    return MachineSpec(
        kind=HVA, mode=DETERMINISTIC, blind=False, endmarker=False, realtime=True,
        alphabet=("a", "b", "c"), states=("p", "q"), initial_state="p", accept_states={"p"},
        dimension=2, initial_vector=WIDE_SECOND,
        transitions=[TransitionRule(*rule) for rule in rules])


def halving_fam():
    """A non-blind FAM over a/b: a doubles the register, b halves it away
    from home and triples it at home."""
    rules = [("a", 2, STATUS_ANY), ("b", Fraction(1, 2), STATUS_NE), ("b", 3, STATUS_EQ)]
    return stateless(FAM, ("a", "b"), 1, [1],
                     [(x, Matrix.from_rows([[m]]), status) for x, m, status in rules], blind=False)


def balanced_word(rng, length):
    """A word of ( and ) that climbs past WORD_BITS open brackets, wanders,
    and closes them all; one time in two, one bracket is flipped."""
    word = "(" * rng.randint(WORD_BITS, 2 * WORD_BITS)
    depth = len(word)
    while len(word) + depth < length:
        opens = depth == 0 or rng.random() < 0.5
        word += "(" if opens else ")"
        depth += 1 if opens else -1
    word += ")" * depth
    if rng.random() < 0.5:
        at = rng.randrange(len(word))
        word = word[:at] + ("(" if word[at] == ")" else ")") + word[at + 1:]
    return word


def living_run(make):
    return lambda rng, length: (make(), living_word(make(), rng, length))


BLOCK_RUNS = {
    "random_dva": wide_random_dva_run,
    "eq": catalog_run(partial(example, "eq"), "ab"),
    "pow_r": catalog_run(partial(example, "pow_r"), "ab"),
    "ab_k_star_2": catalog_run(partial(example, "ab_k_star", 2), "ab"),
    "intersect(eq,evenab)": catalog_run(
        lambda: intersect_blind_hva(example("eq"), example("evenab"))[0], "ab"),
    "intersect(eq,ab_k_star_2)": catalog_run(
        lambda: intersect_blind_hva(example("eq"), example("ab_k_star", 2))[0], "ab"),
    "rationals_to_integers(eq$)": catalog_run(
        lambda: rationals_to_integers(attach_trivial_endmarker(example("eq"))[0])[0], "ab"),
    "gfa": catalog_run(one_state_gfa, "a"),
    "wide_conflict": catalog_run(wide_conflict_machine, "ab"),
    "sink_conflict": sink_conflict_run,
    # status rules inside the blocks: read `=` on wide registers, compare
    # every entry, or conflict only under `=`
    "home_returning_va": living_run(home_returning_va),
    "home_returning_va from 1": living_run(partial(home_returning_va, [1, 1])),
    "home_conflict_va": catalog_run(home_conflict_va, "ab"),
    "home_matching_hva": living_run(home_matching_hva),
    "halving_fam": catalog_run(halving_fam, "ab"),
    "dyck": lambda rng, length: (example("dyck"), balanced_word(rng, length)),
}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(BLOCK_RUNS)), seed=st.integers(0, 2**32 - 1),
       length=st.integers(64, 600))
def test_a_run_by_letter_blocks_is_the_per_letter_run(name, seed, length):
    # the word's last BLOCK_LETTERS prefixes end a block at each offset
    # from the end-marker
    spec, word = BLOCK_RUNS[name](random.Random(seed), length)
    for cut, expected in enumerate(reversed(direct_runs(spec, word, BLOCK_LETTERS))):
        assert_runs_as_the_rules(spec, word[:len(word) - cut], expected)


def counted_products(monkeypatch):
    calls = []

    def counting(register, matrix):
        calls.append(matrix)
        return vec_mat_mul(register, matrix)
    monkeypatch.setattr(machines, "vec_mat_mul", counting)
    return calls


def test_a_wide_blind_run_multiplies_a_block_at_a_time(monkeypatch):
    # eq's register 2**k is narrow for k < 60, at both ends of the word:
    # those letters are stepped one at a time, the rest a block at a time
    calls = counted_products(monkeypatch)
    word = "a" * 3000 + "b" * 3000
    assert run_deterministic(example("eq"), word).accepted
    blocks = len(word) // BLOCK_LETTERS
    assert blocks <= len(calls) <= blocks + 2 * WORD_BITS


def counted_blocks(spec):
    """The letters of each block a run of `spec` asks its block memo for."""
    asked = []
    blocks = spec.blocks

    def counting(state, letters, register):
        asked.append(letters)
        return blocks(state, letters, register)
    vars(spec)["blocks"] = counting  # where cached_property keeps it
    return asked


def test_a_run_through_status_rules_multiplies_a_block_at_a_time(monkeypatch):
    # every block of dyck's word holds a ), which reads the status, and no
    # register repeats. The register 2**k is narrow for k < 60: those
    # letters are stepped one at a time. Then each block probes its ) and
    # is whole: one product per block
    calls = counted_products(monkeypatch)
    spec = example("dyck")
    asked = counted_blocks(spec)
    word = "(" * WORD_BITS + "((((((()" * 100
    assert run_deterministic(spec, word).verdict == REJECT
    assert len(calls) == WORD_BITS + 100
    assert asked == ["((((((()"] * 100


def test_a_wide_non_blind_run_asks_one_block_per_block_of_letters():
    # a random DVA whose status rules read over a third of its word's
    # letters: its blocks are whole where the run lives, so it asks for
    # about one block per BLOCK_LETTERS letters, not one per letter
    for seed in range(100):  # the first that lives through its word, wide
        spec, word = wide_random_dva_run(random.Random(seed), 4000)
        last = run_deterministic(spec, word).last
        if (2 * sum(r.status != STATUS_ANY for r in spec.transitions) >= len(spec.transitions)
                and last.position == len(word) and last.register.bits > WORD_BITS):
            break
    reading = sum(any(rule[1] != STATUS_ANY for rule in spec.rule_index[before.state, letter])
                  for letter, before in zip(word, run_nondeterministic(spec, word).trace))
    asked = counted_blocks(spec)
    assert run_deterministic(spec, word).last == last
    assert 3 * reading > len(word)
    assert len(word) // BLOCK_LETTERS <= len(asked) <= len(word) // BLOCK_LETTERS + 2


def test_home_after_is_the_home_test_of_the_product():
    # probes a register against products of one to four rules of each kind
    # with a matrix register, and the GFA's column
    rng = random.Random(3)
    specs = [example("dyck"), halving_fam(), home_matching_hva(), one_state_gfa(),
             extendedfa_a_endmarker(), *(random_dva(rng) for _ in range(4))]
    for spec in specs:
        effects = [r.effect for r in spec.transitions]
        home = spec.register_tests[1]
        for _ in range(20):
            register, product = spec.initial_vector, rng.choice(effects)
            for _ in range(rng.randint(0, 4)):
                register = vec_mat_mul(register, rng.choice(effects))
            for _ in range(rng.randint(0, 3)):
                product = mat_mul(product, rng.choice(effects))
            assert spec.home_after(product)(register) == home(vec_mat_mul(register, product))


def test_threads_sharing_a_block_memo_get_per_letter_runs():
    # six threads run distinct long words on three machines, whose block
    # memos they fill at once, switching as often as the interpreter
    # allows: a block built twice is built equal. Two machines are
    # deterministic, one blind and one whose blocks branch on the status;
    # the third, eq without its end-marker, is nondeterministic only in
    # its rules into the sink q_acc
    spec, status = intersect_blind_hva(example("eq"), example("evenab"))[0], home_returning_va()
    unmarked = eq_without_endmarker()
    rng = random.Random(19)
    work = [[runs_word(rng, "ab", 400) for _ in range(4)] for _ in range(6)]
    expected = {w: (direct_run(spec, w), direct_run(status, w),
                    per_letter_outcome(unmarked, w, None)[0])
                for words in work for w in words}
    start = threading.Barrier(6, timeout=60)
    wrong = []

    def runner(words):
        try:
            start.wait()
            for w in words * 2:
                results = [run_deterministic(machine, w) for machine in (spec, status)]
                if (*((r.verdict, tuple(r.last)) for r in results),
                        accepts(unmarked, w)) != expected[w]:
                    wrong.append(w)
        except Exception as exc:  # raised in a thread, it would only warn
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=runner, args=(words,)) for words in work]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# ---------------------------------------------------------------------------
# a wide nondeterministic verdict run's letter blocks against the search
# stepped one letter at a time


def eq_without_endmarker():
    """eq given a trivial end-marker and then rid of it: a blind HVA whose
    every letter has one rule that leads on and one into the sink q_acc."""
    return remove_endmarker(attach_trivial_endmarker(example("eq"))[0])[0]


def verdict_or_undecided(judge, *args):
    try:
        return judge(*args)
    except UndecidedError:
        return "undecided"


def per_letter_outcome(spec, word, budget):
    """The verdict of `searches`' search stepped one letter at a time, or
    "undecided", and the `spent` of the frontier it judged."""
    frontier, step, verdict = searches(spec, budget)[0](len(word))
    for letter in word:
        frontier = step(frontier, letter)
    return verdict_or_undecided(verdict, frontier, word), frontier.spent


def accepts_outcome(spec, word, budget):
    """`accepts`' verdict, or "undecided", and the `spent` of the frontier
    it judged, read by wrapping the verdict of the search it builds."""
    judged = []
    search, cap_grows = searches(spec, budget)

    def recording_search(length):
        start, step, verdict = search(length)

        def recorded(frontier, word):
            judged.append(frontier.spent)
            return verdict(frontier, word)
        return start, step, recorded

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(machines, "searches", lambda spec, budget=None: (recording_search, cap_grows))
        outcome = verdict_or_undecided(accepts, spec, word, budget)
    (spent,) = judged
    return outcome, spent


def with_endmarker_letter(rng, word):
    """`word`, or, one time in eight, with a `$` in place of one letter."""
    if rng.random() < 0.125:
        at = rng.randrange(len(word))
        word = word[:at] + ENDMARKER + word[at + 1:]
    return word


def runs_or_sorted_word(rng, alphabet, length):
    """A `runs_word`, or, one time in two, each letter of `alphabet` as
    often in one run, in order, one letter of it changed one time in two:
    a word the machines below accept, or one that misses by a letter."""
    if rng.random() < 0.5:
        return runs_word(rng, alphabet, length)
    word = "".join(letter * (length // len(alphabet)) for letter in alphabet)
    if rng.random() < 0.5:
        at = rng.randrange(len(word))
        word = word[:at] + rng.choice(alphabet) + word[at + 1:]
    return word


def two_sink_rules_machine():
    """A nondeterministic VA whose register doubles in p on every letter.
    Besides, a leads to the sinks s and t, and b to s by two equal rules,
    whose configurations meet in the dedupe: a is lone at p, b is not."""
    double, keep = Matrix.from_rows([[2]]), Matrix.identity(1)
    rules = [("a", "p", double), ("a", "s", keep), ("a", "t", keep),
             ("b", "p", double), ("b", "s", keep), ("b", "s", keep)]
    return MachineSpec(
        kind=VA, mode=NONDETERMINISTIC, blind=True, endmarker=False, realtime=True,
        alphabet=("a", "b"), states=("p", "s", "t"), initial_state="p",
        accept_states={"p", "s"}, dimension=1, initial_vector=[1],
        transitions=[TransitionRule("p", x, STATUS_ANY, t, m) for x, t, m in rules])


def nondeterministic_run(make, alphabet):
    return lambda rng, length: (make(rng), runs_or_sorted_word(rng, alphabet, length))


NONDETERMINISTIC_BLOCK_RUNS = {
    "remove_endmarker(wide_nbhva)": nondeterministic_run(
        lambda rng: remove_endmarker(wide_nbhva(rng))[0], "ab"),
    "counters_to_integer_hva3(blind_counter_ab)": nondeterministic_run(
        lambda rng: counters_to_integer_hva3(blind_counter_ab())[0], "ab"),
    "counters_to_integer_hva3(blind_counter_abc)": nondeterministic_run(
        lambda rng: counters_to_integer_hva3(blind_counter_abc())[0], "abc"),
    "remove_endmarker(eq$)": nondeterministic_run(lambda rng: eq_without_endmarker(), "ab"),
    # home is wide: an accepted word ends in q_acc with a wide register
    "remove_endmarker(wide eq$)": nondeterministic_run(
        lambda rng: scale_initial_vector(eq_without_endmarker(), WIDE)[0], "ab"),
    "two_sink_rules": nondeterministic_run(lambda rng: two_sink_rules_machine(), "ab"),
    # status rules beside the sinks: an a at home and a b away from it
    # also lead into a sink, so the sink rules reached depend on the status
    "home_returning_nva": lambda rng, length: (
        home_returning_va(mode=NONDETERMINISTIC,
                          extra=[("p", "a", STATUS_EQ, "s", Matrix.identity(2)),
                                 ("p", "b", STATUS_ANY, "t", Matrix.identity(2)),
                                 ("q", "b", STATUS_NE, "s", Matrix.identity(2))]),
        living_word(home_returning_va(), rng, length)),
}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(NONDETERMINISTIC_BLOCK_RUNS)),
       seed=st.integers(0, 2**32 - 1), length=st.integers(16, 300),
       configurations=st.integers(1, 1000))
def test_a_verdict_run_by_letter_blocks_is_the_per_letter_search(name, seed, length,
                                                                 configurations):
    # a budget of up to about three configurations a letter runs out
    # before, inside or after a block as often as not
    rng = random.Random(seed)
    spec, word = NONDETERMINISTIC_BLOCK_RUNS[name](rng, length)
    assert validate(spec) == []
    word = with_endmarker_letter(rng, word)
    budget = SearchBudget(max_configurations=configurations)
    assert accepts_outcome(spec, word, budget) == per_letter_outcome(spec, word, budget)


EQ_WORD = "a" * 3000 + "b" * 3000


@pytest.mark.parametrize("configurations, verdict", [(11_997, "undecided"), (11_998, True)])
def test_a_verdict_run_by_letter_blocks_runs_out_of_budget_at_the_same_count(
        configurations, verdict):
    # each letter reaches two configurations, one in q_acc: the last
    # letter needs the live one at the letter before expanded, not q_acc
    spec, budget = eq_without_endmarker(), SearchBudget(max_configurations=configurations)
    assert accepts_outcome(spec, EQ_WORD, budget)[0] == verdict
    assert per_letter_outcome(spec, EQ_WORD, budget)[0] == verdict
    traced = run_nondeterministic(spec, EQ_WORD, budget).verdict
    assert traced == (ACCEPT if verdict is True else BUDGET_EXCEEDED)


@pytest.mark.parametrize("n", range(36, 40))
def test_a_verdict_run_steps_the_last_letter_into_the_sinks(n):
    # this eq accepts in q_acc at its home, which is wide, and jumps from
    # the first letter: the last letter, at any offset from a block's end,
    # is stepped so that it reaches q_acc
    spec = scale_initial_vector(eq_without_endmarker(), WIDE)[0]
    word = "a" * n + "b" * n
    assert accepts(spec, word)
    assert per_letter_outcome(spec, word, None)[0] is True


def test_a_wide_nondeterministic_verdict_run_multiplies_a_block_at_a_time(monkeypatch):
    # the register 2**k is narrow for k < 60, at both ends of the word:
    # those letters step the live configuration and its q_acc twin, the
    # rest jump a block at a time; the search stepped one letter at a time
    # makes two products per letter
    spec = eq_without_endmarker()
    calls = counted_products(monkeypatch)
    assert accepts(spec, EQ_WORD)
    blocks = len(EQ_WORD) // BLOCK_LETTERS
    assert blocks - 2 <= len(calls) <= blocks + 4 * WORD_BITS


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(END_MACHINES)), seed=st.integers(0, 2**32 - 1),
       length=st.integers(1, 12), at=st.integers(0, 12))
def test_a_dollar_inside_a_word_is_a_letter_without_a_rule(name, seed, length, at):
    rng = random.Random(seed)
    spec = END_MACHINES[name](rng)
    word = "".join(rng.choice(spec.alphabet) for _ in range(length))
    at = min(at, length - 1)
    dollar, foreign = (word[:at] + letter + word[at + 1:] for letter in (ENDMARKER, "#"))
    assert "#" not in spec.alphabet
    if spec.mode == DETERMINISTIC:
        runs = [run_deterministic(spec, w) for w in (dollar, foreign)]
    else:
        budget = SearchBudget(max_configurations=500)
        assert (verdict_or_undecided(accepts, spec, dollar, budget)
                == verdict_or_undecided(accepts, spec, foreign, budget))
        runs = [run_nondeterministic(spec, w, budget) for w in (dollar, foreign)]
    assert runs[0].verdict == runs[1].verdict
    assert runs[0].last == runs[1].last


def test_a_dollar_inside_a_word_reads_no_end_marker_rule():
    assert not accepts(random_dva(random.Random(1)), ENDMARKER)
    assert run_deterministic(example("pow_r"), "a$").last.position == 1
