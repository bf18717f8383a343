"""The prefix-sharing verdict walk against per-word membership, and the
pair walk against the word walk.

`machines.walk`, which every verifier reads through `langlab._walk`,
steps one search state per prefix instead of searching each word from
scratch. It must give every word the verdict `accepts`
gives it alone, under every budget: the same (word, verdict) sequence
and the same first UndecidedError word. Bounded equivalence of two
deterministic languages walks pairs of states and skips a word whose
pair an earlier word reached; it must find the word walk's first
disagreement, or raise its rule conflict. The CLI's records must not
change either. The one nondeterministic search that the walk and the
one-word runs step is checked against the breadth-first search it
replaced (`bfs_reference`)."""

import contextlib
import io
import random
from fractions import Fraction
from functools import cached_property, partial

import pytest
from hypothesis import given, settings
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
    random_nbhva_endmarker,
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
from vecauto.errors import InconsistentSpecError, UndecidedError
from vecauto.exact import Matrix
from vecauto.fileformat import write_machine
from vecauto.langlab import all_strings, equivalent_up_to, reference_language
from vecauto.machines import (
    ACCEPT,
    BUDGET_EXCEEDED,
    DEFAULT_MAX_CONFIGURATIONS,
    DETERMINISTIC,
    EPSILON,
    HVA,
    NONDETERMINISTIC,
    STATUS_ANY,
    VA,
    MachineSpec,
    SearchBudget,
    TransitionRule,
    accepts,
    extendedfa_embed,
    nondeterministic_steps,
    run_nondeterministic,
    stateless,
    validate,
)
from vecauto.transforms import eliminate_states

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


def quartering_machine():
    """Each a multiplies by 4 and each eps move halves: a^n needs 2n eps
    moves, within the cap n + 2 of a one-state machine up to n = 2."""
    return one_dimensional([("q", "a", "q", 4), ("q", EPSILON, "q", Fraction(1, 2))],
                           ("q",), {"q"}, alphabet=("a",))


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


EPS_MACHINES = {"eps_loop": eps_loop_machine, "quartering": quartering_machine,
                "fewest_eps": fewest_eps_machine, "undercut": undercut_machine}


def test_eps_cap_grows_with_the_word_length():
    seen, undecided = assert_walk_agrees(quartering_machine(), 4, None)
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
    monkeypatch.setattr(langlab, "_steps", lambda language: None)  # no pair walk
    assert [cli_output(argv) for argv in commands] == walked
    assert {code for code, _ in walked} >= {0, 1, 3}


# ---------------------------------------------------------------------------
# the pair walk against the word walk


def first_disagreements(left, right, maxlen):
    """The word walk's and the pair walk's first disagreement of two
    deterministic languages, or the message of the rule conflict each
    raised."""
    def outcome(find, *args):
        try:
            return find(*args)
        except InconsistentSpecError as exc:
            return f"raised: {exc}"

    steps = langlab._steps(left), langlab._steps(right)
    assert None not in steps
    return (outcome(langlab._word_disagreement, left, right, maxlen, None),
            outcome(langlab._pair_disagreement, *steps, left.alphabet, maxlen))


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
    word_walk, pair_walk = first_disagreements(left, right, maxlen)
    assert pair_walk == word_walk
    check = equivalent_up_to if isinstance(right, MachineSpec) else langlab.matches_reference
    assert check(left, right, maxlen).counterexample == pair_walk


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
                    word_walk, pair_walk = first_disagreements(*pair, maxlen)
                    assert pair_walk == word_walk
                    outcomes_seen.add(word_walk)
    # a disagreement before "aa" wins over the conflict, one after loses;
    # where both sides conflict, the left one raises
    assert {"", "a", "raised: deterministic machine has 2 successors in (q,a)",
            "raised: deterministic machine has 3 successors in (q,a)"} <= outcomes_seen


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
