"""The verdict walk against per-word membership.

`machines.walk`, which every verifier reads, steps one node per prefix
instead of searching each word from scratch. Through `langlab._walk` it
must give every word the verdict the word's own run gives it alone
(`run_nondeterministic`, whose eps cap is set by the word's length),
under every budget: the same (word, verdict) sequence and the same first
UndecidedError word. A node's own equality says which words share it:
a language of deterministic nodes steps each distinct node of a level
once per letter, for every word that reaches it, and so does a
nondeterministic one where the budget cannot cut its search; elsewhere a
frontier equals only itself, since the budget it has left depends on its
prefix. Bounded equivalence walks pairs of the two sides' nodes, and
skips a word whose pair an earlier word reached; it must find the first disagreement
of the per-word oracle (a zip of the two per-word walks, left side
first), or raise its error on the same word. The CLI's records must not
change either. Where an eps cycle grows the default eps cap with the
word, no prefix's frontier serves a longer word: the walk's node is the
word itself, run alone once, in length-lex order.

Each other mechanism of the run core has a module of its own, whose
tests this module collects, so that they keep their ids under
``tests/test_walk.py``: the search (`walk_search`), the step memo
(`walk_step_memo`), the `last_run` slot (`walk_slot`), the end test
(`walk_end`), the last letter judged from the frontier before it
(`walk_leaf`) and letter blocks (`walk_blocks`); ``pytest
tests/walk_blocks.py`` runs one alone. The machines and oracles they
share are in `walk_oracles`."""

import copy
import random
from dataclasses import replace
from functools import cached_property

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bfs_reference import bfs
from machine_gen import random_dva, random_extendedfa, random_nbhva_endmarker, random_system
from vecauto import langlab, machines
from vecauto.builders import binary_distinguisher, example, finite_language_va, hva_distinguisher
from vecauto.diophantine import famw_from_system
from vecauto.errors import InconsistentSpecError, UndecidedError
from vecauto.exact import Matrix
from vecauto.fileformat import write_machine
from vecauto.langlab import (
    EquivalenceVerdict,
    ReferenceLanguage,
    all_strings,
    equivalent_up_to,
    reference_language,
)
from vecauto.machines import (
    ACCEPT,
    BUDGET_EXCEEDED,
    DETERMINISTIC,
    ENDMARKER,
    STATUS_ANY,
    STATUS_EQ,
    STATUS_NE,
    VA,
    MachineSpec,
    SearchBudget,
    TransitionRule,
    accepts,
    _Uncut,
    nondeterministic_steps,
    searches,
    validate,
)
from vecauto.transforms import eliminate_states, rationals_to_integers, remove_endmarker
from walk_oracles import (
    BUDGETS,
    EPS_MACHINES,
    GENERATORS,
    MACHINES,
    assert_no_run_starts,
    assert_walk_agrees,
    cli_output,
    eps_chain_machine,
    eps_loop_machine,
    first_disagreements,
    outcomes,
    per_word_verdict,
    per_word_walk,
    quartering_machine,
    split_endmarker_dva,
    two_state_cycle_machine,
)

# the tests of the run core's other mechanisms
from walk_blocks import *  # noqa: F401,F403
from walk_end import *  # noqa: F401,F403
from walk_leaf import *  # noqa: F401,F403
from walk_search import *  # noqa: F401,F403
from walk_slot import *  # noqa: F401,F403
from walk_step_memo import *  # noqa: F401,F403


@settings(max_examples=150, deadline=None)
@given(generator=st.sampled_from(sorted(GENERATORS)), seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from(BUDGETS))
def test_random_machines_walk_as_per_word(generator, seed, budget):
    # the embedded monoid machines, under an eps_per_path of None, are
    # walked word by word
    spec = GENERATORS[generator](random.Random(seed))
    assert_walk_agrees(spec, 5, budget)


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_catalog_machines_walk_as_per_word(name):
    spec = MACHINES[name]()
    for budget in BUDGETS + [None]:
        assert_walk_agrees(spec, 6 if len(spec.alphabet) <= 2 else 4, budget)


@pytest.mark.parametrize("budget", BUDGETS, ids=str)
def test_budget_outcomes_are_the_per_word_searches(budget):
    # the canary of the budget rule: every UndecidedError, and every
    # verdict before it, matches the word's own search
    assert_walk_agrees(eps_loop_machine(), 4, budget)


def test_eps_loops_leave_the_same_word_undecided():
    assert assert_walk_agrees(eps_loop_machine(), 5, None)[1] == "aab"
    assert assert_walk_agrees(eps_loop_machine(), 5, SearchBudget(eps_per_path=0))[1] == "bb"


def asked_words(monkeypatch):
    """The (function name, machine, word) of each `accepts` and
    `run_nondeterministic` call from here on."""
    asked = []
    for name in ("accepts", "run_nondeterministic"):
        def ask(spec, word, budget=None, name=name, search=getattr(machines, name)):
            asked.append((name, spec, word))
            return search(spec, word, budget)
        monkeypatch.setattr(machines, name, ask)
    return asked


def test_no_word_is_searched_alone(monkeypatch):
    # where the eps cap cannot grow, the walk counts the budget along each
    # word as the word's own search does, and asks no word of a one-word
    # search; where it grows, it runs each word alone, once, in length-lex
    # order, up to the first undecided word
    asked = asked_words(monkeypatch)
    undecided = set()
    for budget in BUDGETS + [None]:
        for spec, cycle in ((example("leq"), False), (eps_chain_machine(), False),
                            (eps_loop_machine(), True), (quartering_machine(), True)):
            asked.clear()
            seen, word = outcomes(langlab._walk(spec, 6, budget))
            undecided.add(word)
            grows = cycle and (budget is None or budget.eps_per_path is None)
            words = [w for w, _ in seen] + [word] * (word is not None)
            assert asked == ([("run_nondeterministic", spec, w) for w in words]
                             if grows else []), (spec, budget)
    assert len(undecided) > 1


class SteppedB(Exception):
    pass


def test_walk_steps_no_word_beyond_the_one_asked():
    # a reference whose step raises on b: the walk yields "" and "a"
    # before it steps "b", and a verifier that stops at "a" never steps it
    def step(state, letter):
        if letter == "b":
            raise SteppedB
        return state + 1

    no_b = ReferenceLanguage("no_b", ("a", "b"), lambda w: "b" not in w, (0, step, lambda n: True))
    walk = langlab._walk(no_b, 3)
    assert next(walk) == ("", True)
    assert next(walk) == ("a", True)
    with pytest.raises(SteppedB):
        next(walk)
    assert langlab.matches_reference(example("l_epsilon"), no_b, 3).counterexample == "a"


def counted_searches(monkeypatch):
    """The calls of each search function that `langlab` builds from here
    on, by name: ``step``, ``verdict`` and ``last``."""
    calls = dict.fromkeys(("step", "verdict", "last"), 0)

    def counting_searches(spec, budget=None, maxlen=None):
        start, *functions = searches(spec, budget, maxlen)

        def counting(name, function):
            def call(*args):
                calls[name] += 1
                return function(*args)
            return call
        return start, *map(counting, calls, functions)

    monkeypatch.setattr(langlab, "searches", counting_searches)
    return calls


def shared(language, budget=None, maxlen=None):
    """Whether words can share `language`'s nodes in a walk of up to
    `maxlen` letters: whether its start node equals a copy of itself, and
    is not a word node (`machines.by_word`), which no other word reaches."""
    start, step = langlab._search(language, budget, maxlen)[:2]
    return step is not str.__add__ and start == copy.copy(start)


# the budgets under which leq's search to 10 letters cannot be cut, 2^0 +
# ... + 2^10 configurations, and can, one less
LEQ_UNCUT, LEQ_CUT = (SearchBudget(max_configurations=2047),
                      SearchBudget(max_configurations=2046))


@pytest.mark.parametrize("spec,budget,pair,steps,lasts,verdicts", [
    # a node of eq is fixed by #a - #b: its level of n letters reaches n + 1
    (example("eq"), None, False, 90, 20, 55),
    # leq's frontier of n letters is fixed by #a - #b too, and the default
    # budget cannot cut its search to 10 letters
    (example("leq"), None, False, 90, 20, 55),
    # no two words reach one node: every word is stepped or judged by `last`
    (finite_language_va(["1", "12", "221"]), None, False, 1022, 1024, 1023),
    # one configuration less, and a frontier of leq is shared with no word
    (example("leq"), LEQ_CUT, False, 1022, 1024, 1023),
    # leq against itself: each side steps and judges its frontiers once, or,
    # where the budget can cut a search, once per word
    (example("leq"), LEQ_UNCUT, True, 180, 40, 110),
    (example("leq"), LEQ_CUT, True, 2044, 2048, 2046)],
    ids=["eq", "leq", "finite_language", "leq_cut", "leq_pair", "leq_pair_cut"])
def test_a_shared_walk_steps_each_distinct_node_once(monkeypatch, spec, budget, pair, steps, lasts,
                                                     verdicts):
    # each (node, letter) pair of a level below the last is stepped once,
    # each node judged once, and each pair of the level before the last
    # judged once by `last`, for every word that reaches them
    calls = counted_searches(monkeypatch)
    walked = (equivalent_up_to(spec, spec, 10, budget) if pair
              else langlab.enumerate_accepted(spec, 10, budget))
    assert calls == {"step": steps, "verdict": verdicts, "last": lasts}
    assert walked == (EquivalenceVerdict(True, None, 10) if pair
                      else [w for w, verdict in per_word_walk(spec, 10, budget) if verdict])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_shared_walk_of_a_diophantine_machine_is_per_word(seed):
    # a stateless FAM's node is fixed by its word's Parikh image, so most
    # words of a level are twins, sharing their node's steps and verdict
    spec = famw_from_system(random_system(random.Random(seed)))
    assert shared(spec)
    assert_walk_agrees(spec, 6, None)


def eps_free(generate, rng):
    """The first machine `generate` draws from `rng` with no eps rule."""
    while True:
        spec = generate(rng)
        if not spec.epsilon_sources:
            return spec


# the nondeterministic generators, of which eps-free draws share frontiers
NONDETERMINISTIC_GENERATORS = {"nbhva_endmarker": random_nbhva_endmarker,
                               "extendedfa": random_extendedfa,
                               "embedded_extendedfa": GENERATORS["embedded_extendedfa"]}


def uncut_budgets(spec, maxlen):
    """The budget of b^0 + ... + b^maxlen configurations, b the most rules
    on one key of `spec`, under which no search of up to `maxlen` letters
    can be cut, and the budget of one less, under which one can."""
    b = max(map(len, spec.rule_index.values()), default=0)
    bound = sum(b ** k for k in range(maxlen + 1))
    return SearchBudget(max_configurations=bound), SearchBudget(max_configurations=bound - 1)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), generator=st.sampled_from(sorted(NONDETERMINISTIC_GENERATORS)),
       seed=st.integers(0, 2**32 - 1), maxlen=st.integers(0, 5))
def test_a_shared_nondeterministic_walk_is_per_word(data, generator, seed, maxlen):
    # at the bound the walk shares equal frontiers, and the pair walk drops
    # twins and closes; one below it, each word steps its own frontier:
    # either way the verdicts and the first undecided word are those of
    # `accepts` asked word by word, and so is the first disagreement with
    # the machine itself and with a one-entry mutant
    spec = eps_free(NONDETERMINISTIC_GENERATORS[generator], random.Random(seed))
    mutant = one_entry_mutant(data, spec)
    for budget, sharing in zip(uncut_budgets(spec, maxlen), (True, False)):
        assert shared(spec, budget, maxlen) == sharing
        per_word = ((w, accepts(spec, w, budget)) for w in all_strings(spec.alphabet, maxlen))
        assert outcomes(langlab._walk(spec, maxlen, budget)) == outcomes(per_word)
        for other in (spec, mutant):
            per_word, walked = first_disagreements(spec, other, maxlen, budget)
            assert walked == per_word, budget


def test_frontiers_with_equal_configurations_are_not_shared():
    # under a budget of 6 configurations, leq's words ab and ba reach and
    # expand the same configurations, ab having spent 4 of the budget and
    # ba 5: baaa runs out of it first, where a walk that gave ba the
    # frontier of ab would go on to bbba
    spec, budget = example("leq"), SearchBudget(max_configurations=6)
    start, step = nondeterministic_steps(spec, budget, 4)[:2]
    ab, ba = (step(step(start, x), y) for x, y in ("ab", "ba"))
    assert (ab.configurations, ab.expanded) == (ba.configurations, ba.expanded)
    assert (ab.spent, ba.spent) == (4, 5) and ab != ba and _Uncut(*ab) == _Uncut(*ba)
    assert not shared(spec, budget)
    assert assert_walk_agrees(spec, 4, budget)[1] == "baaa"


def command_machines():
    """(file name, machine, reference) of each machine file of the command
    set: catalog machines, end-marker machines from `separate`, the
    finite-language builder and a `random_dva` with `=`/`!=` end-marker
    rules, and machines whose eps cycle grows the default eps cap with the
    word, each with a reference of its alphabet."""
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
    yield "eps_loop", eps_loop_machine(), "leq"
    yield "quartering", quartering_machine(), "mod:1"
    yield "two_state_cycle", two_state_cycle_machine(), "mod23"


def catalog_commands(tmp_path):
    for name, spec, reference in command_machines():
        path = tmp_path / f"{name}.mach"
        path.write_text(write_machine(spec))
        unary = len(spec.alphabet) == 1
        for budget in ([], ["--budget", "3"], ["--eps-per-path", "0", "--budget", "20"]):
            yield ["enumerate", str(path), "--maxlen", "6"] + budget
            yield ["verify", str(path), "--against", reference, "--maxlen", "6"] + budget
            yield ["verify", str(path), "--against", str(path), "--maxlen", "6"] + budget
            for prop in ("star-closure", "suffix", "commutative-matrices", "commutative") + (
                    ("gcd",) if unary else ()):
                yield ["check", prop, str(path), "--maxlen", "6"] + budget


def test_cli_records_are_the_per_word_walks(tmp_path, monkeypatch):
    # on a machine whose eps cap grows, the walk runs each word as the
    # oracle does: its verdicts are checked against an independent search
    # by test_the_search_agrees_with_the_breadth_first_reference
    commands = list(catalog_commands(tmp_path))
    walked = [cli_output(argv) for argv in commands]
    monkeypatch.setattr(langlab, "_walk", per_word_walk)
    monkeypatch.setattr(langlab, "_first_disagreement", per_word_verdict)
    assert [cli_output(argv) for argv in commands] == walked
    assert {code for code, _ in walked} >= {0, 1, 3}


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


def one_entry_mutant(data, spec):
    """`spec` with one entry of one rule's matrix moved by one; a machine
    with no rule, as it is."""
    if not spec.transitions:
        return spec
    index = data.draw(st.integers(0, len(spec.transitions) - 1))
    rule = spec.transitions[index]
    rows = [list(rule.effect.row(i)) for i in range(rule.effect.rows)]
    entry = st.integers(0, spec.dimension - 1)
    i, j = data.draw(entry), data.draw(entry)
    rows[i][j] += data.draw(st.sampled_from([-1, 1]))
    transitions = list(spec.transitions)
    transitions[index] = replace(rule, effect=Matrix.from_rows(rows))
    return replace(spec, transitions=transitions)


def dva_pair(data):
    # a random deterministic VA against its eliminate_states output, a
    # one-entry mutant of it, whose first disagreement can fall on the
    # walk's last level, or another random one
    spec = random_dva(random.Random(data.draw(st.integers(0, 2**32 - 1))))
    other = random_dva(random.Random(data.draw(st.integers(0, 2**32 - 1))))
    return spec, data.draw(st.sampled_from(
        [eliminate_states(spec)[0], one_entry_mutant(data, spec), other]))


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
    assert all(shared(side) for side in (left, right))
    per_word, walked = first_disagreements(left, right, maxlen)
    assert walked == per_word
    if per_word is not None:  # again, with the disagreement on the walk's last level
        assert first_disagreements(left, right, len(per_word)) == (per_word, per_word)


def test_a_distinct_walk_that_closes_at_its_last_level_reads_equal():
    # ab_k_star (k = 2) reaches no new node among the words of 4 letters: a
    # walk that drops twins to 5 closes there, one to 4 judges that level
    # from the level before it, and so does the pair walk, which still
    # reads Equal
    spec = example("ab_k_star", 2)
    search = searches(spec)
    assert max(len(w) for w, _ in machines.walk(search, spec.alphabet, 5, drop_twins=True)) == 3
    walked = list(machines.walk(search, spec.alphabet, 4, drop_twins=True))
    assert max(len(w) for w, _ in walked) == 4
    assert walked == [(w, accepts(spec, w)) for w, _ in walked]
    assert equivalent_up_to(spec, example("ab_k_star", 2), 4) == EquivalenceVerdict(True, None, 4)
    assert langlab.matches_reference(spec, reference("ab_k_star:2"), 4).equal


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
    # no pair is deduplicated, since a frontier the budget can cut equals
    # only itself, and each side's budget counts along each word: the
    # counterexample, or the undecided word, is the oracle's
    left, right = draw_pair(data)
    assert not all(shared(side) for side in (left, right))
    for budget in BUDGETS + [None]:
        per_word, walked = first_disagreements(left, right, maxlen, budget)
        assert walked == per_word, budget


def register_keeping_va(rules, accept_states=("p",), endmarker=False):
    """A deterministic VA over a/b from (source, input, status, target)
    rules that keep its one-dimensional register; p is initial, and the
    VA is blind unless a rule reads the status."""
    one = Matrix.from_rows([[1]])
    return MachineSpec(
        kind=VA, mode=DETERMINISTIC, blind=all(rule[2] == STATUS_ANY for rule in rules),
        endmarker=endmarker, realtime=True, alphabet=("a", "b"),
        states=tuple(sorted({"p"} | {rule[0] for rule in rules} | {rule[3] for rule in rules})),
        initial_state="p", accept_states=accept_states, dimension=1, initial_vector=[1],
        transitions=[TransitionRule(*rule, one) for rule in rules])


# q, reached by a, reads a by two rules
LETTER_CONFLICT = [("p", "a", STATUS_ANY, "q"), ("p", "b", STATUS_ANY, "p"),
                   ("q", "b", STATUS_ANY, "p"), ("q", "a", STATUS_ANY, "q"),
                   ("q", "a", STATUS_ANY, "p")]
# q, reached by a, reads the end-marker by two rules into q
END_MARKER_CONFLICT = [("p", "a", STATUS_ANY, "q"), ("p", ENDMARKER, STATUS_ANY, "p"),
                       ("q", ENDMARKER, STATUS_ANY, "q"), ("q", ENDMARKER, STATUS_ANY, "q")]


def test_a_rule_conflict_raises_as_in_the_word_walk():
    # a letter conflict that words reach, the same at a state that no word
    # reaches, and an `=` rule beside a wildcard rule: no run starts
    reached = register_keeping_va(LETTER_CONFLICT)
    unreached = register_keeping_va(LETTER_CONFLICT[:4] + [("r", "a", STATUS_ANY, "r"),
                                                           ("r", "a", STATUS_ANY, "p")])
    status_pair = register_keeping_va([("p", "a", STATUS_EQ, "p"), ("p", "a", STATUS_ANY, "q"),
                                       ("q", "b", STATUS_NE, "p")])
    for spec in (reached, unreached, status_pair):
        assert_no_run_starts(spec)
    assert_the_left_conflict_raises(reached, status_pair)


def assert_the_left_conflict_raises(one, other):
    """Where both sides of a pair conflict, bounded equivalence raises the
    left side's conflict, with either machine on the left."""
    for left, right in ((one, other), (other, one)):
        with pytest.raises(InconsistentSpecError) as raised:
            equivalent_up_to(left, right, 3)
        assert str(raised.value) == validate(left)[0]


def test_a_step_conflict_comes_before_an_end_marker_conflict():
    # neither side of a pair takes a step, so a left side's end-marker
    # conflict raises before a right side's letter conflict
    marker = register_keeping_va(END_MARKER_CONFLICT, endmarker=True)
    assert_the_left_conflict_raises(marker, register_keeping_va(LETTER_CONFLICT))


@pytest.mark.parametrize("accept_states", [("p", "q"), ("p",), ()], ids=str)
def test_an_end_marker_conflict_raises_in_the_walk(accept_states):
    # the machine's only conflict, whether or not its two end-marker rules
    # lead to an accept state
    spec = register_keeping_va(END_MARKER_CONFLICT, accept_states, endmarker=True)
    assert validate(spec) == [
        "deterministic conflict: transitions #2 and #3 both apply in (q,$)"]
    assert_no_run_starts(spec)


def test_cli_verify_steps_each_pair_once(tmp_path, monkeypatch):
    # eq reaches 29 configurations below depth 15: each is stepped by two
    # letters on each side, not once per each of the 131,071 words; the
    # words of 16 letters are judged from their parents, stepping nothing
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
    assert len(calls) == 2 * 2 * 29
    calls.clear()
    assert cli_output(["verify", str(path), "--against", "eq", "--maxlen", "16"])[0] == 0
    assert len(calls) == 2 * 29


ONE_TRIE_MACHINES = {name: make for name, make in EPS_MACHINES.items()
                     if not make().epsilon_cycle}


def assert_one_trie_as_per_word(spec, others, maxlen):
    """Under every budget, the walk of `spec` and its pair walk against
    each of `others` give the per-word runs' verdicts, first disagreement
    and first undecided word. Where no budget binds, the verdicts are the
    breadth-first reference's too."""
    assert validate(spec) == [] and spec.epsilon_sources and not spec.realtime
    assert isinstance(searches(spec)[0], machines.Frontier)
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


def test_walk_builds_one_search_unless_an_eps_cycle_grows_the_cap(monkeypatch):
    # each side's word the budget leaves undecided counts as rejected, so
    # every word is walked: where the eps cap cannot grow, the pair walk
    # runs no word alone; where it grows, it runs each word once on each
    # side, the left first, in length-lex order
    asked = asked_words(monkeypatch)

    def judged(search):
        start, step, verdict, last = search

        def judging(judge):
            def judge_or_reject(*args):
                try:
                    return judge(*args)
                except UndecidedError:
                    return False
            return judge_or_reject
        return start, step, judging(verdict), judging(last)

    search = langlab._search
    monkeypatch.setattr(langlab, "_search", lambda *args: judged(search(*args)))
    for budget in (None, SearchBudget(eps_per_path=2)):
        assert equivalent_up_to(eps_chain_machine(), eps_chain_machine(), 6, budget).equal
    assert equivalent_up_to(quartering_machine(), quartering_machine(), 6,
                            SearchBudget(eps_per_path=2)).equal
    assert asked == []
    left, right = quartering_machine(), quartering_machine()
    assert equivalent_up_to(left, right, 6).equal
    assert [(name, spec is left, w) for name, spec, w in asked] == [
        ("run_nondeterministic", spec is left, w)
        for w in all_strings(("a",), 6) for spec in (left, right)]
